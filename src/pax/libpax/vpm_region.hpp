// The vPM region: the application-visible window onto the pool's data extent.
//
// libpax maps an anonymous region at a fixed address hint (so raw pointers
// inside persistent structures stay valid across process restarts, the same
// trick PMDK's mmap hint plays), seeds it from PM, and write-protects it.
// The first store to each page after it is armed marks the page written.
// This is the paging hybrid the paper proposes in §5.1: the first write is
// the device's RdOwn-equivalent first-touch notification, after which
// libpax tracks the page's modifications at cache-line granularity by
// diffing against the device's copy (see PaxRuntime::sync_pages).
//
// Two trackers implement the same contract; create() probes once per
// process and picks the first that works:
//
//   uffd-wp   userfaultfd write-protect in async mode (Linux 6.7+). The
//             kernel resolves each first write itself — no signal, no VMA
//             split — and records it in the page table. take_written()
//             collects the written pages and re-arms them in one
//             PAGEMAP_SCAN ioctl with PM_SCAN_WP_MATCHING. A scan walks the
//             whole region, so it costs time in proportion to the region's
//             size, not to the pages written (DESIGN.md, host sync).
//   mprotect  the fallback for older kernels and seccomp'd sandboxes: pages
//             are mapped read-only, the first store raises SIGSEGV, and the
//             handler flags the page and unprotects it. take_written()
//             re-protects with one mprotect per run of adjacent pages. Only
//             this tracker installs the SIGSEGV handler; faults on non-vPM
//             addresses are forwarded to the previous disposition, so real
//             bugs still crash loudly.
//
// The take/re-arm contract: take_written() hands out every page written
// since its last arming and re-arms it in the same step, per page
// atomically with respect to concurrent stores. A store that races the
// caller's diff of a taken page therefore lands after the re-arm and shows
// up in the next take. put_back() returns pages to the written set after a
// failed sync, so no dirty page is lost.
//
// Line digests (`track_lines`; PaxRuntime always creates its region with
// them, the pagewal baseline without): the region additionally keeps a
// per-line 32-bit CRC32C digest of each line's last-synced contents. The
// diff compares a taken page's lines whose digest mismatches and skips the
// rest without touching the device shadow, so persist cost follows lines
// written, not pages touched. A taken page with NO mismatching digest is
// compared in full: something on it was written, and a single changed line
// whose new contents collide with its digest is still found exactly. A
// changed line is missed only when its digest collides AND another line on
// the same page also changed — a 2^-32 per-line false-clean window, the
// price of sub-page tracking without per-line faults.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"

struct page_region;  // <linux/fs.h>, Linux 6.7: one run of PAGEMAP_SCAN output

namespace pax::libpax {

class VpmRegion {
 public:
  enum class Tracker : std::uint8_t { kUffdWp, kMprotect };

  /// Maps `size` bytes (page-aligned) with the process's write tracker. The
  /// region starts unarmed (writable, nothing recorded); call protect_all()
  /// after seeding it. `fixed_hint`, if nonzero, requests a specific base
  /// address — PaxRuntime passes the address a pool was mapped at before, so
  /// that recovered raw pointers stay valid when the same pool is reopened.
  /// `track_lines` allocates the per-line digests.
  static Result<std::unique_ptr<VpmRegion>> create(std::size_t size,
                                                   std::uintptr_t fixed_hint = 0,
                                                   bool track_lines = false);

  ~VpmRegion();
  VpmRegion(const VpmRegion&) = delete;
  VpmRegion& operator=(const VpmRegion&) = delete;

  std::byte* base() const { return base_; }
  std::size_t size() const { return size_; }
  std::size_t page_count() const { return size_ / kPageSize; }

  std::span<std::byte> page_span(PageIndex page) const {
    return {base_ + page.byte_offset(), kPageSize};
  }

  Tracker tracker() const { return tracker_; }
  /// "uffd-wp" or "mprotect".
  const char* tracker_name() const;

  /// Arms every page and forgets the written set: the state at an epoch
  /// boundary.
  Status protect_all();

  /// Takes the written set: every page written since it was last armed, in
  /// index order, each re-armed in the same step (see the contract above).
  /// Adds the pages to fault_count().
  Result<std::vector<PageIndex>> take_written();

  /// Returns taken pages to the written set (they read as written again and
  /// stay writable until the next take). For a sync that failed after its
  /// take. Subtracts the pages from fault_count().
  Status put_back(std::span<const PageIndex> pages);

  /// Pages written since their last arming, in index order, without taking
  /// them.
  std::vector<PageIndex> dirty_pages() const;

  /// Pages first written, as counted by the takes (net of put_back).
  std::uint64_t fault_count() const {
    return faults_.load(std::memory_order_relaxed);
  }

  /// Re-arm calls made by protect_all/take_written: PAGEMAP_SCAN ioctls
  /// under uffd-wp, mprotect calls (one per run of adjacent pages) under
  /// mprotect.
  std::uint64_t protect_syscall_count() const {
    return protect_syscalls_.load(std::memory_order_relaxed);
  }

  /// Dispatches a fault at `addr` (mprotect tracker; called by the global
  /// handler). Returns true if the address belongs to this region and was
  /// handled.
  bool handle_fault(void* addr);

  // --- Line-granular tracking (track_lines mode) -------------------------

  bool track_lines() const { return track_lines_; }

  /// True once the page's per-line digests reflect its last-synced contents.
  /// Fresh regions (and therefore every crash/recovery reattach) start with
  /// every page invalid: the first diff of a page runs the full page-shadow
  /// compare and seeds the digests.
  bool line_digests_valid(PageIndex page) const {
    return track_lines_ &&
           digests_valid_[page.value].load(std::memory_order_acquire) != 0;
  }
  void mark_line_digests_valid(PageIndex page) {
    digests_valid_[page.value].store(1, std::memory_order_release);
  }
  /// Drops the page back to the full-compare path (its next diff reseeds
  /// every digest). The pipelined runtime calls this when a drain job fails
  /// after snapshot-time digests were already advanced: invalidating is
  /// always safe — it only costs one full-page compare.
  void invalidate_line_digests(PageIndex page) {
    if (track_lines_) {
      digests_valid_[page.value].store(0, std::memory_order_release);
    }
  }

  /// CRC32C of the line's last-synced contents. Only meaningful while
  /// line_digests_valid(page). Written by the (single, sync_mu_-serialized)
  /// diff owner of the page; the test suite also pokes it to simulate
  /// digest collisions.
  std::uint32_t line_digest(PageIndex page, std::size_t line) const {
    return digests_[page.value * kLinesPerPage + line];
  }
  void set_line_digest(PageIndex page, std::size_t line, std::uint32_t crc) {
    digests_[page.value * kLinesPerPage + line] = crc;
  }

 private:
  VpmRegion(std::byte* b, std::size_t size, bool track_lines, Tracker tracker);

  /// uffd-wp: PAGEMAP_SCAN over the region collecting written pages into
  /// `out` (nothing before the first protect_all), `vec_len` page runs per
  /// ioctl call; `rearm` write-protects them in the same walk. Adds the
  /// ioctl calls made to *calls.
  Status scan_written(bool rearm, std::vector<PageIndex>* out,
                      ::page_region* vec, std::size_t vec_len,
                      std::uint64_t* calls) const;
  /// Most page runs a scan can return: every other page written.
  std::size_t max_scan_regions() const { return (page_count() + 1) / 2; }
  /// uffd-wp: UFFDIO_WRITEPROTECT over [first, first + pages) pages.
  Status uffd_protect(std::size_t first, std::size_t pages, bool protect);
  /// mprotect tracker: sets [first, first + pages) to `prot` and the pages'
  /// written flags to `written`; false (errno set) if mprotect failed.
  /// Async-signal-safe. Caller holds arm_lock_.
  bool mprotect_run(std::size_t first, std::size_t pages, int prot,
                    bool written);
  void lock_arming();
  void unlock_arming() { arm_lock_.store(false, std::memory_order_release); }

  std::byte* base_;
  std::size_t size_;
  bool track_lines_;
  Tracker tracker_;
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> protect_syscalls_{0};

  // uffd-wp: the region's userfaultfd and a /proc/self/pagemap descriptor.
  // Registered pages read as written until protect_all() first arms them,
  // so scans report nothing before then.
  int uffd_ = -1;
  int pagemap_fd_ = -1;
  std::atomic<bool> armed_{false};
  // take_written()'s scan output, max_scan_regions() long. One taker at a
  // time uses it — PaxRuntime takes under its sync mutex.
  std::unique_ptr<::page_region[]> scan_regions_;

  // mprotect tracker: one written flag per page, set by the SIGSEGV handler
  // (atomics only), and a count of set flags so a clean region skips the
  // O(page_count) scan. arm_lock_ is a spinlock the handler and the arming
  // calls hold across "flag + protection change", so a take can never clear
  // a flag whose page a late handler is about to unprotect.
  std::unique_ptr<std::atomic<std::uint8_t>[]> written_;
  std::atomic<std::size_t> written_count_{0};
  std::atomic<bool> arm_lock_{false};

  // track_lines mode only (null otherwise). Digests are written only by the
  // page's diff owner, so a plain array suffices.
  std::unique_ptr<std::atomic<std::uint8_t>[]> digests_valid_;
  std::unique_ptr<std::uint32_t[]> digests_;
};

}  // namespace pax::libpax
