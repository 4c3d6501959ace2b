// The vPM region: the application-visible window onto the pool's data extent.
//
// libpax maps an anonymous region at a fixed address hint (so raw pointers
// inside persistent structures stay valid across process restarts, the same
// trick PMDK's mmap hint plays), seeds it from PM, and write-protects it.
// The first store to each page raises a write fault; the SIGSEGV handler
// marks the page dirty and unprotects it. This is precisely the paging
// hybrid the paper proposes in §5.1: the fault is the device's RdOwn-
// equivalent first-touch notification, after which libpax tracks the page's
// modifications at cache-line granularity by diffing against the device's
// copy (see PaxRuntime::sync_pages).
//
// Faults on non-vPM addresses are forwarded to the previously installed
// SIGSEGV disposition, so real bugs still crash loudly.
//
// Line-granular tracking (optional, `track_lines`): the region additionally
// keeps, per page, a 64-bit candidate-line bitmap and a per-line 32-bit
// CRC32C digest of the line's last-synced contents. The fault handler sets
// the faulting line's candidate bit (the one store the kernel lets us
// observe exactly); the diff path updates digests at capture time and skips
// lines whose digest still matches without touching the device shadow —
// persist cost then scales with lines written, not pages touched. Candidate
// bits force a memcmp regardless of digest equality (the digest-collision
// fallback); a line modified while its page was already writable is caught
// by its digest mismatch instead, which is probabilistic with a 2^-32
// per-line false-clean window — the price of sub-page tracking without
// per-line faults. `track_lines = false` keeps the region bit-for-bit on
// the page-granular path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"

namespace pax::libpax {

class VpmRegion {
 public:
  /// Maps `size` bytes (page-aligned) and installs the fault handler. The
  /// region starts fully unprotected (writable); call protect_all() after
  /// seeding it. `fixed_hint`, if nonzero, requests a specific base address
  /// — PaxRuntime passes the address a pool was mapped at before, so that
  /// recovered raw pointers stay valid when the same pool is reopened.
  /// `track_lines` allocates the per-page candidate bitmaps and per-line
  /// digests for line-granular dirty tracking.
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

  /// Write-protects every page and clears the dirty set: the state at an
  /// epoch boundary.
  Status protect_all();

  /// Write-protects the given pages and clears their dirty flags (used
  /// after persist() handled exactly those pages). Contiguous page runs are
  /// merged into single mprotect calls, so re-arming a densely dirty region
  /// costs O(runs) syscalls, not O(pages). `pages` must be sorted ascending
  /// (dirty_pages() returns them that way).
  Status protect_pages(std::span<const PageIndex> pages);

  /// Pages written since their last protection, in index order. Does not
  /// clear flags or re-protect — pages remain writable until protected
  /// again, so a concurrent writer cannot slip through unseen. O(1) when
  /// nothing is dirty (counter early-out), O(page_count) otherwise.
  std::vector<PageIndex> dirty_pages() const;

  bool is_dirty(PageIndex page) const;
  std::uint64_t fault_count() const {
    return faults_.load(std::memory_order_relaxed);
  }

  /// Dirty pages right now (approximate under concurrent faulting — exact
  /// whenever mutators are quiesced).
  std::size_t dirty_page_count() const {
    return dirty_count_.load(std::memory_order_acquire);
  }

  /// mprotect invocations made by protect_all/protect_pages (coalescing
  /// observability; fault-path unprotects are not counted).
  std::uint64_t protect_syscall_count() const {
    return protect_syscalls_.load(std::memory_order_relaxed);
  }

  /// Dispatches a fault at `addr` (called by the global handler). Returns
  /// true if the address belongs to this region and was handled.
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

  /// Candidate-line bitmap: bit l set means line l must be memcmp'd against
  /// the device shadow regardless of its digest (set by the fault handler
  /// for the one store it observes; cleared when the page is re-protected).
  std::uint64_t candidate_lines(PageIndex page) const {
    return line_bits_[page.value].load(std::memory_order_acquire);
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
  VpmRegion(std::byte* b, std::size_t size, bool track_lines);

  std::byte* base_;
  std::size_t size_;
  bool track_lines_;
  // One flag per page; written from the signal handler (atomics only).
  std::unique_ptr<std::atomic<std::uint8_t>[]> dirty_;
  std::atomic<std::uint64_t> faults_{0};
  // Count of set dirty flags, maintained by exchange-guarded transitions so
  // double faults / double clears never skew it. Lets dirty_pages() skip the
  // O(page_count) scan when the region is clean (the common flusher case).
  std::atomic<std::size_t> dirty_count_{0};
  std::atomic<std::uint64_t> protect_syscalls_{0};

  // track_lines mode only (null otherwise). Candidate bits are written from
  // the signal handler (lock-free atomics); digests only from the page's
  // diff owner, so a plain array suffices.
  std::unique_ptr<std::atomic<std::uint64_t>[]> line_bits_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> digests_valid_;
  std::unique_ptr<std::uint32_t[]> digests_;

  static_assert(kLinesPerPage == 64,
                "candidate-line bitmaps assume 64 lines per page");
};

}  // namespace pax::libpax
