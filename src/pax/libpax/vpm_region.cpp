#include "pax/libpax/vpm_region.hpp"

#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <sched.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>

#include "pax/common/check.hpp"
#include "pax/common/log.hpp"

// uapi additions newer than many distributions' kernel headers, defined here
// with the kernel release that introduced each.

// Linux 6.4: write-protect unpopulated PTEs too (pte markers), so a first
// write to a never-touched page is recorded like any other.
#ifndef UFFD_FEATURE_WP_UNPOPULATED
#define UFFD_FEATURE_WP_UNPOPULATED (1 << 13)
#endif
// Linux 6.7: the kernel resolves write-protect faults itself and leaves the
// page marked written instead of queueing an event for a handler thread.
#ifndef UFFD_FEATURE_WP_ASYNC
#define UFFD_FEATURE_WP_ASYNC (1 << 15)
#endif

// Linux 6.7: the PAGEMAP_SCAN ioctl on /proc/<pid>/pagemap.
#ifndef PAGEMAP_SCAN
struct page_region {
  __u64 start;
  __u64 end;
  __u64 categories;
};
struct pm_scan_arg {
  __u64 size;
  __u64 flags;
  __u64 start;
  __u64 end;
  __u64 walk_end;
  __u64 vec;
  __u64 vec_len;
  __u64 max_pages;
  __u64 category_inverted;
  __u64 category_mask;
  __u64 category_anyof_mask;
  __u64 return_mask;
};
#define PAGEMAP_SCAN _IOWR('f', 16, struct pm_scan_arg)
#define PM_SCAN_WP_MATCHING (1 << 0)
#define PM_SCAN_CHECK_WPASYNC (1 << 1)
#define PAGE_IS_WRITTEN (1 << 1)
#endif

namespace pax::libpax {
namespace {

// Fixed mapping hint so persistent raw pointers survive restarts. Regions
// are placed sequentially from here (multiple pools in one process).
//
// TSan's x86-64 address layout reserves 0x0100'0000'0000-0x2000'0000'0000
// for shadow memory and its interposed mmap rejects mappings outside the
// app ranges, so TSan builds place regions in TSan's low app range
// (0x1000-0x0080'0000'0000) instead. Pointer stability across restarts
// holds within each build flavor, which is all the tests need.
#if defined(__SANITIZE_THREAD__)
#define PAX_VPM_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PAX_VPM_UNDER_TSAN 1
#endif
#endif
#ifdef PAX_VPM_UNDER_TSAN
constexpr std::uintptr_t kVpmBaseHint = 0x0040'0000'0000ULL;
#else
constexpr std::uintptr_t kVpmBaseHint = 0x2000'0000'0000ULL;
#endif

std::atomic<std::uintptr_t> g_next_hint{kVpmBaseHint};

// --- uffd-wp helpers --------------------------------------------------------

constexpr std::uint64_t kUffdFeatures =
    UFFD_FEATURE_WP_ASYNC | UFFD_FEATURE_WP_UNPOPULATED;

/// A userfaultfd with async write-protect negotiated, or -1. An older
/// kernel rejects the unknown feature bits in UFFDIO_API, so a returned fd
/// never blocks a writer waiting for a handler.
int open_uffd() {
  const int fd = static_cast<int>(::syscall(
      SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY));
  if (fd < 0) return -1;
  uffdio_api api{};
  api.api = UFFD_API;
  api.features = kUffdFeatures;
  if (::ioctl(fd, UFFDIO_API, &api) != 0 ||
      (api.features & kUffdFeatures) != kUffdFeatures) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool uffd_register_wp(int uffd, void* addr, std::size_t len) {
  uffdio_register reg{};
  reg.range.start = reinterpret_cast<std::uintptr_t>(addr);
  reg.range.len = len;
  reg.mode = UFFDIO_REGISTER_MODE_WP;
  return ::ioctl(uffd, UFFDIO_REGISTER, &reg) == 0;
}

bool uffd_writeprotect(int uffd, void* addr, std::size_t len, bool protect) {
  uffdio_writeprotect wp{};
  wp.range.start = reinterpret_cast<std::uintptr_t>(addr);
  wp.range.len = len;
  wp.mode = protect ? UFFDIO_WRITEPROTECT_MODE_WP : 0;
  return ::ioctl(uffd, UFFDIO_WRITEPROTECT, &wp) == 0;
}

/// One PAGEMAP_SCAN call for written pages in [*start, end). Returns the
/// number of regions stored in `vec` (or -1) and advances *start to where
/// the walk stopped (end, unless `vec` filled up first).
long pagemap_scan_written(int pagemap_fd, std::uint64_t* start,
                          std::uint64_t end, bool rearm, page_region* vec,
                          std::size_t vec_len) {
  pm_scan_arg arg{};
  arg.size = sizeof(arg);
  arg.flags = PM_SCAN_CHECK_WPASYNC | (rearm ? PM_SCAN_WP_MATCHING : 0);
  arg.start = *start;
  arg.end = end;
  arg.vec = reinterpret_cast<std::uintptr_t>(vec);
  arg.vec_len = vec_len;
  arg.category_mask = PAGE_IS_WRITTEN;
  arg.return_mask = PAGE_IS_WRITTEN;
  const long n = ::ioctl(pagemap_fd, PAGEMAP_SCAN, &arg);
  if (n >= 0) *start = arg.walk_end;
  return n;
}

/// The one-time probe: async write-protect plus PAGEMAP_SCAN end to end on
/// a scratch page. Fails on kernels before 6.7 and where a seccomp filter
/// denies userfaultfd.
bool probe_uffd_wp() {
  const int uffd = open_uffd();
  if (uffd < 0) return false;
  void* page = ::mmap(nullptr, kPageSize, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  const int pagemap = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  bool ok = page != MAP_FAILED && pagemap >= 0 &&
            uffd_register_wp(uffd, page, kPageSize) &&
            uffd_writeprotect(uffd, page, kPageSize, true);
  if (ok) {
    page_region vec[1];
    std::uint64_t start = reinterpret_cast<std::uintptr_t>(page);
    ok = pagemap_scan_written(pagemap, &start, start + kPageSize,
                              /*rearm=*/true, vec, 1) >= 0;
  }
  if (pagemap >= 0) ::close(pagemap);
  if (page != MAP_FAILED) ::munmap(page, kPageSize);
  ::close(uffd);
  return ok;
}

VpmRegion::Tracker process_tracker() {
  static const VpmRegion::Tracker kTracker = [] {
    if (probe_uffd_wp()) return VpmRegion::Tracker::kUffdWp;
    PAX_LOG_INFO("vPM write tracking: userfaultfd async write-protect "
                 "unavailable, using mprotect");
    return VpmRegion::Tracker::kMprotect;
  }();
  return kTracker;
}

// --- mprotect tracker: the SIGSEGV handler ----------------------------------

// Registry of live mprotect-tracked regions consulted by the global SIGSEGV
// handler. Fixed-size atomic slots: the handler can read it lock-free at any
// moment without racing a container reallocation.
constexpr std::size_t kMaxRegions = 64;
std::mutex g_registry_mu;  // serializes registration/unregistration only
std::atomic<VpmRegion*> g_regions[kMaxRegions]{};
std::atomic<void (*)()> g_fault_hook{nullptr};
struct sigaction g_prev_sigsegv;
bool g_handler_installed = false;

void forward_to_previous(int sig, siginfo_t* info, void* ctx) {
  if (g_prev_sigsegv.sa_flags & SA_SIGINFO) {
    if (g_prev_sigsegv.sa_sigaction != nullptr) {
      g_prev_sigsegv.sa_sigaction(sig, info, ctx);
      return;
    }
  } else if (g_prev_sigsegv.sa_handler != SIG_DFL &&
             g_prev_sigsegv.sa_handler != SIG_IGN &&
             g_prev_sigsegv.sa_handler != nullptr) {
    g_prev_sigsegv.sa_handler(sig);
    return;
  }
  // Restore default disposition and re-raise: genuine crash.
  signal(SIGSEGV, SIG_DFL);
  raise(SIGSEGV);
}

void sigsegv_handler(int sig, siginfo_t* info, void* ctx) {
  // NOTE: only async-signal-safe operations here. The registry is read
  // without the mutex — regions are registered before any page of theirs is
  // protected and unregistered after all are unprotected.
  void* addr = info->si_addr;
  for (auto& slot : g_regions) {
    VpmRegion* region = slot.load(std::memory_order_acquire);
    if (region != nullptr && region->handle_fault(addr)) return;
  }
  forward_to_previous(sig, info, ctx);
}

void install_handler_once() {
  std::lock_guard lock(g_registry_mu);
  if (g_handler_installed) return;
  struct sigaction sa {};
  sa.sa_sigaction = sigsegv_handler;
  sa.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  PAX_CHECK(sigaction(SIGSEGV, &sa, &g_prev_sigsegv) == 0);
  g_handler_installed = true;
}

/// Calls fn(first, count) for each run of adjacent pages in sorted `pages`.
template <typename Fn>
Status for_each_run(std::span<const PageIndex> pages, std::size_t page_count,
                    Fn&& fn) {
  std::size_t i = 0;
  while (i < pages.size()) {
    PAX_CHECK(pages[i].value < page_count);
    std::size_t j = i + 1;
    while (j < pages.size() && pages[j].value == pages[j - 1].value + 1) {
      PAX_CHECK(pages[j].value < page_count);
      ++j;
    }
    PAX_RETURN_IF_ERROR(fn(pages[i].value, j - i));
    i = j;
  }
  return Status::ok();
}

Status errno_status(const char* what) {
  return io_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<VpmRegion>> VpmRegion::create(
    std::size_t size, std::uintptr_t fixed_hint, bool track_lines) {
  if (size == 0 || size % kPageSize != 0) {
    return invalid_argument("vPM region size must be page-aligned");
  }
  const Tracker tracker = process_tracker();

  const std::uintptr_t hint =
      fixed_hint != 0
          ? fixed_hint
          : g_next_hint.fetch_add((size + (std::uintptr_t{1} << 30)) &
                                  ~((std::uintptr_t{1} << 30) - 1));
  void* base = ::mmap(reinterpret_cast<void*>(hint), size,
                      PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1, 0);
  if (base == MAP_FAILED) {
    // Hint occupied (unusual): fall back to any address. Persistent raw
    // pointers then only survive within this process lifetime.
    PAX_LOG_WARN("vPM fixed hint unavailable, falling back: %s",
                 std::strerror(errno));
    base = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) return errno_status("mmap vPM region");
  }
  // Both trackers work in 4 KiB pages; keep THP=always hosts from handing
  // out 2 MiB pages that would be reported (and diffed) as a unit.
  ::madvise(base, size, MADV_NOHUGEPAGE);

  auto region = std::unique_ptr<VpmRegion>(new VpmRegion(
      static_cast<std::byte*>(base), size, track_lines, tracker));
  if (tracker == Tracker::kUffdWp) {
    region->uffd_ = open_uffd();
    if (region->uffd_ < 0) return errno_status("userfaultfd");
    if (!uffd_register_wp(region->uffd_, base, size)) {
      return errno_status("UFFDIO_REGISTER vPM region");
    }
    region->pagemap_fd_ = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
    if (region->pagemap_fd_ < 0) return errno_status("open pagemap");
    // Left uninitialized: the kernel writes only the entries it returns, so
    // the untouched tail of a large buffer never becomes resident.
    region->scan_regions_.reset(new page_region[region->max_scan_regions()]);
    return region;
  }

  install_handler_once();
  std::lock_guard lock(g_registry_mu);
  for (auto& slot : g_regions) {
    VpmRegion* expected = nullptr;
    if (slot.compare_exchange_strong(expected, region.get())) return region;
  }
  return failed_precondition("too many live vPM regions");
}

VpmRegion::VpmRegion(std::byte* b, std::size_t size, bool track_lines,
                     Tracker tracker)
    : base_(b), size_(size), track_lines_(track_lines), tracker_(tracker) {
  if (tracker_ == Tracker::kMprotect) {
    written_.reset(new std::atomic<std::uint8_t>[page_count()]);
    for (std::size_t i = 0; i < page_count(); ++i) {
      written_[i].store(0, std::memory_order_relaxed);
    }
  }
  if (track_lines_) {
    digests_valid_.reset(new std::atomic<std::uint8_t>[page_count()]);
    digests_.reset(new std::uint32_t[page_count() * kLinesPerPage]);
    for (std::size_t i = 0; i < page_count(); ++i) {
      digests_valid_[i].store(0, std::memory_order_relaxed);
    }
  }
}

VpmRegion::~VpmRegion() {
  if (tracker_ == Tracker::kMprotect) {
    // Unprotect first so no fault can race the unregistration.
    ::mprotect(base_, size_, PROT_READ | PROT_WRITE);
    std::lock_guard lock(g_registry_mu);
    for (auto& slot : g_regions) {
      VpmRegion* expected = this;
      slot.compare_exchange_strong(expected, nullptr);
    }
  }
  ::munmap(base_, size_);
  if (pagemap_fd_ >= 0) ::close(pagemap_fd_);
  if (uffd_ >= 0) ::close(uffd_);
}

const char* VpmRegion::tracker_name() const {
  return tracker_ == Tracker::kUffdWp ? "uffd-wp" : "mprotect";
}

void VpmRegion::lock_arming() {
  // Also taken inside the SIGSEGV handler: spin, never block.
  while (arm_lock_.exchange(true, std::memory_order_acquire)) {
    while (arm_lock_.load(std::memory_order_relaxed)) ::sched_yield();
  }
}

bool VpmRegion::mprotect_run(std::size_t first, std::size_t pages, int prot,
                             bool written) {
  if (::mprotect(base_ + first * kPageSize, pages * kPageSize, prot) != 0) {
    return false;
  }
  set_written(first, pages, written);
  return true;
}

void VpmRegion::set_written(std::size_t first, std::size_t pages,
                            bool written) {
  const std::uint8_t flag = written ? 1 : 0;
  for (std::size_t p = first; p < first + pages; ++p) {
    if (written_[p].exchange(flag, std::memory_order_acq_rel) != flag) {
      if (written) {
        written_count_.fetch_add(1, std::memory_order_acq_rel);
      } else {
        written_count_.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
  }
}

void VpmRegion::set_fault_hook_for_testing(void (*hook)()) {
  g_fault_hook.store(hook, std::memory_order_release);
}

Status VpmRegion::uffd_protect(std::size_t first, std::size_t pages,
                               bool protect) {
  if (!uffd_writeprotect(uffd_, base_ + first * kPageSize, pages * kPageSize,
                         protect)) {
    return errno_status("UFFDIO_WRITEPROTECT");
  }
  return Status::ok();
}

Status VpmRegion::protect_all() {
  protect_syscalls_.fetch_add(1, std::memory_order_relaxed);
  if (tracker_ == Tracker::kUffdWp) {
    PAX_RETURN_IF_ERROR(uffd_protect(0, page_count(), true));
    // Registered pages read as written until first armed.
    armed_.store(true, std::memory_order_release);
    return Status::ok();
  }
  lock_arming();
  const bool ok = mprotect_run(0, page_count(), PROT_READ, false);
  unlock_arming();
  return ok ? Status::ok() : errno_status("mprotect vPM region");
}

Status VpmRegion::scan_written(bool rearm, std::vector<PageIndex>* out,
                               page_region* vec, std::size_t vec_len,
                               std::uint64_t* calls) const {
  if (!armed_.load(std::memory_order_acquire)) return Status::ok();
  const auto base = reinterpret_cast<std::uintptr_t>(base_);
  const std::uint64_t end = base + size_;
  std::uint64_t start = base;
  while (start < end) {
    const long n =
        pagemap_scan_written(pagemap_fd_, &start, end, rearm, vec, vec_len);
    if (n < 0) return errno_status("PAGEMAP_SCAN");
    ++*calls;
    for (long i = 0; i < n; ++i) {
      for (std::uint64_t a = vec[i].start; a < vec[i].end; a += kPageSize) {
        out->push_back(PageIndex{(a - base) / kPageSize});
      }
    }
  }
  return Status::ok();
}

Result<std::vector<PageIndex>> VpmRegion::take_written() {
  std::vector<PageIndex> taken;
  if (tracker_ == Tracker::kUffdWp) {
    // The buffer holds the worst case (every other page written), so one
    // scan call takes and re-arms the whole written set.
    std::uint64_t calls = 0;
    const Status st =
        scan_written(/*rearm=*/true, &taken, scan_regions_.get(),
                     max_scan_regions(), &calls);
    protect_syscalls_.fetch_add(calls, std::memory_order_relaxed);
    PAX_RETURN_IF_ERROR(st);
  } else {
    lock_arming();
    Status st = Status::ok();
    if (written_count_.load(std::memory_order_acquire) != 0) {
      for (std::size_t i = 0; i < page_count(); ++i) {
        if (written_[i].load(std::memory_order_acquire) != 0) {
          taken.push_back(PageIndex{i});
        }
      }
      st = for_each_run(taken, page_count(),
                        [this](std::size_t first, std::size_t n) {
                          protect_syscalls_.fetch_add(
                              1, std::memory_order_relaxed);
                          return mprotect_run(first, n, PROT_READ, false)
                                     ? Status::ok()
                                     : errno_status("mprotect vPM pages");
                        });
    }
    unlock_arming();
    if (!st.is_ok()) return st;
  }
  faults_.fetch_add(taken.size(), std::memory_order_relaxed);
  return taken;
}

Status VpmRegion::put_back(std::span<const PageIndex> pages) {
  faults_.fetch_sub(pages.size(), std::memory_order_relaxed);
  if (tracker_ == Tracker::kUffdWp) {
    return for_each_run(pages, page_count(),
                        [this](std::size_t first, std::size_t n) {
                          return uffd_protect(first, n, false);
                        });
  }
  lock_arming();
  const Status st = for_each_run(
      pages, page_count(), [this](std::size_t first, std::size_t n) {
        return mprotect_run(first, n, PROT_READ | PROT_WRITE, true)
                   ? Status::ok()
                   : errno_status("mprotect vPM pages");
      });
  unlock_arming();
  return st;
}

std::vector<PageIndex> VpmRegion::dirty_pages() const {
  std::vector<PageIndex> out;
  if (tracker_ == Tracker::kUffdWp) {
    page_region vec[256];
    std::uint64_t calls = 0;
    const Status st = scan_written(/*rearm=*/false, &out, vec, 256, &calls);
    PAX_CHECK_MSG(st.is_ok(), st.to_string().c_str());
    return out;
  }
  const std::size_t approx = written_count_.load(std::memory_order_acquire);
  if (approx == 0) return out;  // clean region: skip the full scan
  out.reserve(approx);
  for (std::size_t i = 0; i < page_count(); ++i) {
    if (written_[i].load(std::memory_order_acquire) != 0) {
      out.push_back(PageIndex{i});
    }
  }
  return out;
}

bool VpmRegion::handle_fault(void* addr) {
  auto* p = static_cast<std::byte*>(addr);
  if (p < base_ || p >= base_ + size_) return false;
  const std::size_t page = static_cast<std::size_t>(p - base_) / kPageSize;
  // Lock-free atomics, mprotect and sched_yield only: this runs inside the
  // signal handler. Flag, then unprotect, under the arming lock; the
  // faulting store retries and succeeds. Two threads faulting the same page
  // both get here — idempotent. Without the lock, a take running between
  // the flag and the unprotect would take and re-arm the page, then this
  // unprotect would leave it writable with its flag clear: the retried
  // store would never be taken.
  lock_arming();
  set_written(page, 1, true);
  if (auto* hook = g_fault_hook.load(std::memory_order_acquire)) hook();
  const bool ok = ::mprotect(base_ + page * kPageSize, kPageSize,
                             PROT_READ | PROT_WRITE) == 0;
  unlock_arming();
  return ok;  // false: fall through to the previous handler → crash loudly
}

}  // namespace pax::libpax
