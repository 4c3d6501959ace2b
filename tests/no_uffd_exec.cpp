// no_uffd_exec: runs a program with userfaultfd(2) failing with ENOSYS, as
// on a kernel without it or in a seccomp'd sandbox. VpmRegion's one-time
// probe then selects the mprotect fallback tracker, so ctest can cover
// that tracker on hosts whose kernel would pick uffd-wp.
//
//   no_uffd_exec <program> [args...]
//
// Sets PR_SET_NO_NEW_PRIVS (required to install a filter without
// CAP_SYS_ADMIN), installs a seccomp filter that denies only userfaultfd,
// and execv()s the program. Exits 127 if any step fails.
#include <linux/audit.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>

#if defined(__x86_64__)
constexpr unsigned kAuditArch = AUDIT_ARCH_X86_64;
#elif defined(__aarch64__)
constexpr unsigned kAuditArch = AUDIT_ARCH_AARCH64;
#else
#error "no_uffd_exec: add this architecture's AUDIT_ARCH_* value"
#endif

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: no_uffd_exec <program> [args...]\n");
    return 127;
  }
  sock_filter filter[] = {
      // Another ABI's syscall numbers mean something else: allow it as is.
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, arch)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, kAuditArch, 1, 0),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_userfaultfd, 0, 1),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | ENOSYS),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
  };
  sock_fprog prog{};
  prog.len = static_cast<unsigned short>(sizeof(filter) / sizeof(filter[0]));
  prog.filter = filter;
  if (prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0) {
    std::perror("no_uffd_exec: PR_SET_NO_NEW_PRIVS");
    return 127;
  }
  if (prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &prog) != 0) {
    std::perror("no_uffd_exec: PR_SET_SECCOMP");
    return 127;
  }
  execv(argv[1], argv + 1);
  std::perror("no_uffd_exec: execv");
  return 127;
}
