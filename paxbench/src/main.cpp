// paxbench — the measuring half of PaxBench (run.py is the entry point).
//
//   paxbench persist   --workload persist_sparse|persist_dense ...
//   paxbench kv        --workload kv_write|kv_read --port P --server-pid N ...
//   paxbench kv-replay --workload kv_write|kv_read ...
//
// Common flags: --seed N --seconds S --trace 0|1 [--trace-out FILE]
// [--corrupt-expected]. Prints one JSON document of raw samples and
// counter deltas on stdout; exit 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "pax/common/log.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: paxbench persist|kv|kv-replay --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n"
               "       [--port P] [--server-pid N] [--corrupt-expected]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  paxbench::Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (arg == "--port" && has_value) {
      args.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--server-pid" && has_value) {
      args.server_pid = std::atoi(argv[++i]);
    } else if (arg == "--corrupt-expected") {
      args.corrupt_expected = true;
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();
  pax::set_log_level(pax::LogLevel::kWarn);

  if (args.mode == "persist") return paxbench::run_persist(args);
  if (args.mode == "kv") {
    if (args.port == 0 || args.server_pid <= 0) return usage();
    return paxbench::run_kv_client(args);
  }
  if (args.mode == "kv-replay") return paxbench::run_kv_replay(args);
  return usage();
}
