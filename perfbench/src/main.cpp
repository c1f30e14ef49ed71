// perfbench — the repository benchmark program.
//
//   perfbench --workload <dse_cases|replay_exact|replay_stream|daemon_live>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs every per-layer metric (layers.hpp).
#include <malloc.h>
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (args.seconds <= 0 || args.seconds > 60) {
    return usage("--seconds must be in (0, 60]");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return usage(("cannot create " + args.work_dir).c_str());
  // A fixed mmap threshold (glibc's 128 KiB default, no longer adaptive):
  // large buffers are always mapped and unmapped, so peak RSS follows the
  // program's allocations instead of which thread freed what first — with
  // the adaptive threshold daemon_live's peak RSS flipped between two values
  // 7 MB apart from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // 1 ns timer slack: the daemon's steady clock sleeps until exact event
  // times; the default 50 us slack would add to every reply.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  perfbench::Report report;
  if (args.workload == "dse_cases") {
    perfbench::run_dse_cases(args, report);
  } else if (args.workload == "replay_exact") {
    perfbench::run_replay_exact(args, report);
  } else if (args.workload == "replay_stream") {
    perfbench::run_replay_stream(args, report);
  } else if (args.workload == "daemon_live") {
    perfbench::run_daemon_live(args, report);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "error: no operation ran\n");
    return 1;
  }
  report.print();
  return 0;
}
