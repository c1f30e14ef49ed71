// The four benchmark workloads. Each runs for Args::seconds from a single
// process and reports, untraced, the end-to-end metrics, or, traced, every
// per-layer metric.
#pragma once

#include "bench.hpp"

namespace perfbench {

void run_dse_cases(const Args& args, Report& report);
void run_replay_exact(const Args& args, Report& report);
void run_replay_stream(const Args& args, Report& report);
void run_daemon_live(const Args& args, Report& report);

}  // namespace perfbench
