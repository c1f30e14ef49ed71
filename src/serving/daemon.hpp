// The live serving daemon: the step from "simulator" to "system". Runs the
// existing batching/dispatch/TailTracker pipeline (engine.hpp) online behind
// a local-socket request server, with simple admission control when the
// rolling p99 drifts toward the SLA bound and a graceful drain on shutdown.
//
// Two entry points over the same submit path — the shard driver
// (driver.hpp) every replay runs on, with the same spec validator:
//
//  - run_trace(): drives an arrival-stamped trace through the online engine
//    under the spec's clock (usually VirtualClock). With admission control
//    off this produces per-request decisions, latencies, and stats
//    IDENTICAL to simulate_fleet on the same trace, in either latency mode
//    — the replay/live parity contract, pinned by tests/daemon_test.cpp
//    and diffed in CI.
//
//  - serve(): listens on an AF_UNIX socket (SteadyClock required) and
//    serves a line protocol:
//        client -> "req <user> <branch>\n"
//        daemon -> "ok <id> <branch> <instance> <latency_us>\n"   (on
//                  dispatch; latency is arrival -> predicted completion)
//               |  "shed <id>\n"        (rejected by admission control)
//               |  "err <reason>\n"
//    A client line "shutdown\n" — or request_shutdown(), which is safe to
//    call from a signal handler — stops intake, drains every in-flight
//    batch on the batching-timeout schedule, answers the stragglers, and
//    returns the final stats.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serving/fleet.hpp"
#include "serving/service.hpp"
#include "serving/stats.hpp"
#include "util/run_control.hpp"
#include "util/status.hpp"

namespace fcad::serving {

struct DaemonOptions {
  /// Admission control: once at least `admission_window` requests have
  /// completed, a new request is shed (rejected before batching) while the
  /// rolling p99 over the last `admission_window` completions exceeds
  /// `admission_headroom * sla.p99_bound_us` — the daemon starts refusing
  /// load *before* the SLA is breached, not after. With an elastic policy
  /// (ServeSpec::elastic) the daemon grows first and drops load last:
  /// shedding engages only once scale-up headroom is exhausted.
  bool admission_enabled = false;
  int admission_window = 256;
  double admission_headroom = 0.9;
  /// serve(): AF_UNIX socket path to listen on (unlinked + rebound).
  std::string socket_path;
  /// serve(): cap on requests one session may admit (TailTracker sizing
  /// and stream reservations; ~16 MB of latency/wait doubles at 1M).
  std::int64_t expected_requests = 1 << 20;
};

struct DaemonResult {
  ServingStats stats;     ///< over admitted requests only
  std::int64_t shed = 0;  ///< requests rejected by admission control
};

class Daemon {
 public:
  /// `spec.workload` is unused (the daemon serves whatever arrives);
  /// `spec.fleet`/`spec.sla`/`spec.clock` configure the engine.
  /// `spec.elastic` and `spec.scenario.faults` apply in both entry points —
  /// arrival shaping in `spec.scenario` is the generator's business and is
  /// ignored here (shape the trace before handing it to run_trace).
  Daemon(ServiceModel service, ServeSpec spec, DaemonOptions options = {});
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Drives an arrival-stamped trace through the online submit path —
  /// admission control included — sharded and merged exactly like
  /// simulate_fleet (user u -> shard u mod S, index-ordered merge), each
  /// shard on its own clock of the spec's kind. Deterministic for any
  /// thread count; cancellable via `scope` (StatusCode::kCancelled), which
  /// also receives simulate_fleet's progress ticks. Shed decisions are not
  /// checkpointed, so a non-empty fleet.checkpoint_path or process sharding
  /// is Status::invalid_argument.
  StatusOr<DaemonResult> run_trace(const std::vector<Request>& trace,
                                   const util::RunScope* scope = nullptr) const;

  /// Serves the socket until shutdown. Blocks; returns the session's final
  /// stats after the graceful drain. Requires options.socket_path,
  /// spec.clock == ClockKind::kSteady, and spec.fleet.shards == 1 (live
  /// sharding is a daemon-per-shard deployment, not one process). With
  /// fleet.latency_mode == kSketch the session's latency memory is bounded
  /// (sketch pages instead of per-request streams).
  StatusOr<DaemonResult> serve();

  /// Initiates a graceful shutdown of a concurrent serve(): one write to an
  /// internal pipe, so it is safe from any thread or signal handler. A
  /// no-op when serve() is not running (the next serve() call will see it).
  void request_shutdown();

 private:
  ServiceModel service_;
  ServeSpec spec_;
  DaemonOptions options_;
  int shutdown_pipe_[2] = {-1, -1};
};

}  // namespace fcad::serving
