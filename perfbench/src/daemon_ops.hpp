// The live daemon as the benchmark drives it: Daemon::serve on an AF_UNIX
// socket under the steady clock, and one client thread that sends Poisson
// arrivals on a schedule over one connection and times every reply from
// when its request was due.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serving/daemon.hpp"

#include "bench.hpp"

namespace perfbench {

/// Modelled batching timeout of the daemon fleet. The p99 limit of the
/// rate ladder (kDaemonP99LimitMs) sits well above it.
inline constexpr double kDaemonBatchTimeoutUs = 2000;
/// Instances of the daemon fleet: far more than the host can keep busy, so
/// modelled capacity never limits the ladder.
inline constexpr int kDaemonInstances = 4096;

/// The rate ladder, req/s, ascending; the reference rate is on it. Above
/// 80k the rungs close in on the daemon's host-bound knee, printed as
/// daemon_max_rps; the top rung sits at the low end of the knees seen on
/// the baseline host. A run climbs the ladder kDaemonRounds times, so every
/// rate is sampled across the whole run. See the benchmark's README for why
/// these values.
inline constexpr double kDaemonLadder[] = {10000,  20000,  40000,  80000,
                                           120000, 160000, 180000, 200000};
inline constexpr double kDaemonReferenceRps = 40000;
inline constexpr int kDaemonRounds = 4;
/// After each ladder step the client sends a burst of kDaemonBurstRequests
/// requests, all due at once. The daemon answers them as fast as the host
/// lets it; all bursts' replies over all bursts' time is the daemon's
/// capacity (ops_per_s). Unlike the knee on the ladder it is not quantized
/// by the rungs, and a stall of a few ms moves it by a few percent instead
/// of failing a rung.
inline constexpr std::int64_t kDaemonBurstRequests = 10000;
/// A rate meets the limit when the p99 of all its replies, pooled over the
/// rounds, is at most this.
inline constexpr double kDaemonP99LimitMs = 20;
/// How long after a step's last due time replies may still arrive: long
/// enough for a rung above the knee to drain its backlog, so an overloaded
/// rung misses the limit instead of losing replies.
inline constexpr double kDaemonGraceMs = 1000;
/// The reference rate's reported percentiles are medians over windows of
/// this length, pooled over the rounds.
inline constexpr double kDaemonWindowS = 0.1;

/// 1 shard, least-loaded, admission off, kDaemonInstances instances.
fcad::serving::ServeSpec daemon_spec(fcad::serving::ClockKind clock);

/// Poisson arrivals at `rate_rps` over `duration_s` (arrival_us from 0),
/// conditioned on exactly rate x duration arrivals; users spread over 1024
/// streams, branches uniform. Dense ids from 0.
std::vector<fcad::serving::Request> poisson_arrivals(double rate_rps,
                                                     double duration_s,
                                                     std::uint64_t seed,
                                                     int branches);

/// `count` requests all due at time 0, users and branches drawn as in
/// poisson_arrivals.
std::vector<fcad::serving::Request> burst_arrivals(std::int64_t count,
                                                   std::uint64_t seed,
                                                   int branches);

/// One rate step of the live client.
struct StepResult {
  double rate_rps = 0;
  std::int64_t sent = 0;
  std::int64_t ok = 0;       ///< answered "ok" with the right branch
  std::int64_t refused = 0;  ///< "shed", "err", or a malformed reply
  std::int64_t missing = 0;  ///< unanswered when the step ended
  std::vector<double> latency_ms;  ///< due -> reply, answered requests
  std::vector<double> due_ms;      ///< when each of those was due
  double lag_p99_ms = 0;  ///< generator lag: actual send - due
  double lag_max_ms = 0;
  std::int64_t backlog = 0;  ///< unanswered at the step's last due time
  double active_s = 0;       ///< step start to the last ok reply
};

/// The `pct` percentile of the latencies due in each kDaemonWindowS window
/// of the step, in window order (empty windows are skipped).
std::vector<double> window_percentiles(const StepResult& step,
                                       double duration_s, double pct);

/// A Daemon serving on its own thread, plus the client's connection.
class LiveDaemon {
 public:
  /// Binds `socket_path` (relative paths keep AF_UNIX limits) and connects;
  /// bind_ms() is Daemon construction to the first successful connect.
  static fcad::StatusOr<std::unique_ptr<LiveDaemon>> start(
      const fcad::serving::ServiceModel& service,
      const std::string& socket_path, std::int64_t expected_requests);
  ~LiveDaemon();
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  double bind_ms() const { return bind_ms_; }

  /// Sends `arrivals` at their scheduled offsets from now and collects the
  /// replies until every request is answered or `grace_ms` after the last
  /// due time. `duration_s` 0 is a burst: every request is due at once.
  StepResult run_step(const std::vector<fcad::serving::Request>& arrivals,
                      double duration_s, double grace_ms);

  /// Graceful shutdown; the session's final daemon stats.
  fcad::StatusOr<fcad::serving::DaemonResult> stop();

 private:
  LiveDaemon() = default;

  std::unique_ptr<fcad::serving::Daemon> daemon_;
  std::optional<fcad::StatusOr<fcad::serving::DaemonResult>> result_;
  int fd_ = -1;
  std::int64_t next_id_ = 0;
  std::string inbuf_;
  double bind_ms_ = 0;
  std::thread thread_;  ///< runs serve(); uses daemon_ and result_
};

}  // namespace perfbench
