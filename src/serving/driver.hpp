// The one serving driver behind every entry point (internal header):
// simulate_fleet, simulate_fleet_stream, merge_replay_checkpoints,
// Daemon::run_trace, and Daemon::serve all run their shards through
// run_shard — one FleetEngineConfig builder, one event loop — and the three
// replays share run_replay: resume owned shards from the checkpoint, run
// the rest across util::ThreadPool, checkpoint each finished shard, emit
// the terminal progress tick, and fold the shards in index order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serving/clock.hpp"
#include "serving/elastic.hpp"
#include "serving/engine.hpp"
#include "serving/fleet.hpp"
#include "serving/service.hpp"
#include "util/run_control.hpp"
#include "util/status.hpp"

namespace fcad::serving {

/// Arrival feed one shard's event loop pulls from: a materialized slice, a
/// lazily generated stream filtered to the shard's users, or the daemon's
/// socket.
class RequestSource {
 public:
  RequestSource() = default;
  RequestSource(const RequestSource&) = delete;
  RequestSource& operator=(const RequestSource&) = delete;
  virtual ~RequestSource() = default;
  /// Next arrival without consuming it; nullptr when none is pending.
  /// Stable until the next pop().
  virtual const Request* peek() = 0;
  virtual void pop() = 0;
  /// Upper bound on the arrivals this feed delivers (engine sizing).
  virtual std::int64_t expected_requests() const = 0;
  /// Called at the top of every loop iteration, before arrivals are taken.
  virtual void poll() {}
  /// Asked when peek() is nullptr: true when no arrival will ever follow.
  /// A replay feed is then exhausted; the live feed only once shutdown has
  /// been requested.
  virtual bool ended() const { return true; }
  /// How the feed ended: a generated stream that fell short is an error.
  virtual Status status() const { return Status::ok(); }
  /// Every dispatched batch, after the engine's accounting.
  virtual void on_dispatch(const Batch& /*batch*/, int /*instance*/,
                           double /*finish_us*/) {}
  /// Every arrival admission control rejected (it never enters the engine).
  virtual void on_shed(const Request& /*request*/) {}
};

struct ProgressSink;

/// What a shard's loop does besides serving its source.
struct ShardHooks {
  /// Completion counting, cancellation, and progress ticks (replays only).
  ProgressSink* progress = nullptr;
  /// Admission control: once `admission_window` completions have landed,
  /// an arrival is shed while their rolling p99 exceeds
  /// `admission_bound_us` and the elastic layer has no scale-up headroom
  /// left (grow first, drop load last). 0 admits everything.
  int admission_window = 0;
  double admission_bound_us = 0;
  /// Called once the engine is built, right before the loop starts.
  std::function<void()> on_start;
};

struct ShardRun {
  ShardStats stats;
  std::int64_t shed = 0;  ///< arrivals rejected by admission control
};

/// One shard end to end: builds its engine on `clock` (with an elastic
/// controller whenever a policy or fault schedule has work to do) and runs
/// the event loop until the source has ended and the engine has drained.
/// Under a virtual clock every iteration advances time strictly. Fails only
/// on cooperative cancellation through `hooks.progress`.
StatusOr<ShardRun> run_shard(const ServiceModel& service,
                             const FleetOptions& options,
                             const ElasticSpec& elastic,
                             const ShardElasticPlan& plan, int shard_index,
                             std::uint64_t sketch_seed, Clock& clock,
                             RequestSource& source, const ShardHooks& hooks);

/// Everything one sharded replay runs on.
struct ReplayPlan {
  FleetOptions options;
  ElasticSpec elastic;
  std::vector<ShardElasticPlan> plans;
  int provisioned_total = 0;
  /// Binds checkpoints to the run; derives the sketch seed in sketch mode.
  std::string fingerprint;
  std::uint64_t sketch_seed = 0;
  /// The shard range this process runs and reports: [shard_lo, shard_hi).
  int shard_lo = 0;
  int shard_hi = 0;
  std::int64_t offered = 0;  ///< progress-tick denominator
  ShardHooks hooks;          ///< admission settings (progress is set per run)
};

/// Elastic plans and the full shard range for `options` (already
/// validated by resolved_fleet_options).
StatusOr<ReplayPlan> plan_replay(const ServeSpec& spec,
                                 const FleetOptions& options);

/// Opens shard `shard`'s arrival feed.
using OpenShard =
    std::function<StatusOr<std::unique_ptr<RequestSource>>(int shard)>;

/// The one replay body. Reloads the owned shards a matching checkpoint
/// already holds, runs the rest, rewrites the checkpoint after every
/// finished shard, and folds the owned shards into ServingStats (with the
/// terminal progress tick when `scope` observes). `shed`, when set,
/// receives the summed admission rejections.
StatusOr<ServingStats> run_replay(const ServiceModel& service,
                                  const ReplayPlan& plan,
                                  const OpenShard& open_shard,
                                  const util::RunScope* scope,
                                  std::int64_t* shed = nullptr);

/// simulate_fleet's replay of a materialized trace, shared with
/// Daemon::run_trace: user u -> shard u mod S, arrival order kept per shard
/// (stable-sorted when the trace is not already sorted), fingerprinted when
/// a checkpoint or sketch mode needs it, then run_replay.
StatusOr<ServingStats> replay_trace(const ServiceModel& service,
                                    const std::vector<Request>& trace,
                                    const ServeSpec& spec,
                                    const FleetOptions& options,
                                    const ShardHooks& hooks,
                                    const util::RunScope* scope,
                                    std::int64_t* shed = nullptr);

/// Fingerprint of a streaming replay: a pure function of the service, the
/// workload and scenario parameters, and the result-affecting options.
std::string stream_fingerprint(const ServiceModel& service,
                               const WorkloadOptions& workload,
                               const FleetOptions& options,
                               const ScenarioSpec& scenario,
                               const ElasticSpec& elastic);

/// Loads the finished-shard slots of a binary v3 checkpoint and returns
/// how many it held. Any mismatch (magic, version, fingerprint, shard
/// count) or torn content rejects the file wholesale: 0, `slots` untouched.
int load_checkpoint(const std::string& path, const std::string& fingerprint,
                    std::vector<std::optional<ShardStats>>& slots);

}  // namespace fcad::serving
