// The serving side as the benchmark drives it: the served design, the two
// replay specs, the documented FleetEngine loop driven per shard from
// outside the library, the two-process streaming replay, and standalone
// replays of the batcher and dispatcher.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "serving/fleet.hpp"
#include "serving/service.hpp"

#include "bench.hpp"
#include "dse_ops.hpp"

namespace perfbench {

/// The design every serving workload serves (serving_design_spec on the
/// ZU9CG budget) and what building it cost.
struct ServingDesign {
  std::unique_ptr<fcad::core::Pipeline> pipeline;
  fcad::serving::ServiceModel service;
  double reorganize_ms = 0;  ///< graph build + analysis + arch::reorganize
  double search_ms = 0;      ///< the one hardware search
  fcad::dse::SearchTrace trace;
};
fcad::StatusOr<ServingDesign> build_serving_design(
    int threads, const std::string& strategy);

/// replay_exact: 8 users, 8 instances, 8 shards, least-loaded, Poisson,
/// exact latency accounting (the BENCH_serving.json shape).
fcad::serving::ServeSpec exact_replay_spec(std::uint64_t seed,
                                           std::int64_t requests, int threads);

/// replay_stream: the same fleet under a diurnal cycle plus a flash crowd,
/// autoscaled up to 16 instances, sketch accounting, run as two processes'
/// shard ranges of 8 shards.
fcad::serving::ServeSpec stream_replay_spec(std::uint64_t seed,
                                            std::int64_t requests,
                                            int threads);

/// Wall time spent in each layer call of a driven replay's shard loops.
struct EngineTimes {
  double enqueue_ns = 0;   ///< FleetEngine::enqueue and close
  double dispatch_ns = 0;  ///< FleetEngine::dispatch_ready
  double advance_ns = 0;   ///< next_event_us + advance_to
  double stream_ns = 0;    ///< RequestStream::next (streaming replays)
  std::int64_t pulled = 0;  ///< requests RequestStream::next returned
  double loop_ns = 0;       ///< the shard loops, from first to last call
  std::int64_t requests = 0;

  double spans_ns() const {
    return enqueue_ns + dispatch_ns + advance_ns + stream_ns;
  }
  void add(const EngineTimes& t) {
    enqueue_ns += t.enqueue_ns;
    dispatch_ns += t.dispatch_ns;
    advance_ns += t.advance_ns;
    stream_ns += t.stream_ns;
    pulled += t.pulled;
    loop_ns += t.loop_ns;
    requests += t.requests;
  }
};

/// When one shard's loop ran.
struct ShardSpan {
  SteadyTime start;
  SteadyTime end;
};

/// One replay of a spec through the benchmark's own per-shard FleetEngine
/// loop (the loop engine.hpp documents), with spans around generation,
/// partition, every engine call and stream pull, and merge_shard_stats.
struct EngineReplay {
  fcad::StatusOr<fcad::serving::ServingStats> stats =
      fcad::Status::internal("not run");
  double wall_ms = 0;
  double generate_ms = 0;   ///< materialized replays only
  double partition_ms = 0;  ///< shard partition and elastic plan
  double busy_ms = 0;       ///< time in which at least one shard loop ran
  double merge_ms = 0;
  EngineTimes times;
  /// Every request's latency in shard order (only when asked for).
  std::vector<double> latencies;

  /// Wall time the layer spans account for: the serial spans, plus the
  /// busy part of the shard phase in the share of shard-loop time that
  /// the engine calls and stream pulls took.
  double covered_ms() const {
    const double share = times.loop_ns > 0 ? times.spans_ns() / times.loop_ns : 0;
    return generate_ms + partition_ms + busy_ms * share + merge_ms;
  }
};

/// An exact-mode replay of `spec` over the materialized workload,
/// partitioned as simulate_fleet partitions it.
EngineReplay drive_fleet_engine(const fcad::serving::ServiceModel& service,
                                const fcad::serving::ServeSpec& spec,
                                bool keep_latencies);

/// Processes the replay_stream operation splits its shards over.
inline constexpr int kStreamProcesses = 2;

/// A streaming replay of `spec` as kStreamProcesses simulate_fleet_stream
/// processes run it: each process's shard range in turn, every shard
/// pulling the full request stream and keeping its own users. Its stats
/// equal the merge of the processes' checkpoints.
EngineReplay drive_fleet_stream(const fcad::serving::ServiceModel& service,
                                const fcad::serving::ServeSpec& spec);

/// Bit-level comparison of two replays' stats (their full text form).
bool same_stats(const fcad::serving::ServingStats& a,
                const fcad::serving::ServingStats& b);

/// The replay_stream operation: each of kStreamProcesses processes replays
/// its range of the shards into a checkpoint under `work_dir`, and
/// merge_replay_checkpoints folds them.
struct StreamOp {
  bool ok = false;
  double wall_ms = 0;
  double merge_ms = 0;    ///< merge_replay_checkpoints
  fcad::serving::ServingStats merged;
};
StreamOp run_stream_op(const fcad::serving::ServiceModel& service,
                       const fcad::serving::ServeSpec& spec,
                       const std::string& work_dir, Report& report);

/// Checks a finished replay: completed == offered == target.
bool check_replay(const fcad::StatusOr<fcad::serving::ServingStats>& stats,
                  std::int64_t target, const std::string& what,
                  Report& report);

/// Per-call cost of the batcher and dispatcher, replaying `trace` through a
/// BatchAggregator and a least-loaded Dispatcher of `instances` instances
/// (dispatching on arrivals only), clock overhead subtracted.
struct QueueProbe {
  double enqueue_ns = 0;
  double pop_ready_ns = 0;
  double ready_branch_ns = 0;
  double pick_ns = 0;
};
QueueProbe probe_batcher_dispatch(
    const fcad::serving::ServiceModel& service,
    const std::vector<fcad::serving::Request>& trace, int instances,
    double batch_timeout_us);

}  // namespace perfbench
