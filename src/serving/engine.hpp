// The event-driven serving engine behind the one shard driver (driver.hpp)
// that the offline fleet replay and the online daemon share: per-branch batch
// aggregation, free-instance dispatch, and exact latency/SLA accounting for
// one shard, all driven through an injected serving::Clock. Decisions are
// functions of clock readings only, so the same trace produces identical
// per-request records under VirtualClock (replay) and under the daemon —
// the parity contract pinned by tests/daemon_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "obs/trace.hpp"
#include "serving/batcher.hpp"
#include "serving/clock.hpp"
#include "serving/dispatch.hpp"
#include "serving/service.hpp"
#include "serving/sketch.hpp"
#include "serving/stats.hpp"

namespace fcad::serving {

class ElasticController;

/// Why an instance joined or left the active set — selects the counter and
/// trace-instant name recorded for the transition.
enum class ElasticReason { kScaleUp, kScaleDown, kFault, kRecover };

/// Virtual-time lanes: shard event loops sit at tid = shard index, instance
/// timelines at tid = 1000 + global instance id, so Perfetto renders shards
/// first and instances below them, in stable structural order.
obs::LaneId shard_lane(int shard_index);
obs::LaneId instance_lane(int global_instance);

/// Raw accumulation streams of one shard's event loop, merged across shards
/// in shard-index order (concatenation, sums, maxima) — the merge is a pure
/// function of the per-shard results, which is what makes the replay
/// bit-identical for any thread count and resumable from a checkpoint.
struct ShardStats {
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t batches = 0;
  std::int64_t sla_violations = 0;
  int max_queue_depth = 0;
  double fill_sum = 0;
  double depth_integral_us = 0;
  double makespan_us = 0;
  /// Exact mode: the full per-request streams. Sketch mode: both vectors
  /// stay empty and the two sketches below carry the distributions in O(1)
  /// memory per shard.
  std::vector<double> latencies;
  std::vector<double> waits;
  LatencyMode latency_mode = LatencyMode::kExact;
  QuantileSketch latency_sketch;
  QuantileSketch wait_sketch;
  std::vector<std::int64_t> branch_completed;
  /// Per-instance counters with *global* instance ids; utilization is
  /// filled at merge time (it depends on the global makespan).
  std::vector<InstanceStats> instances;
  std::vector<RequestRecord> records;
  /// Elastic-policy transitions observed by this shard (all zero on a
  /// static fleet).
  std::int64_t scale_up_events = 0;
  std::int64_t scale_down_events = 0;
  std::int64_t reshard_splits = 0;
  std::int64_t fault_events = 0;
  std::int64_t recover_events = 0;
};

/// One shard's serving engine. The caller owns the event loop: it decides
/// when to enqueue arrivals, when to dispatch, and how far to advance the
/// clock — the engine keeps the aggregation/dispatch/accounting state and
/// never reads a time source other than the injected clock.
///
/// The canonical loop is run_shard in driver.cpp — the one driver every
/// replay, daemon trace, and live session runs its shards through:
///   while (work remains) {
///     enqueue every arrival due by now_us();     // or shed at admission
///     close() after the last arrival;
///     dispatch_ready();
///     t = min(next arrival, next_event_us());
///     advance_to(t);                             // jumps or really sleeps
///   }
struct FleetEngineConfig {
  DispatchPolicy policy{};
  double batch_timeout_us = 4000;
  double switch_penalty_us = 0;
  double sla_bound_us = 33333.3;
  double progress_tail_pct = 99;
  bool keep_records = false;
  int shard_index = 0;     ///< obs shard lane (tid = shard index)
  int first_instance = 0;  ///< global id of this engine's first instance
  int instances = 1;       ///< provisioned slice size (active + headroom)
  /// Instances active at time 0 (< 0 means all of them). The remainder of
  /// the provisioned slice is the elastic layer's scale-up headroom.
  int initial_active = -1;
  /// Cap on the user-range cells dynamic resharding may split this shard
  /// into (1 = the classic single-aggregator shard).
  int max_cells = 1;
  /// Upper bound on requests this engine will see (TailTracker sizing and
  /// stream reservations). Live daemons pass a generous cap.
  std::int64_t expected_requests = 0;
  /// kSketch replaces the exact latency/wait streams (and the TailTracker)
  /// with bounded-memory quantile sketches seeded by `sketch_seed` — the
  /// billion-request mode. The default keeps today's exact accounting.
  LatencyMode latency_mode = LatencyMode::kExact;
  std::uint64_t sketch_seed = 0;
};

class FleetEngine {
 public:
  /// Invoked once per dispatched batch, after the engine's own accounting.
  /// The replay counts global progress here; the daemon answers clients and
  /// feeds its rolling-p99 admission window.
  using BatchHook = std::function<void(const Batch& batch, int instance,
                                       double dispatch_us, double finish_us)>;

  /// `service` must outlive the engine.
  FleetEngine(const ServiceModel& service, const FleetEngineConfig& config,
              Clock* clock);

  double now_us() { return clock_->now_us(); }
  Clock& clock() { return *clock_; }

  void set_batch_hook(BatchHook hook) { batch_hook_ = std::move(hook); }

  /// Feeds completion latencies to the elastic controller's reshard
  /// trigger; the controller must outlive the engine's event loop.
  void set_controller(ElasticController* controller) {
    controller_ = controller;
  }

  /// Moves `local_instance` in or out of the dispatchable set at the
  /// current clock reading, bumping the counter and emitting the trace
  /// instant `reason` selects. A deactivated busy instance finishes its
  /// batch in flight and then idles.
  void set_instance_active(int local_instance, bool on, ElasticReason reason);

  int active_instances() const;
  double total_busy_us() const;
  int num_cells() const { return static_cast<int>(cells_.size()); }

  /// Splits the splittable cell with the most pending work at the midpoint
  /// of its observed user-id range; future arrivals for the upper half
  /// route to the new cell (pending requests stay put — no migration, so
  /// the split is a pure function of shard state). Returns false when no
  /// cell has seen two distinct users or the max_cells cap is reached.
  bool try_split_cell();

  /// Admits one request into its branch queue at the current clock reading.
  /// `r.arrival_us` must not be in the engine's future relative to earlier
  /// events (arrivals are ingested in time order).
  void enqueue(const Request& r);

  /// Declares the arrival stream finished; the batcher then drains its tail
  /// on the timeout schedule (immediately when no timeout is configured).
  void close();
  bool closed() const { return closed_; }

  /// Dispatches every ready batch a free instance exists for, at the
  /// current clock reading.
  void dispatch_ready();

  /// Next engine-internal event: an instance freeing up when a batch is
  /// ready, else the earliest batching deadline, else +infinity. The caller
  /// merges in its own next-arrival time.
  double next_event_us();

  /// Advances the clock to `t_us` (instant under VirtualClock, a real —
  /// wake()-interruptible — sleep under SteadyClock) and accounts queue
  /// depth over the actually elapsed span.
  void advance_to(double t_us);

  /// True once the stream is closed and every admitted request dispatched.
  bool drained() const { return closed_ && pending() == 0; }

  std::size_t pending() const {
    std::size_t total = 0;
    for (const Cell& cell : cells_) total += cell.agg.pending();
    return total;
  }
  std::int64_t completed() const { return stats_.completed; }
  const TailTracker& tail() const { return tail_; }
  /// Partial progress-tail estimate over completions so far: the exact
  /// TailTracker value in exact mode, the sketch quantile in sketch mode
  /// (where the tracker is disabled to keep memory bounded).
  double partial_tail() const;
  const ShardStats& stats() const { return stats_; }

  /// Finalizes per-instance counters and the shard overview trace span,
  /// then moves the accumulated streams out. Call once, after the loop.
  ShardStats take_stats();

 private:
  /// One user-range slice of the shard: users in [lo, next cell's lo) route
  /// here. min/max_seen track the observed id range so a split lands at its
  /// midpoint.
  struct Cell {
    int lo;
    int min_seen;
    int max_seen;
    BatchAggregator agg;
  };

  Cell& route(int user);

  const ServiceModel& service_;
  FleetEngineConfig config_;
  Clock* clock_;
  obs::Tracer* tracer_;
  std::vector<Cell> cells_;
  Dispatcher dispatcher_;
  TailTracker tail_;
  ShardStats stats_;
  BatchHook batch_hook_;
  ElasticController* controller_ = nullptr;
  bool closed_ = false;
  double first_arrival_us_;
};

/// Index-ordered merge of per-shard streams into the final ServingStats:
/// concatenation and sums over shards 0..S-1, utilization filled from the
/// global makespan — a pure function of the shard results, never of thread
/// timing. Takes the shards by value: the exact-mode latency/wait/record
/// streams are appended in one pre-sized pass and each source freed as it
/// is consumed, so peak memory stays ~1x the merged streams instead of 2x.
/// In sketch mode the per-shard sketches fold instead (order-independent,
/// byte-stable). Also exports the obs metrics for the run (request/batch/
/// SLA counters always; histograms and gauges under
/// obs::metrics_collection(); sketch counters in sketch mode).
ServingStats merge_shard_stats(std::vector<ShardStats> shards,
                               const ServiceModel& service,
                               double sla_bound_us, int total_instances,
                               int resumed_shards);

}  // namespace fcad::serving
