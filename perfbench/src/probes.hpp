// Standalone layer probes: every traced run reports every per-layer metric,
// so layers that the workload's own operations do not pass through are
// timed here, on small inputs made from the run's seed.
#pragma once

#include "bench.hpp"
#include "layers.hpp"
#include "serving_ops.hpp"

namespace perfbench {

/// Measures every per-layer metric `layers` does not hold yet. `design` is
/// the served design (its pipeline simulates for sim.simulate_ms); the DSE
/// replays use the most recent recorder search.
void fill_missing_layers(const Args& args, const ServingDesign& design,
                         LayerTable& layers, Report& report);

/// Pairs of (library call, benchmark-driven FleetEngine loop) on one
/// replay spec each, recording the engine, stream, merge, summarize,
/// coverage, parity and overhead metrics — the traced replay operation,
/// also used as a probe. An exact spec pairs simulate_fleet with
/// drive_fleet_engine; a sketch spec pairs the two-process run_stream_op
/// with drive_fleet_stream.
struct ReplayPairs {
  std::vector<double> library_ms;
  std::vector<double> driven_ms;
  std::vector<double> checkpoint_merge_ms;  ///< sketch specs only
  double generate_ms = 0;
  double merge_ms = 0;
  double covered_ms = 0;
  double wall_ms = 0;
  EngineTimes times;
  double fill_sum = 0;
  double depth_sum = 0;
  double scale_events = 0;
  std::vector<double> latencies;  ///< of the first exact driven replay
  int pairs = 0;

  /// One pair on `spec`; false when a replay failed or parity broke.
  /// Checkpoints of sketch specs go under `work_dir`.
  bool run(const fcad::serving::ServiceModel& service,
           const fcad::serving::ServeSpec& spec, const std::string& work_dir,
           Report& report);
  void emit(LayerTable& layers) const;
};

}  // namespace perfbench
