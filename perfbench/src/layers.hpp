// Per-layer measurements of one traced run. Every traced run reports the
// same fixed list of per-layer metrics (the `per_layer` list of
// BENCHMARK.json): layers the workload's own operations pass through are
// timed inside those operations; the others are timed by short standalone
// probes on inputs made from the same seed (probes.hpp).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Share of a timed call that its child spans must cover.
inline constexpr double kMinSpanCoverage = 0.9;

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer metrics, in output order.
const std::vector<LayerMetricSpec>& layer_metric_specs();

class LayerTable {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const;
  /// Emits every metric of layer_metric_specs(); one that no operation or
  /// probe measured, or a span coverage under kMinSpanCoverage, fails the
  /// run's checks.
  void emit(Report& report) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench
