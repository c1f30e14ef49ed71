#include "layers.hpp"

namespace perfbench {

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"arch.reorganize_ms", "ms"},
      {"dse.search_ms", "ms"},
      {"sim.simulate_ms", "ms"},
      {"dse.strategy.propose_ms", "ms"},
      {"dse.strategy.accept_ms", "ms"},
      {"dse.eval_phase_ms", "ms"},
      {"dse.span_coverage", "ratio"},
      {"dse.evaluations", "count"},
      {"dse.fitness_cache.hit_ratio", "ratio"},
      {"dse.fitness_cache.lookups", "count"},
      {"dse.evaluate_distribution.serial_us", "us"},
      {"dse.in_branch.ns_per_call", "ns"},
      {"arch.evaluate.ns_per_call", "ns"},
      {"arch.unit_resources.ns_per_call", "ns"},
      {"arch.get_pf.ns_per_call", "ns"},
      {"arch.get_pf.contended_ns_per_call", "ns"},
      {"arch.get_pf.contention_ratio", "ratio"},
      {"util.thread_pool.fanout_us", "us"},
      {"util.thread_pool.parallel_efficiency", "ratio"},
      {"util.thread_pool.thread_ms", "ms"},
      {"serving.workload.generate_ns_per_req", "ns"},
      {"serving.stream.next_ns_per_req", "ns"},
      {"serving.engine.enqueue_ns_per_req", "ns"},
      {"serving.engine.dispatch_ns_per_req", "ns"},
      {"serving.engine.advance_ns_per_req", "ns"},
      {"serving.batcher.enqueue_ns.k8", "ns"},
      {"serving.batcher.pop_ready_ns.k8", "ns"},
      {"serving.batcher.ready_branch_ns.k8", "ns"},
      {"serving.dispatch.pick_ns.k8", "ns"},
      {"serving.batcher.enqueue_ns.k4096", "ns"},
      {"serving.batcher.pop_ready_ns.k4096", "ns"},
      {"serving.batcher.ready_branch_ns.k4096", "ns"},
      {"serving.dispatch.pick_ns.k4096", "ns"},
      {"serving.sketch.add_ns", "ns"},
      {"serving.stats.summarize_ms", "ms"},
      {"serving.fleet.merge_shard_stats_ms", "ms"},
      {"serving.fleet.checkpoint_merge_ms", "ms"},
      {"serving.replay.span_coverage", "ratio"},
      {"serving.daemon.run_trace_ns_per_req", "ns"},
      {"serving.daemon.generator_lag_ms", "ms"},
      {"serving.daemon.backlog", "count"},
      {"serving.batch_fill_mean", "ratio"},
      {"serving.queue_depth_mean", "count"},
      {"serving.elastic.scale_events", "count"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

double LayerTable::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void LayerTable::emit(Report& report) const {
  for (const LayerMetricSpec& spec : layer_metric_specs()) {
    report.check(has(spec.name),
                 std::string("per-layer metric not measured: ") + spec.name);
    report.metric(spec.name, get(spec.name), spec.unit);
  }
  // The spans must account for the time they claim to explain.
  for (const char* coverage : {"dse.span_coverage",
                               "serving.replay.span_coverage"}) {
    report.check(get(coverage) >= kMinSpanCoverage,
                 std::string(coverage) + " below 0.9: " +
                     format_double(get(coverage)));
  }
}

}  // namespace perfbench
