#include "probes.hpp"

#include <cmath>

#include "daemon_ops.hpp"
#include "serving/sketch.hpp"
#include "serving/stats.hpp"
#include "serving/stream.hpp"
#include "serving/workload.hpp"

namespace perfbench {
namespace {

using namespace fcad;
using namespace fcad::serving;

constexpr std::int64_t kProbeRequests = 100000;

/// Latency-like samples for the sketch and summarize probes: log-uniform
/// over 1 ms .. 20 ms, in microseconds.
std::vector<double> synthetic_latencies(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(kProbeRequests);
  for (double& v : out) v = 1000.0 * std::exp(3.0 * rng.next_double());
  return out;
}

}  // namespace

bool ReplayPairs::run(const ServiceModel& service, const ServeSpec& spec,
                      const std::string& work_dir, Report& report) {
  const std::int64_t target = spec.workload.target_requests;
  StatusOr<ServingStats> library = Status::internal("not run");
  EngineReplay driven;
  if (spec.fleet.latency_mode == LatencyMode::kSketch) {
    StreamOp op = run_stream_op(service, spec, work_dir, report);
    if (!op.ok) return false;
    library_ms.push_back(op.wall_ms);
    checkpoint_merge_ms.push_back(op.merge_ms);
    library = std::move(op.merged);
    driven = drive_fleet_stream(service, spec);
  } else {
    const SteadyTime t0 = now();
    library = simulate_fleet(service, spec);
    library_ms.push_back(ms_between(t0, now()));
    driven = drive_fleet_engine(service, spec, latencies.empty());
  }
  driven_ms.push_back(driven.wall_ms);
  if (!check_replay(library, target, "library replay", report) ||
      !check_replay(driven.stats, target, "driven FleetEngine replay",
                    report)) {
    return false;
  }
  if (!report.check(same_stats(*library, *driven.stats),
                    "driven FleetEngine loop differs from the library replay")) {
    return false;
  }
  ++pairs;
  generate_ms += driven.generate_ms;
  merge_ms += driven.merge_ms;
  covered_ms += driven.covered_ms();
  wall_ms += driven.wall_ms;
  times.add(driven.times);
  fill_sum += driven.stats->mean_batch_fill;
  depth_sum += driven.stats->mean_queue_depth;
  scale_events += static_cast<double>(driven.stats->scale_up_events +
                                      driven.stats->scale_down_events);
  if (latencies.empty()) latencies = std::move(driven.latencies);
  return true;
}

void ReplayPairs::emit(LayerTable& layers) const {
  if (pairs == 0 || times.requests == 0) return;
  const double requests = static_cast<double>(times.requests);
  const double n = pairs;
  if (generate_ms > 0) {
    layers.set("serving.workload.generate_ns_per_req",
               generate_ms * 1e6 / requests);
  }
  if (times.pulled > 0) {
    layers.set("serving.stream.next_ns_per_req",
               times.stream_ns / static_cast<double>(times.pulled));
  }
  if (!checkpoint_merge_ms.empty()) {
    layers.set("serving.fleet.checkpoint_merge_ms", mean(checkpoint_merge_ms));
  }
  layers.set("serving.engine.enqueue_ns_per_req", times.enqueue_ns / requests);
  layers.set("serving.engine.dispatch_ns_per_req",
             times.dispatch_ns / requests);
  layers.set("serving.engine.advance_ns_per_req", times.advance_ns / requests);
  layers.set("serving.fleet.merge_shard_stats_ms", merge_ms / n);
  layers.set("serving.replay.span_coverage", covered_ms / wall_ms);
  layers.set("serving.batch_fill_mean", fill_sum / n);
  layers.set("serving.queue_depth_mean", depth_sum / n);
  layers.set("serving.elastic.scale_events", scale_events / n);
  const double library = percentile(library_ms, 50);
  if (library > 0) {
    layers.set("trace.overhead_pct",
               (percentile(driven_ms, 50) / library - 1) * 100);
  }
  if (!latencies.empty()) {
    const SteadyTime t0 = now();
    keep(summarize(latencies).p99);
    layers.set("serving.stats.summarize_ms", ms_between(t0, now()));
  }
}

void fill_missing_layers(const Args& args, const ServingDesign& design,
                         LayerTable& layers, Report& report) {
  const int threads = bench_threads();
  const ServiceModel& service = design.service;
  const auto missing = [&](const char* name) { return !layers.has(name); };

  if (missing("sim.simulate_ms")) {
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      const SteadyTime t0 = now();
      const Status s = design.pipeline->simulate();
      ms.push_back(ms_between(t0, now()));
      report.check(s.is_ok(), "probe simulate: " + s.message());
    }
    layers.set("sim.simulate_ms", mean(ms));
  }
  if (missing("dse.in_branch.ns_per_call")) {
    run_dse_probes(last_capture(), threads, layers);
  }

  ReplayPairs pairs;
  if (missing("serving.engine.enqueue_ns_per_req")) {
    for (int i = 0; i < 3; ++i) {
      report.op(pairs.run(
          service,
          exact_replay_spec(mix_seed(args.seed, 900 + i), kProbeRequests,
                            threads),
          args.work_dir, report));
    }
    LayerTable probe;
    pairs.emit(probe);
    for (const LayerMetricSpec& spec : layer_metric_specs()) {
      if (probe.has(spec.name) && missing(spec.name)) {
        layers.set(spec.name, probe.get(spec.name));
      }
    }
  }
  if (missing("serving.fleet.checkpoint_merge_ms")) {
    const StreamOp op = run_stream_op(
        service,
        stream_replay_spec(mix_seed(args.seed, 910), kProbeRequests, threads),
        args.work_dir, report);
    report.op(op.ok);
    layers.set("serving.fleet.checkpoint_merge_ms", op.merge_ms);
  }
  if (missing("serving.stream.next_ns_per_req")) {
    WorkloadOptions workload =
        stream_replay_spec(mix_seed(args.seed, 920), kProbeRequests, threads)
            .workload;
    workload.branches = service.num_branches();
    auto stream = make_request_stream(
        workload,
        stream_replay_spec(args.seed, kProbeRequests, threads).scenario);
    if (report.check(stream.is_ok(), "probe stream: " + stream.status().message())) {
      std::int64_t count = 0;
      const SteadyTime t0 = now();
      while ((*stream)->next()) ++count;
      layers.set("serving.stream.next_ns_per_req",
                 ns_between(t0, now()) / static_cast<double>(std::max<std::int64_t>(count, 1)));
      report.check(count == kProbeRequests, "probe stream ended early");
    }
  }
  if (missing("serving.workload.generate_ns_per_req")) {
    WorkloadOptions workload =
        exact_replay_spec(mix_seed(args.seed, 930), kProbeRequests, threads)
            .workload;
    workload.branches = service.num_branches();
    const SteadyTime t0 = now();
    auto requests = generate_workload(workload);
    layers.set("serving.workload.generate_ns_per_req",
               ns_between(t0, now()) / static_cast<double>(kProbeRequests));
    report.check(requests.is_ok(), "probe generate_workload");
  }

  // Batcher and dispatcher at both fleet sizes: the replay fleet's own
  // overloaded traffic, and the daemon fleet at its reference rate.
  {
    WorkloadOptions workload =
        exact_replay_spec(mix_seed(args.seed, 940), kProbeRequests, threads)
            .workload;
    workload.branches = service.num_branches();
    auto replay_trace = generate_workload(workload);
    if (report.check(replay_trace.is_ok(), "probe replay trace")) {
      const QueueProbe k8 = probe_batcher_dispatch(
          service, *replay_trace, 8, FleetOptions{}.batch_timeout_us);
      layers.set("serving.batcher.enqueue_ns.k8", k8.enqueue_ns);
      layers.set("serving.batcher.pop_ready_ns.k8", k8.pop_ready_ns);
      layers.set("serving.batcher.ready_branch_ns.k8", k8.ready_branch_ns);
      layers.set("serving.dispatch.pick_ns.k8", k8.pick_ns);
    }
    const std::vector<Request> daemon_trace = poisson_arrivals(
        kDaemonReferenceRps, kProbeRequests / kDaemonReferenceRps,
        mix_seed(args.seed, 950), service.num_branches());
    const QueueProbe k4096 = probe_batcher_dispatch(
        service, daemon_trace, kDaemonInstances, kDaemonBatchTimeoutUs);
    layers.set("serving.batcher.enqueue_ns.k4096", k4096.enqueue_ns);
    layers.set("serving.batcher.pop_ready_ns.k4096", k4096.pop_ready_ns);
    layers.set("serving.batcher.ready_branch_ns.k4096", k4096.ready_branch_ns);
    layers.set("serving.dispatch.pick_ns.k4096", k4096.pick_ns);
  }

  if (missing("serving.sketch.add_ns")) {
    const std::vector<double> samples =
        synthetic_latencies(mix_seed(args.seed, 960));
    QuantileSketch sketch(args.seed);
    constexpr std::int64_t kAdds = 2000000;
    const SteadyTime t0 = now();
    for (std::int64_t i = 0; i < kAdds; ++i) {
      sketch.add(samples[static_cast<std::size_t>(i) % samples.size()]);
    }
    layers.set("serving.sketch.add_ns",
               ns_between(t0, now()) / static_cast<double>(kAdds));
    keep(sketch.count());
  }
  if (missing("serving.stats.summarize_ms")) {
    const std::vector<double> samples =
        synthetic_latencies(mix_seed(args.seed, 970));
    const SteadyTime t0 = now();
    keep(summarize(samples).p99);
    layers.set("serving.stats.summarize_ms", ms_between(t0, now()));
  }

  if (missing("serving.daemon.run_trace_ns_per_req")) {
    const std::vector<Request> trace = poisson_arrivals(
        kDaemonReferenceRps, kProbeRequests / kDaemonReferenceRps,
        mix_seed(args.seed, 980), service.num_branches());
    const Daemon daemon(service, daemon_spec(ClockKind::kVirtual));
    const SteadyTime t0 = now();
    auto result = daemon.run_trace(trace);
    layers.set("serving.daemon.run_trace_ns_per_req",
               ns_between(t0, now()) / static_cast<double>(trace.size()));
    report.op(check_replay(
                  result.is_ok() ? StatusOr<ServingStats>(result->stats)
                                 : StatusOr<ServingStats>(result.status()),
                  static_cast<std::int64_t>(trace.size()), "probe run_trace",
                  report) &&
              report.check(result->shed == 0, "probe run_trace shed requests"));
  }
  if (missing("serving.daemon.generator_lag_ms")) {
    // A short live session at the reference rate.
    auto live = LiveDaemon::start(service, args.work_dir + "/probe.sock",
                                  kProbeRequests);
    if (report.check(live.is_ok(), "probe daemon: " + live.status().message())) {
      const double duration_s = 0.5;
      const std::vector<Request> arrivals =
          poisson_arrivals(kDaemonReferenceRps, duration_s,
                           mix_seed(args.seed, 990), service.num_branches());
      const StepResult step =
          (*live)->run_step(arrivals, duration_s, kDaemonGraceMs);
      auto stopped = (*live)->stop();
      for (std::int64_t i = 0; i < step.sent; ++i) {
        report.op(i < step.ok);
      }
      report.check(step.ok == static_cast<std::int64_t>(arrivals.size()),
                   "probe daemon: not every request answered ok");
      report.check(stopped.is_ok(), "probe daemon stop");
      layers.set("serving.daemon.generator_lag_ms", step.lag_p99_ms);
      layers.set("serving.daemon.backlog", static_cast<double>(step.backlog));
    }
  }
}

}  // namespace perfbench
