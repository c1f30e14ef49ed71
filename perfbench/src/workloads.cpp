#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "daemon_ops.hpp"
#include "dse/strategy.hpp"
#include "dse_ops.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "serving/daemon.hpp"
#include "serving_ops.hpp"

namespace perfbench {
namespace {

using namespace fcad;
using namespace fcad::serving;

/// Setups per run, and the set-up time budget: a run sets up at least
/// kMinSetups times and repeats while the setups so far took under
/// kSetupBudgetS, so a cheap setup is sampled thousands of times;
/// kMaxSetups only bounds the sample vectors. setup_s is the median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 100000;
constexpr double kSetupBudgetS = 0.5;

/// Whether to set up once more, with `budget_ms` of set-up time allowed
/// so far.
bool more_setups(const std::vector<double>& setup_ms, double budget_ms) {
  double total_ms = 0;
  for (double ms : setup_ms) total_ms += ms;
  const int done = static_cast<int>(setup_ms.size());
  return done < kMinSetups || (done < kMaxSetups && total_ms < budget_ms);
}

/// Operations a run makes at least, so the p90 tail has ten samples past
/// it, and the wall-clock cap that keeps a run well inside 180 s.
constexpr int kMinOps = 100;
constexpr double kCapSeconds = 120;
/// Requests per replay operation.
constexpr std::int64_t kReplayRequests = 100000;

struct EndToEnd {
  double setup_s = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  double ops_per_s = 0;
  double modelled_rate = 0;
};

void emit_end_to_end(Report& report, const EndToEnd& e) {
  report.metric("setup_s", e.setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("p50_ms", e.p50_ms, "ms");
  report.metric("tail_ms", e.tail_ms, "ms");
  report.metric("ops_per_s", e.ops_per_s, "1/s");
  report.metric("modelled_rate", e.modelled_rate, "1/s");
}

/// Closed loop: keeps calling `op(k)` until `seconds` have passed
/// and at least `min_ops` ran (never past kCapSeconds).
template <typename Op>
double run_loop(double seconds, int min_ops, Op&& op) {
  const SteadyTime t0 = now();
  for (int k = 0;; ++k) {
    const double elapsed = ms_between(t0, now()) / 1e3;
    if ((elapsed >= seconds && k >= min_ops) || elapsed >= kCapSeconds) break;
    op(k);
  }
  return ms_between(t0, now()) / 1e3;
}

/// snprintf into a string (the human-readable lines).
template <typename... T>
std::string fmt(const char* format, T... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

/// A replay workload's end-to-end figures: operation latency, simulated
/// requests per host second of all replay calls, and the mean simulated
/// throughput of the successful ones.
EndToEnd replay_end_to_end(double setup_s, const std::vector<double>& op_ms,
                           const std::vector<double>& modelled) {
  double total_ms = 0;
  for (double ms : op_ms) total_ms += ms;
  EndToEnd e;
  e.setup_s = setup_s;
  e.p50_ms = percentile(op_ms, 50);
  e.tail_ms = percentile(op_ms, 90);
  e.ops_per_s = static_cast<double>(kReplayRequests) *
                static_cast<double>(modelled.size()) / (total_ms / 1e3);
  e.modelled_rate = mean(modelled);
  return e;
}

// ------------------------------------------------------------- serving --

struct ServingSetup {
  ServingDesign design;
  std::unique_ptr<LiveDaemon> live;
  double setup_s = 0;
  SearchSpans spans;
  std::vector<double> reorganize_ms;
};

/// Repeated setup (more_setups, up front): graph build + arch::reorganize + the one
/// hardware search, plus the daemon bind when `daemon_requests` > 0 (the
/// session's request cap); the last setup is kept.
bool serving_setup(const Args& args, std::int64_t daemon_requests,
                   ServingSetup& setup, Report& report) {
  const std::string strategy =
      args.trace ? recorder_strategy() : std::string(dse::kDefaultStrategy);
  std::vector<double> setup_ms;
  while (more_setups(setup_ms, kSetupBudgetS * 1e3)) {
    if (setup.live) {
      auto stopped = setup.live->stop();
      report.check(stopped.is_ok(), "setup daemon stop");
      setup.live.reset();
    }
    const SteadyTime t0 = now();
    auto design = build_serving_design(bench_threads(), strategy);
    if (!report.check(design.is_ok(),
                      "served design: " + design.status().message())) {
      return false;
    }
    setup.design = std::move(design).value();
    if (daemon_requests > 0) {
      auto live = LiveDaemon::start(setup.design.service,
                                    args.work_dir + "/daemon.sock",
                                    daemon_requests);
      if (!report.check(live.is_ok(), "daemon: " + live.status().message())) {
        return false;
      }
      setup.live = std::move(live).value();
    }
    setup_ms.push_back(ms_between(t0, now()));
    if (args.trace) {
      setup.spans.add(setup.design.search_ms, setup.design.trace);
    }
    setup.reorganize_ms.push_back(setup.design.reorganize_ms);
  }
  setup.setup_s = percentile(setup_ms, 50) / 1e3;
  return true;
}

void emit_setup_layers(const ServingSetup& setup, LayerTable& layers) {
  layers.set("arch.reorganize_ms", percentile(setup.reorganize_ms, 50));
  setup.spans.emit(layers);
}

}  // namespace

// ----------------------------------------------------------- dse_cases --

void run_dse_cases(const Args& args, Report& report) {
  const int threads = bench_threads();
  // Set-up builds the three platforms' pipelines: kMinSetups times before
  // the first pass (the last build is the one used), then again between
  // passes, spreading kSetupBudgetS over the run. A build takes about
  // 0.1 ms, and its median over one 0.5 s burst moved by 50% from run to
  // run with the host; spread over the run it sees the host the passes see.
  std::vector<std::unique_ptr<core::Pipeline>> latest;
  std::vector<double> setup_ms;
  std::vector<double> construct_ms;
  const auto build_all = [&]() {
    std::vector<std::unique_ptr<core::Pipeline>> built;
    const SteadyTime t0 = now();
    for (const arch::Platform& platform : table4_platforms()) {
      const SteadyTime tc = now();
      auto pipeline = build_pipeline(platform);
      if (!report.check(pipeline.is_ok(),
                        "construct: " + pipeline.status().message())) {
        return false;
      }
      construct_ms.push_back(ms_between(tc, now()));
      built.push_back(std::move(pipeline).value());
    }
    setup_ms.push_back(ms_between(t0, now()));
    latest = std::move(built);
    return true;
  };
  while (more_setups(setup_ms, 0)) {
    if (!build_all()) return;
  }
  const std::vector<std::unique_ptr<core::Pipeline>> pipelines =
      std::move(latest);
  /// Setups due after `elapsed_s` of the run; returns their time, ms.
  const auto spread_setups = [&](double elapsed_s) {
    const double share = std::min(1.0, elapsed_s / args.seconds);
    const SteadyTime t0 = now();
    while (more_setups(setup_ms, kSetupBudgetS * 1e3 * share)) {
      if (!build_all()) break;
    }
    return ms_between(t0, now());
  };
  const std::vector<DesignCase>& cases = table4_cases();
  const auto spec_for = [&](int k, const std::string& strategy) {
    const DesignCase& c = cases[static_cast<std::size_t>(k) % cases.size()];
    return flow_spec(c.datapath, mix_seed(args.seed, static_cast<std::uint64_t>(k)),
                     threads, strategy);
  };
  const auto pipeline_for = [&](int k) -> core::Pipeline& {
    return *pipelines[static_cast<std::size_t>(
        cases[static_cast<std::size_t>(k) % cases.size()].pipeline)];
  };

  if (!args.trace) {
    std::vector<double> pass_ms;
    std::vector<std::vector<double>> fps(cases.size());
    double between_ms = 0;
    const SteadyTime start = now();
    const double loop_s = run_loop(args.seconds, kMinOps, [&](int k) {
      const FlowPass pass =
          run_flow_pass(pipeline_for(k), spec_for(k, dse::kDefaultStrategy),
                        report);
      report.op(pass.ok);
      pass_ms.push_back(pass.search_ms + pass.simulate_ms);
      if (pass.ok) {
        fps[static_cast<std::size_t>(k) % cases.size()].push_back(pass.min_fps);
      }
      between_ms += spread_setups(ms_between(start, now()) / 1e3);
    });
    // Per-case means first, so a run that stops mid-cycle weighs every
    // case the same.
    std::vector<double> case_fps;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      case_fps.push_back(mean(fps[c]));
      report.note(cases[c].name + fmt(": %.0f passes, mean winner min_fps %.4f",
                                      static_cast<double>(fps[c].size()),
                                      case_fps.back()));
    }
    EndToEnd e;
    e.setup_s = percentile(setup_ms, 50) / 1e3;
    e.p50_ms = percentile(pass_ms, 50);
    e.tail_ms = percentile(pass_ms, 90);
    e.ops_per_s =
        static_cast<double>(pass_ms.size()) / (loop_s - between_ms / 1e3);
    e.modelled_rate = mean(case_fps);
    report.note(fmt("flow_p50_ms %.3f  flow_p90_ms %.3f  design_min_fps %.4f  "
                    "(%.0f passes, %.0f threads)",
                    e.p50_ms, e.tail_ms, e.modelled_rate,
                    static_cast<double>(pass_ms.size()), threads));
    emit_end_to_end(report, e);
    return;
  }

  // Traced: pairs of one plain pass and one pass under the recording
  // strategy on the same case and seed. The recorder delegates, so the two
  // winners must be bit-identical.
  LayerTable layers;
  SearchSpans spans;
  std::vector<double> plain_ms, traced_ms, simulate_ms;
  run_loop(args.seconds, 5, [&](int k) {
    const FlowPass plain =
        run_flow_pass(pipeline_for(k), spec_for(k, dse::kDefaultStrategy), report);
    const FlowPass traced =
        run_flow_pass(pipeline_for(k), spec_for(k, recorder_strategy()), report);
    const bool parity = report.check(
        plain.fitness == traced.fitness && plain.min_fps == traced.min_fps,
        "recorded search differs from the plain search");
    report.op(plain.ok && traced.ok && parity);
    plain_ms.push_back(plain.search_ms + plain.simulate_ms);
    traced_ms.push_back(traced.search_ms + traced.simulate_ms);
    simulate_ms.push_back(traced.simulate_ms);
    spans.add(traced.search_ms, traced.trace);
  });
  layers.set("arch.reorganize_ms", percentile(construct_ms, 50));
  spans.emit(layers);
  layers.set("sim.simulate_ms", mean(simulate_ms));
  layers.set("trace.overhead_pct",
             (percentile(traced_ms, 50) / percentile(plain_ms, 50) - 1) * 100);
  run_dse_probes(last_capture(), threads, layers);
  auto design = build_serving_design(threads, dse::kDefaultStrategy);
  if (report.check(design.is_ok(), "probe design: " + design.status().message())) {
    fill_missing_layers(args, *design, layers, report);
  }
  layers.emit(report);
}

// -------------------------------------------------------- replay_exact --

void run_replay_exact(const Args& args, Report& report) {
  const int threads = bench_threads();
  ServingSetup setup;
  if (!serving_setup(args, 0, setup, report)) return;
  const ServiceModel& service = setup.design.service;
  const auto spec_for = [&](int k) {
    return exact_replay_spec(mix_seed(args.seed, static_cast<std::uint64_t>(k)),
                             kReplayRequests, threads);
  };

  if (!args.trace) {
    std::vector<double> op_ms, modelled;
    run_loop(args.seconds, kMinOps, [&](int k) {
      const SteadyTime t0 = now();
      auto stats = simulate_fleet(service, spec_for(k));
      op_ms.push_back(ms_between(t0, now()));
      const bool ok = check_replay(stats, kReplayRequests, "replay", report);
      report.op(ok);
      if (ok) modelled.push_back(stats->throughput_rps);
    });
    const EndToEnd e = replay_end_to_end(setup.setup_s, op_ms, modelled);
    report.note(fmt("replay_rps %.1f  (%.0f replays of %.0f requests)",
                    e.ops_per_s, static_cast<double>(op_ms.size()),
                    static_cast<double>(kReplayRequests)));
    emit_end_to_end(report, e);
    return;
  }

  LayerTable layers;
  emit_setup_layers(setup, layers);
  ReplayPairs pairs;
  run_loop(args.seconds, 3, [&](int k) {
    report.op(pairs.run(service, spec_for(k), args.work_dir, report));
  });
  pairs.emit(layers);
  fill_missing_layers(args, setup.design, layers, report);
  layers.emit(report);
}

// ------------------------------------------------------- replay_stream --

void run_replay_stream(const Args& args, Report& report) {
  // Each process runs 4 shards. On 4 threads every shard has its own core
  // and the slowest sets the phase: one core busy with other work on the
  // 4-vCPU host stretched the operation by 40%. On 2 threads each process
  // runs two full rounds, and the same load left it unchanged.
  const int threads = std::min(bench_threads(), 2);
  ServingSetup setup;
  if (!serving_setup(args, 0, setup, report)) return;
  const ServiceModel& service = setup.design.service;
  const auto spec_for = [&](int k) {
    return stream_replay_spec(mix_seed(args.seed, static_cast<std::uint64_t>(k)),
                              kReplayRequests, threads);
  };

  if (!args.trace) {
    std::vector<double> op_ms, modelled, scale_events;
    run_loop(args.seconds, kMinOps, [&](int k) {
      const StreamOp op =
          run_stream_op(service, spec_for(k), args.work_dir, report);
      report.op(op.ok);
      op_ms.push_back(op.wall_ms);
      if (!op.ok) return;
      modelled.push_back(op.merged.throughput_rps);
      scale_events.push_back(static_cast<double>(
          op.merged.scale_up_events + op.merged.scale_down_events));
    });
    const EndToEnd e = replay_end_to_end(setup.setup_s, op_ms, modelled);
    report.note(fmt("replay_rps %.1f  (%.0f two-process replays of %.0f "
                    "requests, mean %.1f scale events)",
                    e.ops_per_s, static_cast<double>(op_ms.size()),
                    static_cast<double>(kReplayRequests), mean(scale_events)));
    emit_end_to_end(report, e);
    return;
  }

  // Traced: each operation runs the library's two-process replay and the
  // benchmark's own streaming FleetEngine loop on the same spec.
  LayerTable layers;
  emit_setup_layers(setup, layers);
  ReplayPairs pairs;
  run_loop(args.seconds, 3, [&](int k) {
    report.op(pairs.run(service, spec_for(k), args.work_dir, report));
  });
  pairs.emit(layers);
  fill_missing_layers(args, setup.design, layers, report);
  layers.emit(report);
}

// --------------------------------------------------------- daemon_live --

void run_daemon_live(const Args& args, Report& report) {
  // The reference rate's steps get 40% of the run and the other rates share
  // half of it. The bursts, one after each step, take about the last tenth.
  const double others = static_cast<double>(std::size(kDaemonLadder) - 1);
  const auto step_seconds = [&](double rate) {
    return rate == kDaemonReferenceRps ? 0.4 * args.seconds
                                       : 0.5 * args.seconds / others;
  };
  double session_requests = 0;
  for (double rate : kDaemonLadder) {
    session_requests += rate * step_seconds(rate) +
                        static_cast<double>(kDaemonRounds * kDaemonBurstRequests);
  }
  ServingSetup setup;
  if (!serving_setup(args, static_cast<std::int64_t>(session_requests) + 1024,
                     setup, report)) {
    return;
  }
  const ServiceModel& service = setup.design.service;
  const int branches = service.num_branches();

  /// One ladder rate, pooled over the rounds.
  struct LadderRate {
    double rate = 0;
    std::int64_t expected = 0;
    std::int64_t ok = 0;
    std::int64_t backlog = 0;  ///< worst step
    double lag_p99_ms = 0;     ///< worst step
    double lag_max_ms = 0;
    std::vector<double> latency_ms;     ///< every ok reply, pooled
    std::vector<double> p50, p80, p99;  ///< per-window percentiles
  };
  std::vector<LadderRate> rates;
  for (double rate : kDaemonLadder) {
    rates.emplace_back();
    rates.back().rate = rate;
  }
  std::vector<Request> reference_arrivals;
  std::int64_t sent = 0;
  /// Runs one step; every request must be answered "ok" by its end.
  const auto checked_step = [&](const std::vector<Request>& arrivals,
                                double step_s, const std::string& name) {
    StepResult step = setup.live->run_step(arrivals, step_s, kDaemonGraceMs);
    const auto expected = static_cast<std::int64_t>(arrivals.size());
    for (std::int64_t i = 0; i < expected; ++i) report.op(i < step.ok);
    report.check(step.ok == expected,
                 fmt("daemon %s: %lld of %lld answered ok", name.c_str(),
                     static_cast<long long>(step.ok),
                     static_cast<long long>(expected)));
    sent += step.sent;
    return step;
  };
  std::int64_t burst_ok = 0;
  double burst_s = 0;
  for (int round = 0; round < kDaemonRounds; ++round) {
    const std::uint64_t round_seed = 100 + 16 * static_cast<std::uint64_t>(round);
    for (std::size_t r = 0; r < rates.size(); ++r) {
      LadderRate& at = rates[r];
      const double step_s = step_seconds(at.rate) / kDaemonRounds;
      std::vector<Request> arrivals = poisson_arrivals(
          at.rate, step_s, mix_seed(args.seed, round_seed + r), branches);
      const auto expected = static_cast<std::int64_t>(arrivals.size());
      const StepResult step =
          checked_step(arrivals, step_s, fmt("step %.0f req/s", at.rate));
      at.expected += expected;
      at.ok += step.ok;
      at.backlog = std::max(at.backlog, step.backlog);
      at.lag_p99_ms = std::max(at.lag_p99_ms, step.lag_p99_ms);
      at.lag_max_ms = std::max(at.lag_max_ms, step.lag_max_ms);
      at.latency_ms.insert(at.latency_ms.end(), step.latency_ms.begin(),
                           step.latency_ms.end());
      for (auto [pct, into] : {std::pair{50.0, &at.p50}, std::pair{80.0, &at.p80},
                               std::pair{99.0, &at.p99}}) {
        const std::vector<double> w = window_percentiles(step, step_s, pct);
        into->insert(into->end(), w.begin(), w.end());
      }
      if (round == 0 && at.rate == kDaemonReferenceRps) {
        reference_arrivals = std::move(arrivals);
      }
      const StepResult burst = checked_step(
          burst_arrivals(kDaemonBurstRequests,
                         mix_seed(args.seed, round_seed + rates.size() + r),
                         branches),
          0, "burst");
      burst_ok += burst.ok;
      burst_s += burst.active_s;
    }
  }
  auto stopped = setup.live->stop();
  if (report.check(stopped.is_ok(), "daemon stop: " + stopped.status().message())) {
    report.check(stopped->shed == 0 && stopped->stats.completed == sent,
                 "daemon session: requests shed or lost");
  }

  // A rate meets the limit when every request of every round was answered
  // ok, the p99 of all its replies is within the limit, and no step ended
  // with more backlog than the limit allows at that rate.
  double max_rps = 0;
  const LadderRate* ref = nullptr;
  for (const LadderRate& at : rates) {
    const double p99 = percentile(at.latency_ms, 99);
    const bool meets =
        at.ok == at.expected && p99 <= kDaemonP99LimitMs &&
        static_cast<double>(at.backlog) <= at.rate * kDaemonP99LimitMs / 1e3;
    if (meets) max_rps = std::max(max_rps, at.rate);
    if (at.rate == kDaemonReferenceRps) ref = &at;
    report.note(fmt("daemon %6.0f req/s: p50 %.4f ms  p90 %.4f ms  p99 %.4f ms  "
                    "worst lag p99 %.3f ms, max %.3f ms  worst backlog %lld  %s "
                    "the p99 limit",
                    at.rate, percentile(at.latency_ms, 50),
                    percentile(at.latency_ms, 90), p99,
                    at.lag_p99_ms, at.lag_max_ms,
                    static_cast<long long>(at.backlog),
                    meets ? "meets" : "MISSES"));
  }

  // The same reference arrivals through the daemon's submit path on the
  // virtual clock: the modelled service rate, and the socket-free cost.
  std::vector<Request> trace = reference_arrivals;
  const Daemon offline(service, daemon_spec(ClockKind::kVirtual));
  const SteadyTime t0 = now();
  auto replayed = offline.run_trace(trace);
  const double run_trace_ns = ns_between(t0, now());
  const bool replay_ok = report.check(
      replayed.is_ok() && replayed->shed == 0 &&
          replayed->stats.completed == static_cast<std::int64_t>(trace.size()),
      "run_trace of the reference arrivals");

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = setup.setup_s;
    e.p50_ms = percentile(ref->p50, 50);
    e.tail_ms = percentile(ref->p80, 50);
    e.ops_per_s = burst_s > 0 ? static_cast<double>(burst_ok) / burst_s : 0;
    e.modelled_rate = replay_ok ? replayed->stats.throughput_rps : 0;
    report.note(fmt("daemon_p50_ms %.4f  daemon_p80_ms %.4f  daemon_p99_ms "
                    "%.4f at %.0f req/s; daemon_max_rps %.0f at p99 <= %.0f "
                    "ms; daemon_burst_rps %.1f",
                    e.p50_ms, e.tail_ms, percentile(ref->p99, 50),
                    kDaemonReferenceRps, max_rps, kDaemonP99LimitMs,
                    e.ops_per_s));
    emit_end_to_end(report, e);
    return;
  }

  LayerTable layers;
  emit_setup_layers(setup, layers);
  double lag = 0;
  double backlog = 0;
  for (const LadderRate& at : rates) {
    lag = std::max(lag, at.lag_p99_ms);
    backlog = std::max(backlog, static_cast<double>(at.backlog));
  }
  layers.set("serving.daemon.generator_lag_ms", lag);
  layers.set("serving.daemon.backlog", backlog);
  layers.set("serving.daemon.run_trace_ns_per_req",
             run_trace_ns / static_cast<double>(std::max<std::size_t>(trace.size(), 1)));
  fill_missing_layers(args, setup.design, layers, report);
  layers.emit(report);
}

}  // namespace perfbench
