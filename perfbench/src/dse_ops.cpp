#include "dse_ops.hpp"

#include <atomic>
#include <optional>
#include <thread>

#include "arch/elastic.hpp"
#include "arch/resource_model.hpp"
#include "arch/unit.hpp"
#include "dse/fitness_cache.hpp"
#include "dse/in_branch.hpp"
#include "dse/strategy.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace fcad;

/// Evaluated configurations kept per round for the arch.* replays.
constexpr std::size_t kConfigsPerRound = 40;

SearchCapture& capture_slot() {
  static SearchCapture capture;
  return capture;
}

class RecordingStrategy final : public dse::Strategy {
 public:
  explicit RecordingStrategy(std::unique_ptr<dse::Strategy> inner)
      : inner_(std::move(inner)) {}

  void begin(const dse::StrategyContext& ctx) override {
    SearchCapture& cap = capture_slot();
    cap = SearchCapture{};
    cap.model = std::make_shared<const arch::ReorganizedModel>(ctx.model);
    cap.budget = ctx.budget;
    cap.customization = ctx.customization;
    cap.options = ctx.options;
    // The strategy's own set-up counts as proposal work.
    const SteadyTime t0 = now();
    inner_->begin(ctx);
    cap.propose_ms += ms_between(t0, now());
    accept_end_.reset();
  }

  int max_rounds(const dse::StrategyContext& ctx) const override {
    return inner_->max_rounds(ctx);
  }

  std::vector<dse::ResourceDistribution> propose(
      const dse::StrategyContext& ctx, int round) override {
    const SteadyTime t0 = now();
    close_round(t0);
    std::vector<dse::ResourceDistribution> out = inner_->propose(ctx, round);
    eval_start_ = now();
    SearchCapture& cap = capture_slot();
    cap.propose_ms += ms_between(t0, eval_start_);
    cap.candidates.insert(cap.candidates.end(), out.begin(), out.end());
    return out;
  }

  void accept(const dse::StrategyContext& ctx, int round,
              const std::vector<dse::ResourceDistribution>& proposed,
              const std::vector<dse::DistributionEval>& evals,
              dse::SearchResult& result) override {
    const SteadyTime t2 = now();
    inner_->accept(ctx, round, proposed, evals, result);
    const SteadyTime t3 = now();
    SearchCapture& cap = capture_slot();
    cap.eval_phase_ms += ms_between(eval_start_, t2);
    cap.accept_ms += ms_between(t2, t3);
    ++cap.rounds;
    for (std::size_t i = 0; i < evals.size() && i < kConfigsPerRound; ++i) {
      cap.configs.push_back(evals[i].config);
    }
    accept_end_ = now();
  }

  void finish(const dse::StrategyContext& ctx,
              dse::SearchResult& result) override {
    close_round(now());
    inner_->finish(ctx, result);
  }

 private:
  /// A round ends where the next one (or finish) starts: the framework's
  /// bookkeeping after accept — evaluation accounting, the cancellation
  /// poll, the progress event — belongs to the evaluation phase.
  void close_round(SteadyTime t) {
    if (accept_end_) {
      capture_slot().eval_phase_ms += ms_between(*accept_end_, t);
      accept_end_.reset();
    }
  }

  std::unique_ptr<dse::Strategy> inner_;
  SteadyTime eval_start_{};
  std::optional<SteadyTime> accept_end_;
};

/// Mean ns per call of `fn(i)` over `calls` calls, run `reps` times. The
/// results are summed and kept so the calls cannot be optimized away.
template <typename Fn>
double ns_per_call(std::size_t calls, int reps, Fn&& fn) {
  double acc = 0;
  const SteadyTime t0 = now();
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < calls; ++i) acc += fn(i);
  }
  const SteadyTime t1 = now();
  keep(acc);
  return ns_between(t0, t1) /
         static_cast<double>(calls * static_cast<std::size_t>(reps));
}

}  // namespace

const std::vector<DesignCase>& table4_cases() {
  static const std::vector<DesignCase> cases = {
      {"Z7045-8b", arch::platform_z7045(), "pipelined-int8", 0},
      {"ZU17EG-8b", arch::platform_zu17eg(), "pipelined-int8", 1},
      {"ZU17EG-16b", arch::platform_zu17eg(), "pipelined-int16", 1},
      {"ZU9CG-8b", arch::platform_zu9cg(), "pipelined-int8", 2},
      {"ZU9CG-16b", arch::platform_zu9cg(), "pipelined-int16", 2},
  };
  return cases;
}

std::vector<arch::Platform> table4_platforms() {
  return {arch::platform_z7045(), arch::platform_zu17eg(),
          arch::platform_zu9cg()};
}

dse::SearchSpec flow_spec(const std::string& datapath, std::uint64_t seed,
                          int threads, const std::string& strategy) {
  dse::SearchSpec spec;
  spec.strategy = strategy;
  spec.customization.datapath = datapath;
  spec.customization.batch_sizes = {1, 2, 2};
  spec.search.population = 200;
  spec.search.iterations = 20;
  spec.search.seed = seed;
  spec.control.threads = threads;
  return spec;
}

dse::SearchSpec serving_design_spec(int threads, const std::string& strategy) {
  dse::SearchSpec spec;
  spec.strategy = strategy;
  spec.customization.datapath = "pipelined-int8";
  spec.search.population = 100;
  spec.search.iterations = 12;
  spec.search.seed = 42;
  spec.control.threads = threads;
  return spec;
}

StatusOr<std::unique_ptr<core::Pipeline>> build_pipeline(
    const arch::Platform& platform) {
  auto pipeline =
      std::make_unique<core::Pipeline>(nn::zoo::avatar_decoder(), platform);
  if (Status s = pipeline->construct(); !s.is_ok()) return s;
  return pipeline;
}

const std::string& recorder_strategy() {
  static const std::string name = [] {
    const std::string n = "perfbench-recorder";
    const Status s = dse::register_strategy(n, [] {
      auto inner = dse::strategy_factory(dse::kDefaultStrategy);
      FCAD_CHECK_MSG(inner.is_ok(), inner.status().message());
      return std::make_unique<RecordingStrategy>((*inner)());
    });
    FCAD_CHECK_MSG(s.is_ok(), s.message());
    return n;
  }();
  return name;
}

const SearchCapture& last_capture() { return capture_slot(); }

void SearchSpans::add(double ms, const dse::SearchTrace& trace) {
  const SearchCapture& cap = last_capture();
  ++searches;
  search_ms += ms;
  propose_ms += cap.propose_ms;
  accept_ms += cap.accept_ms;
  eval_phase_ms += cap.eval_phase_ms;
  evaluations += static_cast<double>(trace.evaluations);
  cache_hits += static_cast<double>(trace.cache_hits);
  cache_misses += static_cast<double>(trace.cache_misses);
}

void SearchSpans::emit(LayerTable& layers) const {
  if (searches == 0) return;
  const double n = searches;
  layers.set("dse.search_ms", search_ms / n);
  layers.set("dse.strategy.propose_ms", propose_ms / n);
  layers.set("dse.strategy.accept_ms", accept_ms / n);
  layers.set("dse.eval_phase_ms", eval_phase_ms / n);
  layers.set("dse.span_coverage",
             (propose_ms + accept_ms + eval_phase_ms) / search_ms);
  layers.set("dse.evaluations", evaluations / n);
  const double lookups = cache_hits + cache_misses;
  layers.set("dse.fitness_cache.lookups", lookups / n);
  layers.set("dse.fitness_cache.hit_ratio",
             lookups > 0 ? cache_hits / lookups : 0);
}

FlowPass run_flow_pass(core::Pipeline& pipeline, const dse::SearchSpec& spec,
                       Report& report) {
  FlowPass pass;
  const SteadyTime t0 = now();
  const Status searched = pipeline.optimize(spec);
  const SteadyTime t1 = now();
  const Status simulated =
      searched.is_ok() ? pipeline.simulate() : Status::ok();
  const SteadyTime t2 = now();
  pass.search_ms = ms_between(t0, t1);
  pass.simulate_ms = ms_between(t1, t2);
  if (!report.check(searched.is_ok(), "optimize: " + searched.message()) ||
      !report.check(simulated.is_ok(), "simulate: " + simulated.message())) {
    return pass;
  }
  const dse::SearchResult& best = pipeline.search()->best();
  pass.fitness = best.fitness;
  pass.trace = best.trace;
  const core::SimArtifact* sim = pipeline.sim();
  pass.min_fps = sim != nullptr ? sim->result.min_fps : 0;
  pass.ok = report.check(best.feasible, "flow winner is infeasible") &&
            report.check(sim != nullptr && sim->result.min_fps > 0,
                         "flow winner carries no simulation");
  return pass;
}

void run_dse_probes(const SearchCapture& cap, int threads, LayerTable& layers) {
  if (!cap.model || cap.candidates.empty() || cap.configs.empty()) return;
  const arch::ReorganizedModel& model = *cap.model;
  const arch::Datapath dp = cap.customization.resolved_datapath();

  // Serial replay of the whole search's candidates, in proposal order and
  // through a fresh fitness cache — the search's evaluation work on one
  // thread.
  {
    dse::FitnessCache cache;
    dse::SearchTrace trace;
    const SteadyTime t0 = now();
    for (const dse::ResourceDistribution& rd : cap.candidates) {
      dse::evaluate_distribution(model, cap.budget, rd, cap.customization,
                                 cap.options, trace, &cache);
    }
    const double serial_ms = ms_between(t0, now());
    layers.set("dse.evaluate_distribution.serial_us",
               serial_ms * 1e3 / static_cast<double>(cap.candidates.size()));
    const double pool_ms = threads * cap.eval_phase_ms;
    layers.set("util.thread_pool.thread_ms", pool_ms);
    layers.set("util.thread_pool.parallel_efficiency",
               pool_ms > 0 ? serial_ms / pool_ms : 0);
  }

  const int branches = model.num_branches();
  const std::size_t sample = std::min<std::size_t>(cap.candidates.size(), 1000);
  layers.set("dse.in_branch.ns_per_call",
             ns_per_call(sample, 1, [&](std::size_t i) {
               const dse::ResourceDistribution& rd = cap.candidates[i];
               double used = 0;
               for (int j = 0; j < branches; ++j) {
                 used += dse::in_branch_optimize(
                             model, j, rd.slice(cap.budget, j),
                             cap.customization.batch_sizes[static_cast<std::size_t>(j)],
                             dp, cap.options.freq_mhz)
                             .c_used;
               }
               return used;
             }) / branches);

  layers.set("arch.evaluate.ns_per_call",
             ns_per_call(cap.configs.size(), 3, [&](std::size_t i) {
               return arch::evaluate(model, cap.configs[i],
                                     arch::EvalMode::kAnalytical)
                   .min_fps;
             }));

  // (stage, unit) pairs of the evaluated configurations.
  struct UnitCall {
    const arch::FusedStage* stage;
    arch::UnitConfig cfg;
  };
  std::vector<UnitCall> units;
  for (const arch::AcceleratorConfig& config : cap.configs) {
    for (int j = 0; j < branches; ++j) {
      const auto& stages = model.branches[static_cast<std::size_t>(j)].stages;
      const auto& cfgs = config.branches[static_cast<std::size_t>(j)].units;
      for (std::size_t u = 0; u < stages.size() && u < cfgs.size(); ++u) {
        units.push_back({&model.stage(stages[u]), cfgs[u]});
      }
    }
  }
  if (units.empty()) return;
  layers.set("arch.unit_resources.ns_per_call",
             ns_per_call(units.size(), 3, [&](std::size_t i) {
               return static_cast<double>(
                   arch::unit_resources(*units[i].stage, units[i].cfg, dp)
                       .brams);
             }));
  const auto get_pf_call = [&](std::size_t i) {
    return static_cast<double>(
        arch::get_pf(units[i].cfg.lanes(), *units[i].stage).cpf);
  };
  const double uncontended = ns_per_call(units.size(), 3, get_pf_call);
  layers.set("arch.get_pf.ns_per_call", uncontended);

  // The same calls from `threads` concurrent callers: wall time per call
  // seen by one caller.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> per_thread(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < threads; ++t) {
    callers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      per_thread[static_cast<std::size_t>(t)] =
          ns_per_call(units.size(), 3, get_pf_call);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  go.store(true);
  for (std::thread& caller : callers) caller.join();
  const double contended = mean(per_thread);
  layers.set("arch.get_pf.contended_ns_per_call", contended);
  layers.set("arch.get_pf.contention_ratio",
             uncontended > 0 ? contended / uncontended : 0);

  util::ThreadPool& pool = util::ThreadPool::shared(threads);
  const auto population = static_cast<std::int64_t>(cap.options.population);
  constexpr int kFanouts = 300;
  const SteadyTime f0 = now();
  for (int i = 0; i < kFanouts; ++i) {
    pool.parallel_for(population, [](std::int64_t) {});
  }
  layers.set("util.thread_pool.fanout_us", ns_between(f0, now()) / 1e3 / kFanouts);
}

}  // namespace perfbench
