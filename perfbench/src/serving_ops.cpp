#include "serving_ops.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <optional>
#include <sstream>

#include "arch/platform.hpp"
#include "serving/batcher.hpp"
#include "serving/clock.hpp"
#include "serving/dispatch.hpp"
#include "serving/elastic.hpp"
#include "serving/engine.hpp"
#include "serving/scenario.hpp"
#include "serving/stats.hpp"
#include "serving/stream.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace fcad;
using namespace fcad::serving;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Seed of the driven streaming replay's sketches. It only binds sketches
/// to one replay, so the driven stats compare equal to the library's.
constexpr std::uint64_t kDrivenSketchSeed = 1;

/// Where a driven shard's arrivals come from, in arrival order.
class ShardSource {
 public:
  virtual ~ShardSource() = default;
  /// Next arrival without consuming it; nullptr once exhausted.
  virtual const Request* peek() = 0;
  virtual void pop() = 0;
};

/// A shard's slice of a materialized workload.
class SliceSource final : public ShardSource {
 public:
  explicit SliceSource(const std::vector<Request>& requests)
      : requests_(requests) {}
  const Request* peek() override {
    return next_ < requests_.size() ? &requests_[next_] : nullptr;
  }
  void pop() override { ++next_; }

 private:
  const std::vector<Request>& requests_;
  std::size_t next_ = 0;
};

/// The full request stream filtered to `user % shards == shard`, as the
/// library's streaming replay reads it. Each refill of the one-request
/// buffer (the RequestStream::next calls up to the shard's next user) is
/// timed into `times` as one span.
class StreamSource final : public ShardSource {
 public:
  StreamSource(RequestStream& stream, int shard, int shards,
               EngineTimes& times)
      : stream_(stream), shard_(shard), shards_(shards), times_(times) {}
  const Request* peek() override {
    if (buffered_) return &*buffered_;
    if (ended_) return nullptr;
    const SteadyTime a = now();
    while (!buffered_) {
      std::optional<Request> r = stream_.next();
      if (!r) {
        ended_ = true;
        break;
      }
      ++times_.pulled;
      if (r->user % shards_ == shard_) buffered_ = *r;
    }
    times_.stream_ns += ns_between(a, now());
    return buffered_ ? &*buffered_ : nullptr;
  }
  void pop() override { buffered_.reset(); }

 private:
  RequestStream& stream_;
  int shard_;
  int shards_;
  EngineTimes& times_;
  std::optional<Request> buffered_;
  bool ended_ = false;
};

/// One shard of a driven replay: the loop of fleet.cpp's run_shard, with
/// every engine call timed. The timed sections abut, so what they leave
/// out of the shard's loop is the elastic tick and the loop's own control.
StatusOr<ShardStats> drive_shard(const ServiceModel& service,
                                 ShardSource& source,
                                 std::int64_t expected_requests,
                                 int shard_index, const ElasticSpec& elastic,
                                 const ShardElasticPlan& plan,
                                 const FleetOptions& options,
                                 std::uint64_t sketch_seed,
                                 EngineTimes& times, ShardSpan& span) {
  span.start = now();
  const Request* first = source.peek();
  const std::unique_ptr<Clock> clock =
      make_clock(options.clock, first != nullptr ? first->arrival_us : 0);
  FleetEngineConfig config;
  config.policy = options.policy;
  config.batch_timeout_us = options.batch_timeout_us;
  config.switch_penalty_us = options.switch_penalty_us;
  config.sla_bound_us = options.sla_bound_us;
  config.progress_tail_pct = options.progress_tail_pct;
  config.keep_records = options.keep_records;
  config.shard_index = shard_index;
  config.first_instance = plan.first_instance;
  config.instances = plan.provisioned;
  config.initial_active = plan.initial_active;
  config.max_cells = elastic.reshard_enabled() ? elastic.reshard.max_cells : 1;
  config.expected_requests = expected_requests;
  config.latency_mode = options.latency_mode;
  config.sketch_seed = sketch_seed;
  FleetEngine engine(service, config, clock.get());
  std::optional<ElasticController> controller;
  if (elastic.enabled() || !plan.faults.empty()) {
    controller.emplace(elastic, plan, options.sla_bound_us);
    engine.set_controller(&*controller);
  }

  SteadyTime a = now();
  while (true) {
    const double pulled_ns = times.stream_ns;
    while (const Request* r = source.peek()) {
      if (r->arrival_us > engine.now_us()) break;
      engine.enqueue(*r);
      source.pop();
    }
    const Request* upcoming = source.peek();
    if (upcoming == nullptr) engine.close();
    const SteadyTime b = now();
    if (controller) controller->tick(engine, engine.now_us());
    const SteadyTime c = now();  // the elastic tick is not an engine call
    engine.dispatch_ready();
    const SteadyTime d = now();
    times.enqueue_ns += ns_between(a, b) - (times.stream_ns - pulled_ns);
    times.dispatch_ns += ns_between(c, d);
    double t_us = engine.next_event_us();
    if (upcoming != nullptr) t_us = std::min(t_us, upcoming->arrival_us);
    if (controller) {
      t_us = std::min(t_us, controller->next_event_us(engine.now_us()));
    }
    if ((upcoming == nullptr && engine.drained()) || t_us == kInf) break;
    if (!(t_us > engine.now_us())) {
      return Status::internal("driven replay: virtual time did not advance");
    }
    engine.advance_to(t_us);
    const SteadyTime e = now();
    times.advance_ns += ns_between(d, e);
    a = e;
  }
  ShardStats stats = engine.take_stats();
  span.end = now();
  times.loop_ns += ns_between(span.start, span.end);
  times.requests += stats.offered;
  return stats;
}

/// Length of the union of the shard loops' intervals, ms: the time in
/// which at least one shard ran.
double busy_ms(std::vector<ShardSpan> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const ShardSpan& x, const ShardSpan& y) {
              return x.start < y.start;
            });
  double total = 0;
  std::optional<ShardSpan> run;
  for (const ShardSpan& s : spans) {
    if (run && s.start <= run->end) {
      run->end = std::max(run->end, s.end);
      continue;
    }
    if (run) total += ms_between(run->start, run->end);
    run = s;
  }
  if (run) total += ms_between(run->start, run->end);
  return total;
}

/// Sums the per-shard timings into `out` and merges the shards as the
/// library does; the replay started at `t0`.
void finish_driven(std::vector<StatusOr<ShardStats>>& slots,
                   const std::vector<EngineTimes>& times,
                   const std::vector<ShardSpan>& spans,
                   const ServiceModel& service, const FleetOptions& options,
                   int provisioned, int resumed, bool keep_latencies,
                   SteadyTime t0, EngineReplay& out) {
  std::vector<ShardStats> shards;
  for (StatusOr<ShardStats>& slot : slots) {
    if (!slot.is_ok()) {
      out.stats = slot.status();
      return;
    }
    shards.push_back(std::move(slot).value());
  }
  for (const EngineTimes& t : times) out.times.add(t);
  const SteadyTime t4 = now();
  if (keep_latencies) {
    for (const ShardStats& shard : shards) {
      out.latencies.insert(out.latencies.end(), shard.latencies.begin(),
                           shard.latencies.end());
    }
  }
  const SteadyTime t5 = now();
  out.stats = merge_shard_stats(std::move(shards), service,
                                options.sla_bound_us, provisioned, resumed);
  const SteadyTime t6 = now();
  out.busy_ms = busy_ms(spans);
  out.merge_ms = ms_between(t5, t6);
  // The latency copy is the benchmark's own work, not the replay's.
  out.wall_ms = ms_between(t0, t6) - ms_between(t4, t5);
}

}  // namespace

StatusOr<ServingDesign> build_serving_design(int threads,
                                             const std::string& strategy) {
  ServingDesign design;
  const SteadyTime t0 = now();
  auto pipeline = build_pipeline(arch::platform_zu9cg());
  if (!pipeline.is_ok()) return pipeline.status();
  design.pipeline = std::move(pipeline).value();
  const SteadyTime t1 = now();
  if (Status s = design.pipeline->optimize(serving_design_spec(threads, strategy));
      !s.is_ok()) {
    return s;
  }
  const SteadyTime t2 = now();
  design.reorganize_ms = ms_between(t0, t1);
  design.search_ms = ms_between(t1, t2);
  const dse::SearchResult& best = design.pipeline->search()->best();
  if (!best.feasible) {
    return Status::internal("served design search found no feasible design");
  }
  design.trace = best.trace;
  design.service = service_model_from_eval(best.config, best.eval);
  return design;
}

ServeSpec exact_replay_spec(std::uint64_t seed, std::int64_t requests,
                            int threads) {
  ServeSpec spec;
  spec.workload.process = ArrivalProcess::kPoisson;
  spec.workload.users = 8;
  spec.workload.frame_rate_hz = 30;
  spec.workload.seed = seed;
  spec.workload.target_requests = requests;
  spec.fleet.instances = 8;
  spec.fleet.shards = 8;
  spec.fleet.policy = DispatchPolicy::kLeastLoaded;
  spec.fleet.threads = threads;
  return spec;
}

ServeSpec stream_replay_spec(std::uint64_t seed, std::int64_t requests,
                             int threads) {
  ServeSpec spec = exact_replay_spec(seed, requests, threads);
  // 8 users x 30 Hz x 3 branches offer ~720 req/s: the span scales with
  // the request count so every run sees the same shape — about four
  // diurnal cycles and one 3x flash crowd at 40-50% of the span.
  const double span_s = static_cast<double>(requests) / 720.0;
  spec.scenario.diurnal.period_s = span_s / 4;
  spec.scenario.diurnal.amplitude = 0.5;
  FlashCrowdSpec flash;
  flash.start_s = 0.4 * span_s;
  flash.end_s = 0.5 * span_s;
  flash.rate_multiplier = 3;
  spec.scenario.flash.push_back(flash);
  spec.elastic.autoscale.max_instances = 16;
  spec.fleet.latency_mode = LatencyMode::kSketch;
  return spec;
}

EngineReplay drive_fleet_engine(const ServiceModel& service,
                                const ServeSpec& spec, bool keep_latencies) {
  EngineReplay out;
  const SteadyTime t0 = now();
  auto options_or = resolved_fleet_options(spec);
  if (!options_or.is_ok()) {
    out.stats = options_or.status();
    return out;
  }
  const FleetOptions& options = *options_or;
  if (options.latency_mode != LatencyMode::kExact) {
    out.stats = Status::invalid_argument("driven replay: exact mode only");
    return out;
  }
  WorkloadOptions workload = spec.workload;
  workload.branches = service.num_branches();
  auto requests = generate_scenario_workload(workload, spec.scenario);
  if (!requests.is_ok()) {
    out.stats = requests.status();
    return out;
  }
  const SteadyTime t1 = now();

  // Static partition, as simulate_fleet does it: user u -> shard u mod S,
  // arrival order kept (generated workloads are already sorted).
  const int num_shards = options.shards;
  std::vector<std::vector<Request>> shard_requests(
      static_cast<std::size_t>(num_shards));
  for (const Request& r : *requests) {
    shard_requests[static_cast<std::size_t>(r.user % num_shards)].push_back(r);
  }
  auto plans = plan_elastic_shards(spec.elastic, spec.scenario.faults,
                                   options.instances, num_shards);
  if (!plans.is_ok()) {
    out.stats = plans.status();
    return out;
  }
  const SteadyTime t2 = now();

  const auto n = static_cast<std::size_t>(num_shards);
  std::vector<StatusOr<ShardStats>> slots(n, Status::internal("not run"));
  std::vector<EngineTimes> times(n);
  std::vector<ShardSpan> spans(n);
  util::ThreadPool::shared(options.threads)
      .parallel_for(num_shards, [&](std::int64_t s) {
        const auto i = static_cast<std::size_t>(s);
        SliceSource source(shard_requests[i]);
        slots[i] = drive_shard(
            service, source, static_cast<std::int64_t>(shard_requests[i].size()),
            static_cast<int>(s), spec.elastic, (*plans)[i], options, 0,
            times[i], spans[i]);
      });
  out.generate_ms = ms_between(t0, t1);
  out.partition_ms = ms_between(t1, t2);
  const int provisioned =
      plans->back().first_instance + plans->back().provisioned;
  finish_driven(slots, times, spans, service, options, provisioned, 0,
                keep_latencies, t0, out);
  return out;
}

EngineReplay drive_fleet_stream(const ServiceModel& service,
                                const ServeSpec& spec) {
  EngineReplay out;
  const SteadyTime t0 = now();
  auto options_or = resolved_fleet_options(spec);
  if (!options_or.is_ok()) {
    out.stats = options_or.status();
    return out;
  }
  const FleetOptions& options = *options_or;
  WorkloadOptions workload = spec.workload;
  workload.branches = service.num_branches();
  const int num_shards = options.shards;
  auto plans = plan_elastic_shards(spec.elastic, spec.scenario.faults,
                                   options.instances, num_shards);
  if (!plans.is_ok()) {
    out.stats = plans.status();
    return out;
  }
  const SteadyTime t2 = now();

  const auto n = static_cast<std::size_t>(num_shards);
  std::vector<StatusOr<ShardStats>> slots(n, Status::internal("not run"));
  std::vector<EngineTimes> times(n);
  std::vector<ShardSpan> spans(n);
  const std::int64_t target = workload.target_requests;
  const int processes = kStreamProcesses;
  util::ThreadPool& pool = util::ThreadPool::shared(options.threads);
  // One process's contiguous shard range after the other, each shard
  // pulling its own full stream, as simulate_fleet_stream runs them.
  for (int p = 0; p < processes; ++p) {
    const int lo = p * num_shards / processes;
    const int hi = (p + 1) * num_shards / processes;
    pool.parallel_for(hi - lo, [&](std::int64_t i) {
      const int s = lo + static_cast<int>(i);
      const auto k = static_cast<std::size_t>(s);
      auto stream = make_request_stream(workload, spec.scenario);
      if (!stream.is_ok()) {
        slots[k] = stream.status();
        return;
      }
      StreamSource source(**stream, s, num_shards, times[k]);
      slots[k] = drive_shard(service, source, target, s, spec.elastic,
                             (*plans)[k], options, kDrivenSketchSeed, times[k],
                             spans[k]);
      if (Status fs = (*stream)->finish_status(); !fs.is_ok()) slots[k] = fs;
    });
  }
  out.partition_ms = ms_between(t0, t2);
  const int provisioned =
      plans->back().first_instance + plans->back().provisioned;
  finish_driven(slots, times, spans, service, options, provisioned,
                num_shards, false, t0, out);
  return out;
}

bool same_stats(const ServingStats& a, const ServingStats& b) {
  std::ostringstream ta;
  std::ostringstream tb;
  serving_stats_to_text(ta, a);
  serving_stats_to_text(tb, b);
  return ta.str() == tb.str();
}

bool check_replay(const StatusOr<ServingStats>& stats, std::int64_t target,
                  const std::string& what, Report& report) {
  if (!report.check(stats.is_ok(), what + ": " + stats.status().message())) {
    return false;
  }
  return report.check(stats->completed == stats->offered &&
                          stats->offered == target,
                      what + ": completed " + std::to_string(stats->completed) +
                          ", offered " + std::to_string(stats->offered) +
                          ", target " + std::to_string(target));
}

StreamOp run_stream_op(const ServiceModel& service, const ServeSpec& spec,
                       const std::string& work_dir, Report& report) {
  StreamOp op;
  const std::int64_t target = spec.workload.target_requests;
  std::vector<std::string> paths;
  for (int p = 0; p < kStreamProcesses; ++p) {
    paths.push_back(work_dir + "/stream-p" + std::to_string(p) + ".ckpt");
    std::error_code ignored;
    std::filesystem::remove(paths.back(), ignored);
  }
  const SteadyTime t0 = now();
  std::int64_t per_process = 0;
  for (int p = 0; p < kStreamProcesses; ++p) {
    ServeSpec part = spec;
    part.fleet.process_index = p;
    part.fleet.process_count = kStreamProcesses;
    part.fleet.checkpoint_path = paths[static_cast<std::size_t>(p)];
    auto stats = simulate_fleet_stream(service, part);
    if (!report.check(stats.is_ok(), "stream process " + std::to_string(p) +
                                         ": " + stats.status().message())) {
      return op;
    }
    per_process += stats->completed;
  }
  const SteadyTime t1 = now();
  auto merged = merge_replay_checkpoints(service, spec, paths);
  const SteadyTime t2 = now();
  op.merge_ms = ms_between(t1, t2);
  op.wall_ms = ms_between(t0, t2);
  if (!check_replay(merged, target, "two-process merge", report)) return op;
  op.merged = std::move(merged).value();
  op.ok = report.check(per_process == target,
                       "process shard ranges completed " +
                           std::to_string(per_process) + " of " +
                           std::to_string(target));
  return op;
}

QueueProbe probe_batcher_dispatch(const ServiceModel& service,
                                  const std::vector<Request>& trace,
                                  int instances, double batch_timeout_us) {
  BatchAggregator agg(service.capacities(), batch_timeout_us);
  Dispatcher dispatcher(DispatchPolicy::kLeastLoaded, instances,
                        service.num_branches());
  double enqueue_ns = 0, pop_ns = 0, ready_ns = 0, pick_ns = 0;
  std::int64_t pops = 0, readies = 0, picks = 0;
  for (const Request& r : trace) {
    const double t_us = r.arrival_us;
    const SteadyTime a = now();
    agg.enqueue(r);
    const SteadyTime b = now();
    enqueue_ns += ns_between(a, b);
    while (true) {
      const SteadyTime c = now();
      const int branch = agg.ready_branch(t_us);
      const SteadyTime d = now();
      ready_ns += ns_between(c, d);
      ++readies;
      if (branch < 0) break;
      const int k = dispatcher.pick(branch, t_us);
      const SteadyTime e = now();
      pick_ns += ns_between(d, e);
      ++picks;
      if (k < 0) break;
      std::optional<Batch> batch = agg.pop_ready(t_us);
      const SteadyTime f = now();
      pop_ns += ns_between(e, f);
      ++pops;
      if (!batch) break;
      dispatcher.dispatch(
          k, branch, t_us,
          service.branches[static_cast<std::size_t>(branch)].pass_us, 0,
          static_cast<std::int64_t>(batch->requests.size()));
    }
  }
  const double overhead = clock_overhead_ns();
  const auto per = [overhead](double total, std::int64_t calls) {
    return calls > 0 ? std::max(0.0, total / static_cast<double>(calls) - overhead)
                     : 0.0;
  };
  QueueProbe probe;
  probe.enqueue_ns = per(enqueue_ns, static_cast<std::int64_t>(trace.size()));
  probe.pop_ready_ns = per(pop_ns, pops);
  probe.ready_branch_ns = per(ready_ns, readies);
  probe.pick_ns = per(pick_ns, picks);
  return probe;
}

}  // namespace perfbench
