#include "serving/driver.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/binary_io.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace fcad::serving {

/// Progress plumbing shared by every shard: a global completion counter
/// drives the ~20-tick cadence; the emitting shard supplies its local
/// partial tail estimate.
struct ProgressSink {
  const util::RunScope* scope = nullptr;
  std::int64_t offered = 0;
  std::int64_t chunk = 0;
  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> next_at{0};
  std::atomic<std::int64_t> last_emitted{-1};
  std::mutex mutex;

  void emit(std::int64_t step, double partial_tail) {
    scope->emit({"fleet",
                 static_cast<int>(std::min<std::int64_t>(step, 1LL << 30)),
                 static_cast<int>(std::min<std::int64_t>(offered, 1LL << 30)),
                 partial_tail});
    last_emitted.store(step, std::memory_order_relaxed);
  }

  /// The engine is passed, not its tail value: partial_tail() costs O(tail)
  /// (or a sketch walk), and this is called once per event-loop iteration —
  /// only a due tick (at most ~20 per replay) may pay for the estimate.
  void maybe_emit(const FleetEngine& engine) {
    if (scope == nullptr || chunk <= 0) return;
    const std::int64_t c = completed.load(std::memory_order_relaxed);
    if (c < next_at.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mutex);
    if (c < next_at.load(std::memory_order_relaxed)) return;  // lost the race
    emit(c, engine.partial_tail());
    next_at.store((c / chunk + 1) * chunk, std::memory_order_relaxed);
  }

  Status cancelled() const {
    return Status::cancelled("fleet replay cancelled after " +
                             std::to_string(completed.load()) + "/" +
                             std::to_string(offered) + " requests");
  }
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// An arrival-sorted materialized slice.
class VectorSource final : public RequestSource {
 public:
  explicit VectorSource(const std::vector<Request>& requests)
      : requests_(requests) {}

  const Request* peek() override {
    return next_ < requests_.size() ? &requests_[next_] : nullptr;
  }
  void pop() override { ++next_; }
  std::int64_t expected_requests() const override {
    return static_cast<std::int64_t>(requests_.size());
  }

 private:
  const std::vector<Request>& requests_;
  std::size_t next_ = 0;
};

/// Fingerprint salts. They predate the v3 checkpoint format and stay
/// byte-stable: the fingerprint also seeds sketch-mode replays.
constexpr const char* kReplaySalt = "fcad-fleet-checkpoint v1";
constexpr const char* kStreamSalt = "fcad-fleet-stream v2";

/// Binary checkpoint v3 leading/trailing magics.
constexpr char kCheckpointMagic[8] = {'F', 'C', 'A', 'D', 'F', 'L', 'T', '3'};
constexpr std::uint32_t kCheckpointVersion = 3;
constexpr std::uint32_t kCheckpointTrailer = 0x33544c46;  // "FLT3"

// ----------------------------------------------------------- fingerprints --

void absorb_common_fingerprint(util::Hash128& h, const ServiceModel& service,
                               const FleetOptions& options,
                               const ScenarioSpec& scenario,
                               const ElasticSpec& elastic) {
  // Elastic policies and fault schedules change per-shard results, so a
  // checkpoint from a different spec must never resume this run. The
  // canonical strings are byte-stable (format_number round-trips exactly).
  h.absorb_string(scenario_to_string(scenario));
  h.absorb_string(elastic_to_string(elastic));
  h.absorb(service.branches.size());
  for (const BranchService& b : service.branches) {
    h.absorb(static_cast<std::uint64_t>(b.capacity));
    h.absorb_double(b.pass_us);
  }
  h.absorb(static_cast<std::uint64_t>(options.instances));
  h.absorb(static_cast<std::uint64_t>(options.policy));
  h.absorb_double(options.batch_timeout_us);
  h.absorb_double(options.switch_penalty_us);
  h.absorb_double(options.sla_bound_us);
  h.absorb(static_cast<std::uint64_t>(options.shards));
  h.absorb(static_cast<std::uint64_t>(options.keep_records));
  h.absorb(static_cast<std::uint64_t>(options.latency_mode));
}

/// Fingerprint binding a checkpoint to its exact run: the service model,
/// the full request stream (hashed shard slice by shard slice, in shard
/// order), and every result-affecting fleet option. A mismatch means
/// "different replay" — the checkpoint is ignored. The clock kind is
/// deliberately absent: it paces events without changing results, so a
/// virtual run may resume a cancelled wall-clock one and vice versa.
/// process_index/process_count are likewise absent — the point of the
/// multi-process mode is that every process (and the final merge) agrees on
/// one fingerprint.
std::string replay_fingerprint(
    const ServiceModel& service,
    const std::vector<std::vector<Request>>& shard_requests,
    const FleetOptions& options, const ScenarioSpec& scenario,
    const ElasticSpec& elastic) {
  util::Hash128 h;
  h.absorb_string(kReplaySalt);
  absorb_common_fingerprint(h, service, options, scenario, elastic);
  h.absorb(shard_requests.size());
  for (const std::vector<Request>& shard : shard_requests) {
    h.absorb(shard.size());
    for (const Request& r : shard) {
      h.absorb(static_cast<std::uint64_t>(r.id));
      h.absorb(static_cast<std::uint64_t>(r.user));
      h.absorb(static_cast<std::uint64_t>(r.branch));
      h.absorb_double(r.arrival_us);
    }
  }
  return h.hex();
}

// ------------------------------------------------- binary checkpoint (v3) --
// One format for both latency modes: raw little-endian fields (like the
// sketch's own encoding). A shard block carries the counters, the exact
// latency/wait/record streams (empty in sketch mode), and the two sketches
// (empty in exact mode). Every read is exact-size, so a torn or truncated
// file fails a get and is rejected wholesale.

void shard_to_binary(std::ostream& os, const ShardStats& shard) {
  using util::put_raw;
  put_raw(os, shard.offered);
  put_raw(os, shard.completed);
  put_raw(os, shard.batches);
  put_raw(os, shard.sla_violations);
  put_raw(os, shard.max_queue_depth);
  put_raw(os, shard.scale_up_events);
  put_raw(os, shard.scale_down_events);
  put_raw(os, shard.reshard_splits);
  put_raw(os, shard.fault_events);
  put_raw(os, shard.recover_events);
  put_raw(os, shard.fill_sum);
  put_raw(os, shard.depth_integral_us);
  put_raw(os, shard.makespan_us);
  put_raw(os, static_cast<std::uint32_t>(shard.latency_mode));
  util::put_raw_vector(os, shard.latencies);
  util::put_raw_vector(os, shard.waits);
  util::put_raw_vector(os, shard.branch_completed);
  put_raw(os, static_cast<std::uint64_t>(shard.instances.size()));
  for (const InstanceStats& inst : shard.instances) {
    put_raw(os, inst.instance);
    put_raw(os, inst.batches);
    put_raw(os, inst.requests);
    put_raw(os, inst.branch_switches);
    put_raw(os, inst.busy_us);
  }
  put_raw(os, static_cast<std::uint64_t>(shard.records.size()));
  for (const RequestRecord& rec : shard.records) {
    put_raw(os, rec.id);
    put_raw(os, rec.user);
    put_raw(os, rec.branch);
    put_raw(os, rec.instance);
    put_raw(os, rec.arrival_us);
    put_raw(os, rec.start_us);
    put_raw(os, rec.finish_us);
  }
  shard.latency_sketch.write_binary(os);
  shard.wait_sketch.write_binary(os);
}

bool shard_from_binary(std::istream& in, ShardStats& shard) {
  using util::get_raw;
  std::uint32_t mode = 0;
  if (!get_raw(in, shard.offered) || !get_raw(in, shard.completed) ||
      !get_raw(in, shard.batches) || !get_raw(in, shard.sla_violations) ||
      !get_raw(in, shard.max_queue_depth) ||
      !get_raw(in, shard.scale_up_events) ||
      !get_raw(in, shard.scale_down_events) ||
      !get_raw(in, shard.reshard_splits) ||
      !get_raw(in, shard.fault_events) ||
      !get_raw(in, shard.recover_events) || !get_raw(in, shard.fill_sum) ||
      !get_raw(in, shard.depth_integral_us) ||
      !get_raw(in, shard.makespan_us) || !get_raw(in, mode) ||
      mode > static_cast<std::uint32_t>(LatencyMode::kSketch) ||
      !util::get_raw_vector(in, shard.latencies) ||
      !util::get_raw_vector(in, shard.waits) ||
      !util::get_raw_vector(in, shard.branch_completed)) {
    return false;
  }
  shard.latency_mode = static_cast<LatencyMode>(mode);
  std::uint64_t n = 0;
  if (!get_raw(in, n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    InstanceStats inst;
    if (!get_raw(in, inst.instance) || !get_raw(in, inst.batches) ||
        !get_raw(in, inst.requests) || !get_raw(in, inst.branch_switches) ||
        !get_raw(in, inst.busy_us)) {
      return false;
    }
    shard.instances.push_back(inst);
  }
  if (!get_raw(in, n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    RequestRecord rec;
    if (!get_raw(in, rec.id) || !get_raw(in, rec.user) ||
        !get_raw(in, rec.branch) || !get_raw(in, rec.instance) ||
        !get_raw(in, rec.arrival_us) || !get_raw(in, rec.start_us) ||
        !get_raw(in, rec.finish_us)) {
      return false;
    }
    shard.records.push_back(rec);
  }
  return QuantileSketch::read_binary(in, shard.latency_sketch) &&
         QuantileSketch::read_binary(in, shard.wait_sketch);
}

/// Atomically rewrites the checkpoint (temp file + rename) with every
/// finished shard. Called under the caller's mutex; a failed write only
/// costs resumability.
void write_checkpoint(const std::string& path, const std::string& fingerprint,
                      const std::vector<std::optional<ShardStats>>& slots) {
  using util::put_raw;
  const std::string tmp_path = path + ".tmp." + std::to_string(::getpid());
  bool written = false;
  {
    std::ofstream out(tmp_path, std::ios::binary);
    if (out) {
      out.write(kCheckpointMagic, sizeof kCheckpointMagic);
      put_raw(out, kCheckpointVersion);
      put_raw(out, static_cast<std::uint32_t>(fingerprint.size()));
      out.write(fingerprint.data(),
                static_cast<std::streamsize>(fingerprint.size()));
      put_raw(out, static_cast<std::uint32_t>(slots.size()));
      std::uint32_t present = 0;
      for (const auto& slot : slots) present += slot ? 1 : 0;
      put_raw(out, present);
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (!slots[s]) continue;
        put_raw(out, static_cast<std::uint32_t>(s));
        shard_to_binary(out, *slots[s]);
      }
      put_raw(out, kCheckpointTrailer);
      written = out.good();
    }
  }
  std::error_code ec;
  if (written) {
    std::filesystem::rename(tmp_path, path, ec);
    written = !ec;
  }
  if (!written) {
    std::filesystem::remove(tmp_path, ec);
    FCAD_LOG(kWarn) << "fleet checkpoint not writable: " << path;
  }
}

/// The exact final tail-percentile estimate for the terminal progress tick,
/// computed from the per-shard streams BEFORE merge_shard_stats consumes
/// them. Exact mode streams every latency through a TailTracker (O(tail)
/// memory); sketch mode folds the shard sketches and reads the quantile.
double final_tail_estimate(const std::vector<ShardStats>& shards,
                           std::int64_t total_completed,
                           const FleetOptions& options) {
  if (options.latency_mode == LatencyMode::kSketch) {
    QuantileSketch merged;
    bool first = true;
    for (const ShardStats& shard : shards) {
      if (first) {
        merged = shard.latency_sketch;
        first = false;
      } else {
        FCAD_CHECK_MSG(merged.merge(shard.latency_sketch).is_ok(),
                       "fleet: shard sketches disagree on seed/alpha");
      }
    }
    return merged.count() == 0 ? 0
                               : merged.quantile(options.progress_tail_pct);
  }
  TailTracker tail(total_completed, options.progress_tail_pct);
  for (const ShardStats& shard : shards) {
    for (double v : shard.latencies) tail.add(v);
  }
  return tail.partial();
}

}  // namespace

std::string stream_fingerprint(const ServiceModel& service,
                               const WorkloadOptions& workload,
                               const FleetOptions& options,
                               const ScenarioSpec& scenario,
                               const ElasticSpec& elastic) {
  // The request stream is a pure function of the workload + scenario
  // parameters, so hashing those (instead of a stream the whole point is
  // never to materialize) binds the checkpoint just as tightly.
  util::Hash128 h;
  h.absorb_string(kStreamSalt);
  absorb_common_fingerprint(h, service, options, scenario, elastic);
  h.absorb(static_cast<std::uint64_t>(workload.process));
  h.absorb(static_cast<std::uint64_t>(workload.users));
  h.absorb(static_cast<std::uint64_t>(workload.branches));
  h.absorb_double(workload.frame_rate_hz);
  h.absorb_double(workload.duration_s);
  h.absorb(workload.seed);
  h.absorb_double(workload.burst_on_s);
  h.absorb_double(workload.burst_off_s);
  h.absorb_double(workload.burst_factor);
  h.absorb(static_cast<std::uint64_t>(workload.target_requests));
  return h.hex();
}

int load_checkpoint(const std::string& path, const std::string& fingerprint,
                    std::vector<std::optional<ShardStats>>& slots) {
  using util::get_raw;
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  // Text v1 and binary v2 files fail the magic: the resume starts over.
  char magic[sizeof kCheckpointMagic];
  in.read(magic, sizeof magic);
  std::uint32_t version = 0;
  std::uint32_t fp_len = 0;
  if (in.gcount() != sizeof magic ||
      std::memcmp(magic, kCheckpointMagic, sizeof magic) != 0 ||
      !get_raw(in, version) || version != kCheckpointVersion ||
      !get_raw(in, fp_len) || fp_len != fingerprint.size()) {
    FCAD_LOG(kWarn) << "fleet checkpoint unreadable, restarting: " << path;
    return 0;
  }
  std::string fp(fp_len, '\0');
  in.read(fp.data(), static_cast<std::streamsize>(fp_len));
  if (in.gcount() != static_cast<std::streamsize>(fp_len) ||
      fp != fingerprint) {
    FCAD_LOG(kWarn) << "fleet checkpoint is for a different replay, "
                       "restarting: "
                    << path;
    return 0;
  }
  std::uint32_t total = 0;
  std::uint32_t present = 0;
  if (!get_raw(in, total) || total != slots.size() || !get_raw(in, present) ||
      present > total) {
    FCAD_LOG(kWarn) << "fleet checkpoint shard count mismatch, restarting: "
                    << path;
    return 0;
  }
  std::vector<std::optional<ShardStats>> loaded(slots.size());
  for (std::uint32_t i = 0; i < present; ++i) {
    std::uint32_t index = 0;
    ShardStats shard;
    if (!get_raw(in, index) || index >= slots.size() ||
        !shard_from_binary(in, shard)) {
      FCAD_LOG(kWarn) << "fleet checkpoint torn or truncated, restarting: "
                      << path;
      return 0;
    }
    loaded[index] = std::move(shard);
  }
  std::uint32_t trailer = 0;
  if (!get_raw(in, trailer) || trailer != kCheckpointTrailer) {
    FCAD_LOG(kWarn) << "fleet checkpoint torn or truncated, restarting: "
                    << path;
    return 0;
  }
  slots = std::move(loaded);
  return static_cast<int>(present);
}

StatusOr<ShardRun> run_shard(const ServiceModel& service,
                             const FleetOptions& options,
                             const ElasticSpec& elastic,
                             const ShardElasticPlan& plan, int shard_index,
                             std::uint64_t sketch_seed, Clock& clock,
                             RequestSource& source, const ShardHooks& hooks) {
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
  config.max_cells =
      elastic.reshard_enabled() ? elastic.reshard.max_cells : 1;
  config.expected_requests = source.expected_requests();
  config.latency_mode = options.latency_mode;
  config.sketch_seed = sketch_seed;
  FleetEngine engine(service, config, &clock);

  // The controller exists whenever a policy or fault schedule has work to
  // do; its decisions are functions of shard-local state at clock readings,
  // so its presence never couples shards or threads.
  std::optional<ElasticController> controller;
  if (elastic.enabled() || !plan.faults.empty()) {
    controller.emplace(elastic, plan, options.sla_bound_us);
    engine.set_controller(&*controller);
  }
  // Admission keys on the same rolling-p99 window as the reshard trigger,
  // so the two drift detectors never diverge in percentile semantics.
  std::optional<RollingP99Window> admission;
  if (hooks.admission_window > 0) admission.emplace(hooks.admission_window);

  ProgressSink* const progress = hooks.progress;
  const util::RunScope* const scope =
      progress != nullptr ? progress->scope : nullptr;
  engine.set_batch_hook([&](const Batch& batch, int instance, double,
                            double finish_us) {
    if (progress != nullptr) {
      progress->completed.fetch_add(
          static_cast<std::int64_t>(batch.requests.size()),
          std::memory_order_relaxed);
    }
    if (admission) {
      for (const Request& r : batch.requests) {
        admission->add(finish_us - r.arrival_us);
      }
    }
    source.on_dispatch(batch, instance, finish_us);
  });

  if (hooks.on_start) hooks.on_start();
  ShardRun run;
  while (true) {
    if (scope != nullptr && scope->should_stop()) return progress->cancelled();
    source.poll();
    // Ingest every arrival due by the clock reading. Admission grows before
    // it drops: while scale-up headroom remains the request is admitted and
    // the autoscaler absorbs the drift at its next tick.
    while (const Request* r = source.peek()) {
      if (r->arrival_us > engine.now_us()) break;
      if (admission && admission->full() &&
          admission->p99() > hooks.admission_bound_us &&
          (!controller || !controller->can_scale_up())) {
        ++run.shed;
        source.on_shed(*r);
      } else {
        engine.enqueue(*r);
      }
      source.pop();
    }
    const Request* upcoming = source.peek();
    const bool ended = upcoming == nullptr && source.ended();
    // After the last arrival the batcher drains its tail on the timeout
    // schedule.
    if (ended) engine.close();

    if (controller) controller->tick(engine, engine.now_us());
    engine.dispatch_ready();
    if (progress != nullptr) progress->maybe_emit(engine);

    // Advance to the next event: an arrival, a batching deadline, an
    // elastic boundary (evaluation cadence or fault transition), or — when
    // a batch is ready but every instance is busy — an instance freeing up.
    double t_us = engine.next_event_us();
    if (upcoming != nullptr) t_us = std::min(t_us, upcoming->arrival_us);
    if (controller) {
      t_us = std::min(t_us, controller->next_event_us(engine.now_us()));
    }
    // The controller's evaluation cadence stays finite after the work is
    // done, so "no event left" alone cannot terminate the loop — the
    // drained check does.
    if (ended && (engine.drained() || t_us == kInf)) break;
    // Virtual time must advance strictly every iteration — an equal-time
    // event would loop forever on exact readings. A steady clock keeps
    // moving between calls, so the wall reading can legitimately overtake
    // the event schedule; advancing to a past deadline then returns at
    // once. +infinity (live, nothing due) sleeps until the receiver's
    // wake().
    if (options.clock == ClockKind::kVirtual) {
      FCAD_CHECK_MSG(t_us > engine.now_us(),
                     "serving: simulation time did not advance");
    }
    engine.advance_to(t_us);
  }

  run.stats = engine.take_stats();
  FCAD_CHECK_MSG(run.stats.completed == run.stats.offered,
                 "serving: lost requests in flight");
  return run;
}

StatusOr<ReplayPlan> plan_replay(const ServeSpec& spec,
                                 const FleetOptions& options) {
  // The *provisioned* instance pool splits into contiguous per-shard slices
  // (with a disabled elastic spec it is exactly the active fleet).
  auto plans = plan_elastic_shards(spec.elastic, spec.scenario.faults,
                                   options.instances, options.shards);
  if (!plans.is_ok()) return plans.status();
  ReplayPlan plan;
  plan.options = options;
  plan.elastic = spec.elastic;
  plan.plans = std::move(plans).value();
  plan.provisioned_total =
      plan.plans.back().first_instance + plan.plans.back().provisioned;
  plan.shard_hi = options.shards;
  return plan;
}

StatusOr<ServingStats> run_replay(const ServiceModel& service,
                                  const ReplayPlan& plan,
                                  const OpenShard& open_shard,
                                  const util::RunScope* scope,
                                  std::int64_t* shed) {
  const FleetOptions& options = plan.options;
  const int num_shards = options.shards;
  std::vector<std::optional<ShardStats>> slots(
      static_cast<std::size_t>(num_shards));
  int resumed = 0;
  if (!options.checkpoint_path.empty()) {
    resumed = load_checkpoint(options.checkpoint_path, plan.fingerprint, slots);
    // A resumable checkpoint only ever carries this process's own shards —
    // drop anything outside the owned range (e.g. a file from a different
    // process split) rather than reporting shards this process does not own.
    for (int s = 0; s < num_shards; ++s) {
      auto& slot = slots[static_cast<std::size_t>(s)];
      if ((s < plan.shard_lo || s >= plan.shard_hi) && slot) {
        slot.reset();
        --resumed;
      }
    }
  }

  ProgressSink sink;
  sink.scope = scope;
  sink.offered = plan.offered;
  sink.chunk =
      scope != nullptr ? std::max<std::int64_t>(1, plan.offered / 20) : 0;
  std::int64_t already_completed = 0;
  for (const auto& slot : slots) {
    if (slot) already_completed += slot->completed;
  }
  sink.completed.store(already_completed);
  sink.next_at.store(
      sink.chunk > 0 ? (already_completed / sink.chunk + 1) * sink.chunk : 0);
  ShardHooks hooks = plan.hooks;
  hooks.progress = &sink;

  std::mutex slot_mutex;
  const int owned = plan.shard_hi - plan.shard_lo;
  std::vector<Status> shard_status(static_cast<std::size_t>(owned),
                                   Status::ok());
  std::vector<std::int64_t> shard_shed(static_cast<std::size_t>(owned), 0);
  auto run_one = [&](std::int64_t i) {
    const int s = plan.shard_lo + static_cast<int>(i);
    const auto index = static_cast<std::size_t>(s);
    if (slots[index]) return;  // resumed from the checkpoint
    auto source = open_shard(s);
    if (!source.is_ok()) {
      shard_status[static_cast<std::size_t>(i)] = source.status();
      return;
    }
    const Request* first = (*source)->peek();
    const std::unique_ptr<Clock> clock =
        make_clock(options.clock, first != nullptr ? first->arrival_us : 0);
    auto result = run_shard(service, options, plan.elastic, plan.plans[index],
                            s, plan.sketch_seed, *clock, **source, hooks);
    if (Status fs = (*source)->status(); !fs.is_ok()) {
      shard_status[static_cast<std::size_t>(i)] = fs;
      return;
    }
    if (!result.is_ok()) {
      shard_status[static_cast<std::size_t>(i)] = result.status();
      return;
    }
    shard_shed[static_cast<std::size_t>(i)] = result->shed;
    std::lock_guard<std::mutex> lock(slot_mutex);
    slots[index] = std::move(result->stats);
    if (!options.checkpoint_path.empty()) {
      write_checkpoint(options.checkpoint_path, plan.fingerprint, slots);
      obs::MetricsRegistry::global()
          .counter("serving.fleet.checkpoint_writes")
          .add(1);
      if (obs::Tracer* const tracer = obs::tracer()) {
        // Stamped at the shard's virtual makespan — where the shard's
        // timeline ends, which is when its state became durable.
        tracer->instant(shard_lane(s), "checkpoint write", "serving",
                        slots[index]->makespan_us);
      }
    }
  };
  if (owned == 1) {
    run_one(0);
  } else {
    util::ThreadPool& pool = util::ThreadPool::shared(
        scope != nullptr ? scope->threads(options.threads) : options.threads);
    pool.parallel_for(owned, run_one);
  }

  bool cancelled = false;
  for (const Status& s : shard_status) {
    if (s.is_ok()) continue;
    if (s.code() == StatusCode::kCancelled) {
      cancelled = true;
      continue;
    }
    return s;
  }
  if (cancelled) return sink.cancelled();

  std::vector<ShardStats> shards;
  shards.reserve(static_cast<std::size_t>(owned));
  for (int s = plan.shard_lo; s < plan.shard_hi; ++s) {
    shards.push_back(std::move(*slots[static_cast<std::size_t>(s)]));
  }

  // The terminal tick: every replay with an observer ends with a progress
  // event whose estimate is the final tail percentile over ALL latencies
  // (exact in exact mode, the merged-sketch quantile in sketch mode). A
  // sharded run's last in-loop tick carries the emitting shard's local
  // estimate even when it lands exactly at completed == offered, so only
  // the single-shard loop (whose tracker saw every sample) may skip the
  // terminal emit. Computed before the merge, which consumes the shards.
  std::int64_t total_completed = 0;
  for (const ShardStats& shard : shards) total_completed += shard.completed;
  const bool terminal_tick =
      scope != nullptr &&
      (owned > 1 || sink.last_emitted.load() != total_completed);
  const double final_tail =
      terminal_tick ? final_tail_estimate(shards, total_completed, options)
                    : 0;

  ServingStats stats =
      merge_shard_stats(std::move(shards), service, options.sla_bound_us,
                        plan.provisioned_total, resumed);
  FCAD_CHECK_MSG(stats.completed == stats.offered,
                 "fleet: lost requests in flight");
  if (shed != nullptr) {
    *shed = 0;
    for (std::int64_t n : shard_shed) *shed += n;
  }

  if (terminal_tick) sink.emit(stats.completed, final_tail);

  return stats;
}

StatusOr<ServingStats> replay_trace(const ServiceModel& service,
                                    const std::vector<Request>& trace,
                                    const ServeSpec& spec,
                                    const FleetOptions& options,
                                    const ShardHooks& hooks,
                                    const util::RunScope* scope,
                                    std::int64_t* shed) {
  // Static partition: user u -> shard u mod S. One counting pass sizes
  // every slice, one partition pass fills them. Partitioning preserves
  // relative order, so a per-shard stable sort yields exactly the slice a
  // global stable sort would have handed the shard — and already-sorted
  // input (every generator's output) skips the sorts entirely.
  const int num_shards = options.shards;
  std::vector<std::size_t> shard_sizes(static_cast<std::size_t>(num_shards),
                                       0);
  for (const Request& r : trace) {
    if (r.branch < 0 || r.branch >= service.num_branches()) {
      return Status::invalid_argument("fleet: request branch out of range");
    }
    ++shard_sizes[static_cast<std::size_t>(r.user % num_shards)];
  }
  std::vector<std::vector<Request>> shard_requests(
      static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shard_requests[static_cast<std::size_t>(s)].reserve(
        shard_sizes[static_cast<std::size_t>(s)]);
  }
  const auto by_arrival = [](const Request& a, const Request& b) {
    return a.arrival_us < b.arrival_us;
  };
  const bool presorted =
      std::is_sorted(trace.begin(), trace.end(), by_arrival);
  for (const Request& r : trace) {
    shard_requests[static_cast<std::size_t>(r.user % num_shards)].push_back(
        r);
  }
  if (!presorted) {
    for (std::vector<Request>& shard : shard_requests) {
      std::stable_sort(shard.begin(), shard.end(), by_arrival);
    }
  }

  auto plan_or = plan_replay(spec, options);
  if (!plan_or.is_ok()) return plan_or.status();
  ReplayPlan& plan = *plan_or;
  plan.offered = static_cast<std::int64_t>(trace.size());
  plan.hooks = hooks;
  // Only a checkpoint or sketch binding needs the fingerprint; it hashes
  // the whole trace, so exact replays without a checkpoint skip it.
  const bool sketch_mode = options.latency_mode == LatencyMode::kSketch;
  if (!options.checkpoint_path.empty() || sketch_mode) {
    plan.fingerprint = replay_fingerprint(service, shard_requests, options,
                                          spec.scenario, spec.elastic);
    if (sketch_mode) {
      plan.sketch_seed = sketch_seed_from_fingerprint(plan.fingerprint);
    }
  }
  const OpenShard open_shard =
      [&](int s) -> StatusOr<std::unique_ptr<RequestSource>> {
    const auto index = static_cast<std::size_t>(s);
    return std::unique_ptr<RequestSource>(
        std::make_unique<VectorSource>(shard_requests[index]));
  };
  return run_replay(service, plan, open_shard, scope, shed);
}

}  // namespace fcad::serving
