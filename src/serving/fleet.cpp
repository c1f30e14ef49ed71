#include "serving/fleet.hpp"

#include <cctype>
#include <memory>
#include <optional>
#include <utility>

#include "serving/driver.hpp"
#include "serving/stream.hpp"

namespace fcad::serving {
namespace {

/// Filters a full-workload stream down to `user % num_shards == shard`,
/// buffering one request — the shard sees exactly the slice the static
/// partition in simulate_fleet would hand it, without the workload ever
/// being materialized.
class StreamShardSource final : public RequestSource {
 public:
  StreamShardSource(std::unique_ptr<RequestStream> stream, int shard,
                    int num_shards, std::int64_t target)
      : stream_(std::move(stream)),
        shard_(shard),
        num_shards_(num_shards),
        target_(target) {}

  const Request* peek() override {
    while (!buffered_) {
      std::optional<Request> r = stream_->next();
      if (!r) return nullptr;
      if (r->user % num_shards_ == shard_) buffered_ = *r;
    }
    return &*buffered_;
  }
  void pop() override { buffered_.reset(); }
  std::int64_t expected_requests() const override { return target_; }
  Status status() const override { return stream_->finish_status(); }

 private:
  std::unique_ptr<RequestStream> stream_;
  int shard_;
  int num_shards_;
  std::int64_t target_;
  std::optional<Request> buffered_;
};

/// Shared head of the streaming replay and the checkpoint merge: the
/// stream-only checks, the derived workload, and the stream fingerprint
/// every process (and the merge) must agree on.
struct StreamPlan {
  ReplayPlan replay;
  WorkloadOptions workload;
};

StatusOr<StreamPlan> plan_stream_replay(const ServiceModel& service,
                                        const ServeSpec& spec) {
  auto options = resolved_fleet_options(spec, &service);
  if (!options.is_ok()) return options.status();
  StreamPlan plan;
  plan.workload = spec.workload;
  const WorkloadOptions workload_defaults;
  if (plan.workload.branches == workload_defaults.branches) {
    plan.workload.branches = service.num_branches();
  }
  if (plan.workload.process == ArrivalProcess::kTrace) {
    return Status::invalid_argument(
        "fleet: the streaming replay generates its workload — a trace is "
        "already materialized, use simulate_fleet");
  }
  if (plan.workload.target_requests <= 0) {
    return Status::invalid_argument(
        "fleet: the streaming replay needs workload.target_requests > 0 (a "
        "definite end the shards can run to)");
  }
  if (plan.workload.branches > service.num_branches()) {
    return Status::invalid_argument(
        "fleet: workload.branches exceeds the service model's branches");
  }
  auto replay = plan_replay(spec, *options);
  if (!replay.is_ok()) return replay.status();
  plan.replay = std::move(replay).value();
  plan.replay.offered = plan.workload.target_requests;
  plan.replay.fingerprint = stream_fingerprint(
      service, plan.workload, *options, spec.scenario, spec.elastic);
  if (options->latency_mode == LatencyMode::kSketch) {
    plan.replay.sketch_seed =
        sketch_seed_from_fingerprint(plan.replay.fingerprint);
  }
  return plan;
}

}  // namespace

const char* to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round-robin";
    case DispatchPolicy::kLeastLoaded: return "least-loaded";
    case DispatchPolicy::kBranchAffinity: return "branch-affinity";
  }
  return "?";
}

StatusOr<DispatchPolicy> dispatch_policy_by_name(const std::string& name) {
  std::string lower;
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "round-robin" || lower == "rr") {
    return DispatchPolicy::kRoundRobin;
  }
  if (lower == "least-loaded" || lower == "least") {
    return DispatchPolicy::kLeastLoaded;
  }
  if (lower == "branch-affinity" || lower == "affinity") {
    return DispatchPolicy::kBranchAffinity;
  }
  return Status::not_found("unknown dispatch policy '" + name + "'");
}

StatusOr<FleetOptions> resolved_fleet_options(const ServeSpec& spec,
                                              const ServiceModel* service) {
  FleetOptions options = spec.fleet;
  const FleetOptions fleet_defaults;
  const SlaOptions sla_defaults;
  const bool fleet_bound_set =
      spec.fleet.sla_bound_us != fleet_defaults.sla_bound_us;
  const bool sla_bound_set =
      spec.sla.p99_bound_us != sla_defaults.p99_bound_us;
  if (fleet_bound_set && sla_bound_set &&
      spec.fleet.sla_bound_us != spec.sla.p99_bound_us) {
    return Status::invalid_argument(
        "ServeSpec: sla.p99_bound_us and fleet.sla_bound_us disagree — "
        "state the bound once");
  }
  if (sla_bound_set) options.sla_bound_us = spec.sla.p99_bound_us;
  if (spec.clock != ClockKind::kVirtual &&
      spec.fleet.clock != ClockKind::kVirtual &&
      spec.clock != spec.fleet.clock) {
    return Status::invalid_argument(
        "ServeSpec: clock and fleet.clock disagree — state the clock once");
  }
  if (spec.clock != ClockKind::kVirtual) options.clock = spec.clock;
  if (options.instances < 1) {
    return Status::invalid_argument("fleet: instances must be >= 1");
  }
  if (options.shards < 1 || options.shards > options.instances) {
    return Status::invalid_argument(
        "fleet: shards must be in [1, instances], got " +
        std::to_string(options.shards));
  }
  if (Status s = validate_percentile(options.progress_tail_pct); !s.is_ok()) {
    return Status::invalid_argument("fleet: progress_tail_pct: " +
                                    s.message());
  }
  if (service != nullptr && service->num_branches() < 1) {
    return Status::invalid_argument("fleet: service model has no branches");
  }
  if (Status s = validate_scenario(spec.scenario); !s.is_ok()) return s;
  if (Status s = validate_elastic(spec.elastic); !s.is_ok()) return s;
  if (options.latency_mode == LatencyMode::kSketch && options.keep_records) {
    return Status::invalid_argument(
        "fleet: keep_records requires latency_mode exact — sketch mode keeps "
        "no per-request streams");
  }
  return options;
}

StatusOr<ServingStats> simulate_fleet(const ServiceModel& service,
                                      const std::vector<Request>& requests,
                                      const ServeSpec& spec,
                                      const util::RunScope* scope) {
  auto options = resolved_fleet_options(spec, &service);
  if (!options.is_ok()) return options.status();
  if (options->process_count != 1 || options->process_index != 0) {
    return Status::invalid_argument(
        "fleet: process sharding requires the streaming replay "
        "(simulate_fleet_stream)");
  }
  return replay_trace(service, requests, spec, *options, {}, scope);
}

StatusOr<ServingStats> simulate_fleet(const ServiceModel& service,
                                      const ServeSpec& spec,
                                      const util::RunScope* scope) {
  WorkloadOptions workload = spec.workload;
  const WorkloadOptions workload_defaults;
  if (workload.branches == workload_defaults.branches) {
    workload.branches = service.num_branches();
  }
  auto requests = generate_scenario_workload(workload, spec.scenario);
  if (!requests.is_ok()) return requests.status();
  return simulate_fleet(service, *requests, spec, scope);
}

StatusOr<ServingStats> simulate_fleet_stream(const ServiceModel& service,
                                             const ServeSpec& spec,
                                             const util::RunScope* scope) {
  auto plan_or = plan_stream_replay(service, spec);
  if (!plan_or.is_ok()) return plan_or.status();
  StreamPlan& plan = *plan_or;
  const FleetOptions& options = plan.replay.options;
  const int num_shards = options.shards;
  if (options.process_count < 1 || options.process_count > num_shards) {
    return Status::invalid_argument(
        "fleet: process_count must be in [1, shards], got " +
        std::to_string(options.process_count));
  }
  if (options.process_index < 0 ||
      options.process_index >= options.process_count) {
    return Status::invalid_argument(
        "fleet: process_index must be in [0, process_count), got " +
        std::to_string(options.process_index));
  }
  if (options.process_count > 1 && options.checkpoint_path.empty()) {
    return Status::invalid_argument(
        "fleet: process sharding needs a checkpoint_path — without one the "
        "partial results could never be merged");
  }

  // This process's contiguous shard range; the returned stats cover it
  // alone. A single-process run owns every shard, and its result is
  // bit-identical to the materialized overload on the same spec.
  plan.replay.shard_lo = static_cast<int>(
      static_cast<std::int64_t>(options.process_index) * num_shards /
      options.process_count);
  plan.replay.shard_hi = static_cast<int>(
      static_cast<std::int64_t>(options.process_index + 1) * num_shards /
      options.process_count);
  const std::int64_t target = plan.workload.target_requests;
  // Each shard pulls its own full-workload stream and keeps only the users
  // it owns — memory is O(users), never O(requests). The generator is
  // deterministic, so every shard sees the identical global sequence.
  const OpenShard open_shard =
      [&](int s) -> StatusOr<std::unique_ptr<RequestSource>> {
    auto stream = make_request_stream(plan.workload, spec.scenario);
    if (!stream.is_ok()) return stream.status();
    return std::unique_ptr<RequestSource>(std::make_unique<StreamShardSource>(
        std::move(stream).value(), s, num_shards, target));
  };
  auto stats = run_replay(service, plan.replay, open_shard, scope);
  if (stats.is_ok() && options.process_count == 1) {
    FCAD_CHECK_MSG(stats->completed == target,
                   "fleet: stream ended short of target_requests");
  }
  return stats;
}

StatusOr<ServingStats> merge_replay_checkpoints(
    const ServiceModel& service, const ServeSpec& spec,
    const std::vector<std::string>& checkpoint_paths) {
  auto plan_or = plan_stream_replay(service, spec);
  if (!plan_or.is_ok()) return plan_or.status();
  const ReplayPlan& plan = plan_or->replay;
  const int num_shards = plan.options.shards;
  if (checkpoint_paths.empty()) {
    return Status::invalid_argument("merge: no checkpoint files given");
  }

  // Unlike checkpoint *resume* (where a bad file just restarts work),
  // merging has nothing to fall back to — every anomaly is an error.
  std::vector<std::optional<ShardStats>> slots(
      static_cast<std::size_t>(num_shards));
  for (const std::string& path : checkpoint_paths) {
    std::vector<std::optional<ShardStats>> file_slots(
        static_cast<std::size_t>(num_shards));
    if (load_checkpoint(path, plan.fingerprint, file_slots) == 0) {
      return Status::invalid_argument(
          "merge: checkpoint unreadable, torn, empty, or for a different "
          "replay: " +
          path);
    }
    for (int s = 0; s < num_shards; ++s) {
      const auto index = static_cast<std::size_t>(s);
      if (!file_slots[index]) continue;
      if (slots[index]) {
        return Status::invalid_argument(
            "merge: shard " + std::to_string(s) +
            " appears in more than one checkpoint (overlapping process "
            "ranges?): " +
            path);
      }
      slots[index] = std::move(file_slots[index]);
    }
  }
  for (int s = 0; s < num_shards; ++s) {
    if (!slots[static_cast<std::size_t>(s)]) {
      return Status::invalid_argument(
          "merge: shard " + std::to_string(s) +
          " is missing from every checkpoint — did all " +
          std::to_string(num_shards) + "-shard processes finish?");
    }
  }

  std::vector<ShardStats> shards;
  shards.reserve(slots.size());
  std::int64_t total_offered = 0;
  for (auto& slot : slots) {
    total_offered += slot->offered;
    shards.push_back(std::move(*slot));
  }
  if (total_offered != plan.offered) {
    return Status::invalid_argument(
        "merge: checkpoints cover " + std::to_string(total_offered) +
        " requests but the spec targets " + std::to_string(plan.offered));
  }

  ServingStats stats =
      merge_shard_stats(std::move(shards), service, plan.options.sla_bound_us,
                        plan.provisioned_total, num_shards);
  FCAD_CHECK_MSG(stats.completed == stats.offered,
                 "merge: lost requests in flight");
  return stats;
}

}  // namespace fcad::serving
