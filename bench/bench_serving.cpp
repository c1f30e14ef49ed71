// Serving benches on the Table I avatar decoder, three modes:
//
//   bench_serving
//     Classic users x fleet x SLA sweep (Poisson arrivals at 30 Hz per
//     user, least-loaded dispatch). Emits the full matrix as CSV
//     (bench_serving.csv, or --csv <path>); prints the 33 ms frame-budget
//     slice as a table.
//
//   bench_serving --replay <requests> [--shards S] [--threads T]
//                 [--checkpoint <file>] [--cancel-at <frac>]
//                 [--scenario <spec>] [--elastic <spec>]
//     Large-trace sharded replay: searches the hardware once, then replays
//     a million-request-scale Poisson trace across a statically sharded
//     fleet. Stats are bit-identical for any --threads at a fixed shard
//     count (CSV/JSON outputs carry only deterministic fields; wall time
//     goes to stdout). --checkpoint enables per-shard checkpointing;
//     --cancel-at f cancels via RunControl once f of the requests
//     completed (exit code 3), and a rerun with the same flags resumes
//     from the checkpoint to the same final stats. --scenario shapes the
//     trace (diurnal drift, flash crowds, churn, instance faults) and
//     --elastic layers the autoscale/reshard policy on the fleet; both are
//     deterministic and fold into the checkpoint fingerprint.
//
//   bench_serving --replay <requests> --stream [--latency-mode sketch]
//                 [--process-shard i/N] / bench_serving --replay <requests>
//                 --merge <a,b,...>
//     Billion-request path: --stream generates each shard's arrivals
//     lazily (the workload vector never exists), --latency-mode sketch
//     swaps exact latency streams for mergeable quantile sketches (O(1)
//     memory per shard, quantiles within 0.1% relative error), and
//     --process-shard i/N splits the shard ranges across N independent
//     processes whose binary v3 checkpoints --merge folds into stats
//     bit-identical to the single-process run.
//
//   bench_serving --traffic-cache <dir>
//     Runs an SLA-aware kTraffic search through core::Pipeline with the
//     spec-hash artifact cache under <dir>: the first run searches and
//     writes the artifact, a second identical run must be a cache hit with
//     bit-identical stats (the --json report carries the hit/miss
//     counters for CI to assert).
#include <cstdio>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "arch/reorg.hpp"
#include "core/pipeline.hpp"
#include "dse/search_driver.hpp"
#include "nn/zoo/avatar_decoder.hpp"
#include "obs/export.hpp"
#include "serving/fleet.hpp"
#include "serving/replay.hpp"
#include "serving/service.hpp"
#include "serving/stats.hpp"
#include "serving/workload.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/run_control.hpp"
#include "util/table.hpp"

namespace {

using namespace fcad;

/// Unwraps a parsed flag or exits with a clean error message.
template <typename T>
T flag_value(StatusOr<T> value) {
  if (!value.is_ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(*value);
}

/// One small hardware search shared by every mode (batch {1,2,2} on the
/// ZU9CG budget), returning the winning search result.
dse::SearchResult search_decoder(const arch::ReorganizedModel& model,
                                 int threads, int population, int iterations,
                                 std::uint64_t seed) {
  dse::SearchSpec spec;
  spec.search.population = population;
  spec.search.iterations = iterations;
  spec.search.seed = seed;
  spec.control.threads = threads;
  auto outcome = dse::SearchDriver(model, arch::platform_zu9cg()).run(spec);
  FCAD_CHECK_MSG(outcome.is_ok(), outcome.status().message());
  return std::move(outcome)->search;
}

int run_replay(const ArgParser& args) {
  // --metrics-out / --trace-out export the obs registry and a Perfetto
  // trace; neither touches the CSV/JSON outputs CI diffs for bit-identity.
  // The replay itself — flags, workload, banner, artifacts, exit codes —
  // is serving::run_replay_cli, shared with serving_cli and serving_daemon;
  // only the hardware search lives here.
  obs::ObservationScope obs_scope(args.get("metrics-out", ""),
                                  args.get("trace-out", ""));
  serving::ReplayJob job = flag_value(serving::replay_job_from_args(args));

  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  FCAD_CHECK_MSG(model.is_ok(), model.status().message());
  const dse::SearchResult search = search_decoder(
      *model, job.spec.fleet.threads, 100, 12, /*seed=*/42);
  const serving::ServiceModel service =
      serving::service_model_from_eval(search.config, search.eval);

  const int rc = serving::run_replay_cli(service, job);
  if (!obs_scope.finish()) return 1;
  return rc;
}

int run_traffic_cache(const ArgParser& args) {
  obs::ObservationScope obs_scope(args.get("metrics-out", ""),
                                  args.get("trace-out", ""));
  const std::string cache_dir = args.get("traffic-cache", "");
  const auto threads =
      static_cast<int>(flag_value(args.get_int("threads", 0)));

  dse::SearchSpec spec;
  spec.kind = dse::SearchKind::kTraffic;
  spec.search.population = 60;
  spec.search.iterations = 8;
  spec.search.seed = 42;
  spec.control.threads = threads;
  spec.traffic.workload.users = 2;
  spec.traffic.workload.frame_rate_hz = 30;
  spec.traffic.workload.duration_s = 0.5;
  spec.traffic.workload.seed = 42;
  spec.traffic.fleet.instances = 2;
  spec.traffic.fleet.batch_timeout_us = 4000;
  spec.traffic.max_batch = 2;

  core::Pipeline pipeline(nn::zoo::avatar_decoder(), arch::platform_zu9cg());
  pipeline.set_artifact_cache_dir(cache_dir);
  std::printf("=== kTraffic search via the artifact cache (%s) ===\n",
              cache_dir.c_str());
  if (Status s = pipeline.optimize(spec); !s.is_ok()) {
    std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
    return 1;
  }
  const dse::TrafficSearchResult& result =
      pipeline.search()->outcome.traffic;
  std::printf("artifact cache: %d hit(s), %d miss(es)\n",
              pipeline.artifact_cache_hits(), pipeline.artifact_cache_misses());
  std::printf("users served: %d   SLA met: %s   sla fitness: %s\n",
              result.users_served, result.sla_met ? "yes" : "no",
              format_fixed(result.sla_fitness, 3).c_str());

  if (args.has("json")) {
    JsonWriter json;
    json.begin_object();
    json.key("schema_version").value(1);
    json.key("bench").value("serving_traffic_cache");
    json.key("cache_hits").value(pipeline.artifact_cache_hits());
    json.key("cache_misses").value(pipeline.artifact_cache_misses());
    json.key("cache_key").value(pipeline.artifact_cache_key(spec));
    json.key("users_served").value(result.users_served);
    json.key("sla_met").value(result.sla_met);
    json.key("sla_fitness").value(result.sla_fitness);
    json.key("batch_sizes").begin_array();
    for (int b : result.batch_sizes) json.value(b);
    json.end_array();
    json.key("stats");
    serving::serving_stats_json(json, result.stats);
    json.end_object();
    const std::string path = args.get("json", "");
    if (!json.write_file(path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
      return 1;
    }
  }
  return obs_scope.finish() ? 0 : 1;
}

int run_sweep(const ArgParser& args) {
  obs::ObservationScope obs_scope(args.get("metrics-out", ""),
                                  args.get("trace-out", ""));
  const std::string csv_path = args.get("csv", "bench_serving.csv");
  const auto threads =
      static_cast<int>(flag_value(args.get_int("threads", 0)));

  std::printf("=== serving sweep: users x fleet x SLA (avatar decoder) ===\n\n");

  auto model = arch::reorganize(nn::zoo::avatar_decoder());
  FCAD_CHECK_MSG(model.is_ok(), model.status().message());

  // One hardware search (batch 1 per branch on the ZU9CG budget); the sweep
  // varies the serving layer on top of the resulting service model.
  const dse::SearchResult search = search_decoder(*model, threads, 100, 12,
                                                  /*seed=*/42);
  const serving::ServiceModel service =
      serving::service_model_from_eval(search.config, search.eval);
  std::printf(
      "searched config: min %s FPS, uniform-mix saturation %s req/s per "
      "instance\n\n",
      format_fixed(search.eval.min_fps, 1).c_str(),
      format_fixed(service.peak_rps(), 0).c_str());

  const std::vector<int> user_counts = {1, 2, 4, 8, 16, 32};
  const std::vector<int> fleet_sizes = {1, 2, 4, 8};
  const std::vector<double> sla_bounds_us = {16666.7, 33333.3, 66666.7};

  CsvWriter csv(serving::serving_csv_header({"users", "instances"}));
  TablePrinter table({"Users", "Instances", "p99", "Violations", "Util",
                      "SLA 33ms"});
  for (int users : user_counts) {
    serving::WorkloadOptions workload;
    workload.users = users;
    workload.branches = model->num_branches();
    workload.frame_rate_hz = 30;
    workload.duration_s = 2.0;
    workload.seed = 42;
    auto requests = serving::generate_workload(workload);
    FCAD_CHECK_MSG(requests.is_ok(), requests.status().message());

    for (int instances : fleet_sizes) {
      for (double sla_us : sla_bounds_us) {
        serving::ServeSpec spec;
        spec.fleet.instances = instances;
        spec.fleet.policy = serving::DispatchPolicy::kLeastLoaded;
        spec.fleet.switch_penalty_us = 500;
        spec.sla.p99_bound_us = sla_us;
        auto stats = serving::simulate_fleet(service, *requests, spec);
        FCAD_CHECK_MSG(stats.is_ok(), stats.status().message());

        csv.add_row(serving::serving_csv_row(
            {std::to_string(users), std::to_string(instances)}, *stats));
        if (sla_us > 30000 && sla_us < 40000) {
          table.add_row({std::to_string(users), std::to_string(instances),
                         format_fixed(stats->latency.p99 * 1e-3, 2) + " ms",
                         format_percent(stats->sla_violation_rate, 2),
                         format_percent(stats->fleet_utilization, 1),
                         stats->sla_met ? "met" : "MISSED"});
        }
      }
    }
  }

  std::printf("%s\n", table.to_string().c_str());
  if (!csv.write_file(csv_path)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", csv_path.c_str());
    return 1;
  }
  std::printf("full matrix (%zu rows) written to %s\n",
              static_cast<std::size_t>(user_counts.size() *
                                       fleet_sizes.size() *
                                       sla_bounds_us.size()),
              csv_path.c_str());
  std::printf(
      "shape to check: p99 collapses once offered load crosses the fleet's "
      "uniform-mix saturation; doubling the fleet roughly doubles the "
      "feasible user count.\n");
  return obs_scope.finish() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ArgParser::parse(argc, argv);
  if (!args.is_ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().to_string().c_str());
    return 1;
  }
  if (args->has("replay")) return run_replay(*args);
  if (args->has("traffic-cache")) return run_traffic_cache(*args);
  return run_sweep(*args);
}
