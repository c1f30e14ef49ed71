// The F-CAD flow as the benchmark drives it: the Table-IV cases, one flow
// pass (Pipeline::optimize then Pipeline::simulate), the recording strategy
// that times propose / evaluate / accept from outside the library, and the
// single-thread DSE layer replays over a recorded search's candidates.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "core/pipeline.hpp"
#include "dse/search_driver.hpp"

#include "bench.hpp"
#include "layers.hpp"

namespace perfbench {

namespace arch = fcad::arch;
namespace core = fcad::core;
namespace dse = fcad::dse;
using fcad::Status;
using fcad::StatusOr;

struct DesignCase {
  std::string name;
  arch::Platform platform;
  std::string datapath;
  int pipeline = 0;  ///< index into the per-platform pipelines
};

/// The five Table-IV cases; `pipeline` indexes {Z7045, ZU17EG, ZU9CG}.
const std::vector<DesignCase>& table4_cases();
std::vector<arch::Platform> table4_platforms();

/// Table-IV search spec: batch {1,2,2}, P=200, N=20 (Sec. VII).
dse::SearchSpec flow_spec(const std::string& datapath, std::uint64_t seed,
                          int threads, const std::string& strategy);

/// The one hardware search the serving workloads run (ZU9CG budget,
/// default customization, P=100, N=12, fixed seed): the served design is
/// the same for every benchmark seed, only the traffic varies.
dse::SearchSpec serving_design_spec(int threads, const std::string& strategy);

/// Builds the avatar-decoder pipeline on `platform` and runs analysis and
/// construction (graph profile, fusion, arch::reorganize).
StatusOr<std::unique_ptr<core::Pipeline>> build_pipeline(
    const arch::Platform& platform);

/// Registers the recording strategy (once) and returns its name. It
/// delegates to "particle-swarm", so searches under it return bit-identical
/// results, and records the wall time of every propose and accept call and
/// of the evaluation phase between them.
const std::string& recorder_strategy();

/// What the most recent search under recorder_strategy() did.
struct SearchCapture {
  std::shared_ptr<const arch::ReorganizedModel> model;
  dse::ResourceBudget budget;
  dse::Customization customization;
  dse::CrossBranchOptions options;
  std::vector<dse::ResourceDistribution> candidates;  ///< proposal order
  std::vector<arch::AcceleratorConfig> configs;       ///< evaluated sample
  double propose_ms = 0;
  double accept_ms = 0;
  /// Round wall minus propose and accept; a round runs from its propose
  /// call to the next round's (or to finish).
  double eval_phase_ms = 0;
  int rounds = 0;
};
const SearchCapture& last_capture();

/// Sums over traced searches for the dse.* span metrics.
struct SearchSpans {
  int searches = 0;
  double search_ms = 0;
  double propose_ms = 0;
  double accept_ms = 0;
  double eval_phase_ms = 0;
  double evaluations = 0;
  double cache_hits = 0;
  double cache_misses = 0;

  /// Adds one recorder search that took `search_ms` end to end.
  void add(double search_ms, const dse::SearchTrace& trace);
  void emit(LayerTable& layers) const;
};

/// One flow pass on `pipeline`. Checks that the winner is feasible and
/// carries a cycle-level simulation.
struct FlowPass {
  bool ok = false;
  double search_ms = 0;
  double simulate_ms = 0;
  double min_fps = 0;  ///< SimResult::min_fps of the winner (modelled)
  double fitness = 0;
  dse::SearchTrace trace;
};
FlowPass run_flow_pass(core::Pipeline& pipeline, const dse::SearchSpec& spec,
                       Report& report);

/// Single-thread replays of `capture`'s candidates through
/// evaluate_distribution, in_branch_optimize, arch::evaluate,
/// unit_resources and get_pf; get_pf again from `threads` concurrent
/// callers; and an empty population-sized parallel_for on the shared pool.
void run_dse_probes(const SearchCapture& capture, int threads,
                    LayerTable& layers);

}  // namespace perfbench
