// Timed calls into single layers of the program, made from outside: each
// probe calls public functions and reads counters the program already
// exposes (RegionRegistry stats, ThreadPool::sync_events, Solver flop and
// byte counts). Every workload's traced run uses these.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/region.hpp"
#include "core/runtime.hpp"
#include "f3d/cases.hpp"
#include "f3d/solver.hpp"

namespace perfbench {

using GridFactory = std::function<f3d::MultiZoneGrid()>;

/// Per-step region times of a solver run, from registry deltas.
struct RegionBreakdown {
  double rhs_ms = 0, sweep_j_ms = 0, sweep_k_ms = 0, sweep_l_ms = 0,
         update_ms = 0;
  double serial_ms = 0;     ///< bc + exchange: the Amdahl tail
  double imbalance = 1.0;   ///< busiest/mean lane, weighted by region time
  std::vector<std::int64_t> trips;  ///< parallel regions: mean trip count
  std::vector<double> seconds;      ///< parallel regions: time in the run
};
RegionBreakdown breakdown(const std::vector<llp::RegionStats>& before,
                          const std::vector<llp::RegionStats>& after,
                          int steps);

/// Stair-step speedup at `p` lanes from measured trips, each parallel region
/// weighted by its share of the run's parallel time.
double stairstep(const RegionBreakdown& b, int p);

/// A solver run on a private runtime of `lanes` lanes.
struct StepRun {
  std::vector<double> step_ms;  ///< timed steps (after `warm_steps`)
  RegionBreakdown regions;      ///< over the timed steps
  double sync_per_step = 0.0;   ///< fork-joins per timed step
  std::vector<double> residuals;  ///< after every step, warm-up included
  std::uint64_t checksum = 0;   ///< f3d::checksum of the final solution
  double flops_per_step = 0.0;
  double bytes_per_step = 0.0;
};
StepRun run_steps(const GridFactory& make_grid, const f3d::SolverConfig& cfg,
                  int lanes, int warm_steps, int max_steps,
                  double max_seconds);

/// Median time of an empty 4-lane parallel_for on `rt`, in microseconds.
double fork_join_us(llp::Runtime& rt);

/// compute_rhs_plane over every plane of the grid's largest zone, ns/point.
double rhs_ns_per_point(const f3d::MultiZoneGrid& grid,
                        const f3d::SolverConfig& cfg);

/// solve_tridiagonal_lanes at the J, K and L line lengths of the grid's
/// largest zone, ns per point (each point is one lane of one row; the time
/// includes restoring the in-place inputs).
double tridiag_lanes_ns_per_point(const f3d::MultiZoneGrid& grid);

/// declare_region_signatures plus the static classification table, ms.
double classify_ms(const f3d::MultiZoneGrid& grid,
                   const f3d::SolverConfig& cfg);

/// CheckpointStore::save of `grid` under `dir` (removed afterwards).
struct CkptProbe {
  double save_ms_p50 = 0.0;
  double bytes_per_generation = 0.0;
};
CkptProbe ckpt_save(const f3d::MultiZoneGrid& grid, const std::string& dir);

/// Fills the core.*, model.* and f3d.* metrics from `ref` (a run at the
/// workload's lane count) and `one_lane` / `four_lane` step medians.
void set_grid_layers(Report& report, const StepRun& ref,
                     const RegionBreakdown& one_lane_regions,
                     double one_lane_ms, double four_lane_ms, double step_ms,
                     double flops_per_step, double bytes_per_step,
                     double fork_join);

/// Per-layer metrics of the layers a workload does not run itself, from a
/// short run of that layer (serve.cpp, cluster.cpp).
void serve_probe(const Args& args, Report& report);
void cluster_probe(const Args& args, Report& report);

/// Host description recorded with every run: nproc, CPU model, the
/// tridiagonal kernel in use, build type, and the work directory's
/// filesystem.
std::string host_json(const std::string& work_dir);

}  // namespace perfbench
