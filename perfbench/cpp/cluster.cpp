// cluster_1m: llp::cluster::run_cluster on paper_1m_case(0.5) with 3
// workers fork+exec'd from f3d_cluster (the deployment path), 1 thread each,
// risc engine, a generation every 5 steps. The only workload on the cluster
// and msg layers: halo relay, step acks and the coordinator's checkpoint
// seals. Step time comes from the timestamps of the generation seals in
// ClusterReport::log.
#include <cmath>
#include <filesystem>

#include "cluster/coordinator.hpp"
#include "cluster/partition.hpp"
#include "common.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kWorkers = 3;
constexpr int kCkptEvery = 5;
constexpr int kCheckedSteps = 10;  ///< prefix compared with in-process

llp::cluster::ClusterConfig base_config(const Args& args,
                                        const f3d::CaseSpec& spec,
                                        const Pulse& pulse) {
  llp::cluster::ClusterConfig cfg;
  cfg.case_spec = spec;
  cfg.init_grid = [pulse](f3d::MultiZoneGrid& grid) {
    f3d::add_gaussian_pulse(grid, pulse.amplitude, pulse.radius_cells);
  };
  cfg.workers = kWorkers;
  cfg.worker_threads = 1;
  cfg.ckpt_every = kCkptEvery;
  cfg.worker_exe = args.exe_dir + "/f3d_cluster";
  cfg.ckpt_dir = args.work_dir + "/cluster_ckpt";
  return cfg;
}

/// The in-process solver twin of a cluster config (same physics).
f3d::SolverConfig solver_config(const llp::cluster::ClusterConfig& c) {
  f3d::SolverConfig cfg;
  cfg.freestream = c.case_spec.freestream;
  cfg.cfl = c.cfl;
  cfg.kappa_i = c.kappa_i;
  cfg.engine = c.engine;
  cfg.region_prefix = c.region_prefix;
  return cfg;
}

/// The zones of the shard with the most points, as a case of their own.
f3d::CaseSpec slowest_shard(const f3d::CaseSpec& spec) {
  const auto ranges = llp::cluster::partition_zones(
      static_cast<int>(spec.zones.size()), kWorkers);
  f3d::CaseSpec best = spec;
  std::size_t best_points = 0;
  for (const auto& r : ranges) {
    f3d::CaseSpec shard = spec;
    shard.zones.assign(spec.zones.begin() + r.first,
                       spec.zones.begin() + r.end());
    if (shard.total_points() > best_points) {
      best_points = shard.total_points();
      best = shard;
    }
  }
  return best;
}

struct Series {
  std::vector<TimedOp> steps, setup;  ///< seal intervals; call to last ready
  std::vector<double> step_ms, traced_ms, untraced_ms;
  std::vector<double> spawn_ms, frames_per_step, heartbeats_per_s;
  std::vector<double> last_residuals;
  int recoveries = 0, respawns = 0, detector_faults = 0;
  double wall = 0.0;
};

/// `runs` cluster runs of `steps` steps each. Every run's residual history
/// must start with `prefix` within `tol` (relative); a recovery, respawn or
/// detector fault fails the run.
Series series(llp::cluster::ClusterConfig cfg, int runs, int steps,
              bool alternate_trace, const std::vector<double>& prefix,
              double tol, Tally& tally) {
  Series s;
  cfg.steps = steps;
  for (int r = 0; r < runs; ++r) {
    const bool traced = alternate_trace && r % 2 == 1;
    if (alternate_trace) trace::set_enabled(traced);
    fs::remove_all(cfg.ckpt_dir);
    llp::cluster::ClusterReport rep;
    const auto t0 = Clock::now();
    const double call_s = now_s();
    try {
      trace::Span span("cluster", "run_cluster");
      rep = llp::cluster::run_cluster(cfg);
    } catch (const std::exception& e) {
      tally.fail(std::string("run_cluster threw: ") + e.what());
      continue;
    }
    const double wall = seconds_since(t0);
    s.wall += wall;
    const ClusterTimeline tl = parse_cluster_log(rep.log, 1);
    for (const auto& iv : tl.intervals) {
      s.steps.push_back(TimedOp{call_s + iv.from_ms / 1e3,
                                call_s + iv.to_ms / 1e3, iv.step_ms});
      s.step_ms.push_back(iv.step_ms);
      (traced ? s.traced_ms : s.untraced_ms).push_back(iv.step_ms);
    }
    const double ready_s = static_cast<double>(tl.last_ready_ms) / 1e3;
    s.setup.push_back(TimedOp{call_s, call_s + ready_s, ready_s});
    s.spawn_ms.push_back(
        static_cast<double>(tl.last_ready_ms - tl.first_spawn_ms));
    s.frames_per_step.push_back(static_cast<double>(rep.frames_relayed) /
                                rep.steps_completed);
    s.heartbeats_per_s.push_back(rep.heartbeats_seen / wall);
    s.recoveries += rep.recoveries;
    s.respawns += rep.respawns;
    s.detector_faults += static_cast<int>(rep.detector_faults);
    s.last_residuals.push_back(rep.final_residual);

    bool match = rep.residuals.size() >= prefix.size();
    for (std::size_t i = 0; match && i < prefix.size(); ++i) {
      match = std::abs(rep.residuals[i] - prefix[i]) <=
              tol * std::abs(prefix[i]);
    }
    const bool clean = rep.recoveries == 0 && rep.respawns == 0 &&
                       rep.detector_faults == 0 && tl.unparsed == 0 &&
                       tl.last_ready_ms >= 0;
    if (match && clean && std::isfinite(rep.final_residual) &&
        rep.steps_completed == steps) {
      tally.ok(static_cast<std::size_t>(steps));
    } else {
      tally.fail(match ? "cluster run had a fault, an unparsed log line or "
                         "a non-finite residual: " + rep.summary()
                       : "cluster residuals differ from the in-process run");
    }
  }
  if (alternate_trace) trace::set_enabled(true);
  fs::remove_all(cfg.ckpt_dir);
  return s;
}

void set_cluster_layers(const Series& s, double compute_ms, Report& report) {
  report.set_layer("cluster.spawn_ms", median(s.spawn_ms));
  report.set_layer("cluster.compute_ms_per_step", compute_ms);
  report.set_layer("cluster.coord_ms_per_step", median(s.step_ms) - compute_ms);
  report.set_layer("cluster.frames_per_step", median(s.frames_per_step));
  report.set_layer("cluster.heartbeats_per_s", median(s.heartbeats_per_s));
  report.set_layer("cluster.recoveries", s.recoveries);
  report.set_layer("cluster.respawns", s.respawns);
  report.set_layer("cluster.detector_faults", s.detector_faults);
}

GridFactory pulsed(const f3d::CaseSpec& spec, const Pulse& pulse) {
  return [spec, pulse] {
    auto grid = f3d::build_grid(spec);
    f3d::add_gaussian_pulse(grid, pulse.amplitude, pulse.radius_cells);
    return grid;
  };
}

/// 1-lane step time of the slowest shard, the compute under each step.
StepRun shard_run(const f3d::CaseSpec& spec, const Pulse& pulse,
                  const f3d::SolverConfig& cfg, int lanes) {
  return run_steps(pulsed(slowest_shard(spec), pulse), cfg, lanes, 1, 1 << 20,
                   0.6);
}

}  // namespace

void run_cluster(const Args& args, Report& report) {
  const Pulse pulse = seeded_pulse(args.seed);
  const f3d::CaseSpec spec = f3d::paper_1m_case(0.5);
  const auto cfg = base_config(args, spec, pulse);
  const f3d::SolverConfig scfg = solver_config(cfg);
  note("input: paper_1m_case(0.50), %zu points, %d workers x 1 thread, "
       "engine risc, generation every %d steps, pulse amplitude %.6f radius "
       "%.4f cells",
       spec.total_points(), kWorkers, kCkptEvery, pulse.amplitude,
       pulse.radius_cells);

  // Reference: the same prefix in process (4 lanes; risc is bitwise
  // across lane counts). The cluster combines residuals over processes, so
  // it matches within the combine tolerance, not bitwise.
  const StepRun inproc =
      run_steps(pulsed(spec, pulse), scfg, kLanes, 0, kCheckedSteps, 1e9);
  std::vector<double> expect = inproc.residuals;
  if (args.inject_wrong) expect.back() *= 1.0 + 1e-6;

  // Warm-up and correctness: one short run.
  const auto warm_start = Clock::now();
  const Series warm = series(cfg, 1, kCheckedSteps, false, expect, 1e-9,
                             report.tally);
  const double warm_wall = seconds_since(warm_start);
  note("warm-up: %.3f s, one %d-step run checked against the in-process run",
       warm_wall, kCheckedSteps);
  if (warm.last_residuals.empty()) return;

  // Timed runs; each run's first seal interval is dropped as warm-up.
  constexpr int kRuns = 4;
  const double est_step_s =
      std::max(1e-3, (warm_wall - warm.setup.front().value) / kCheckedSteps);
  const int steps = std::max(
      4 * kCkptEvery,
      kCkptEvery * static_cast<int>(std::lround(
                       (args.seconds / kRuns) / est_step_s / kCkptEvery)));
  const Series s =
      series(cfg, kRuns, steps, args.trace, expect, 1e-9, report.tally);
  // Same partition, same steps: every run must end on the same residual.
  for (const double r : s.last_residuals) {
    report.tally.check(r == s.last_residuals.front(),
                       "cluster runs of equal length ended on different "
                       "residuals");
  }
  note("timed: %d runs of %d steps, %.3f s, steps_per_s = %.3f 1/s (set-up "
       "included)",
       kRuns, steps, s.wall, kRuns * steps / s.wall);
  const double p50 = steal_free_median("step_ms_p50", s.steps, args);
  note("step_ms_p50 = %.4f ms (n=%zu seal intervals of %d steps)", p50,
       s.step_ms.size(), kCkptEvery);
  report.set_e2e("setup_s", steal_free_median("setup_s", s.setup, args));
  report.set_e2e("op_ms_p50", p50);
  if (!args.trace) return;

  const StepRun one = shard_run(spec, pulse, scfg, 1);
  const StepRun four = shard_run(spec, pulse, scfg, kLanes);
  const double compute_ms = median(one.step_ms);
  set_cluster_layers(s, compute_ms, report);
  llp::Runtime rt(kLanes);
  set_grid_layers(report, one, one.regions, compute_ms, median(four.step_ms),
                  p50, inproc.flops_per_step, inproc.bytes_per_step,
                  fork_join_us(rt));
  const auto grid = pulsed(spec, pulse)();
  report.set_layer("f3d.rhs_ns_per_point", rhs_ns_per_point(grid, scfg));
  report.set_layer("f3d.tridiag_lanes_ns_per_point",
                   tridiag_lanes_ns_per_point(grid));
  report.set_layer("analyze.classify_ms", classify_ms(grid, scfg));
  const CkptProbe ck = ckpt_save(grid, args.work_dir + "/ckpt_probe");
  report.set_layer("ckpt.save_ms_p50", ck.save_ms_p50);
  report.set_layer("ckpt.bytes_per_generation", ck.bytes_per_generation);
  report.set_layer("trace.overhead_frac",
                   median(s.traced_ms) / median(s.untraced_ms) - 1.0);
  serve_probe(args, report);
}

void cluster_probe(const Args& args, Report& report) {
  trace::Span span("cluster", "probe");
  const Pulse pulse = seeded_pulse(args.seed);
  const f3d::CaseSpec spec = f3d::paper_1m_case(0.15);
  const auto cfg = base_config(args, spec, pulse);
  const f3d::SolverConfig scfg = solver_config(cfg);
  const StepRun inproc =
      run_steps(pulsed(spec, pulse), scfg, kLanes, 0, kCheckedSteps, 1e9);
  const Series s = series(cfg, 2, 6 * kCkptEvery, false, inproc.residuals,
                          1e-9, report.tally);
  set_cluster_layers(s, median(shard_run(spec, pulse, scfg, 1).step_ms),
                     report);
}

}  // namespace perfbench
