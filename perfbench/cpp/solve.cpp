// solve_1m / solve_small: the paper's 1M-point three-zone case on the simd
// sweep engine, 4 lanes, seeded Gaussian pulse. The scale picks the regime:
// 0.5 is kernel-bound, 0.15 leaves 11 trips per loop, where fork-join cost,
// lane imbalance and the serial bc/exchange tail show.
#include <cmath>
#include <memory>

#include "common.hpp"
#include "f3d/engine.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace perfbench {

void run_solve(const Args& args, double scale, Report& report) {
  const Pulse pulse = seeded_pulse(args.seed);
  const f3d::CaseSpec spec = f3d::paper_1m_case(scale);
  const GridFactory make_grid = [&] {
    auto grid = f3d::build_grid(spec);
    f3d::add_gaussian_pulse(grid, pulse.amplitude, pulse.radius_cells);
    return grid;
  };
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  cfg.region_prefix = "run";
  f3d::parse_engine("simd", &cfg.engine);
  note("input: paper_1m_case(%.2f), %zu points, engine simd, %d lanes, "
       "pulse amplitude %.6f radius %.4f cells",
       scale, spec.total_points(), kLanes, pulse.amplitude,
       pulse.radius_cells);

  // Correctness, untimed: the same prefix at 1 and at 4 lanes must give
  // bitwise-equal solutions.
  {
    constexpr int kPrefix = 3;
    const StepRun one = run_steps(make_grid, cfg, 1, 0, kPrefix, 1e9);
    const StepRun four = run_steps(make_grid, cfg, kLanes, 0, kPrefix, 1e9);
    const std::uint64_t expect = one.checksum ^ (args.inject_wrong ? 1 : 0);
    report.tally.check(expect == four.checksum,
                       "solution checksum after the prefix differs between "
                       "1 lane and 4 lanes");
    note("check: %d-step checksum 1 lane %016llx, %d lanes %016llx", kPrefix,
         static_cast<unsigned long long>(one.checksum), kLanes,
         static_cast<unsigned long long>(four.checksum));
  }

  // Set-up, repeated; the last one is kept for the timed run. The pool's
  // lane threads start lazily at the first parallel loop, inside warm-up.
  std::vector<TimedOp> setup_ops;
  std::unique_ptr<llp::Runtime> rt;
  std::unique_ptr<f3d::MultiZoneGrid> grid;
  std::unique_ptr<f3d::Solver> solver;
  for (int i = 0; i < 21; ++i) {
    solver.reset();
    grid.reset();
    rt.reset();
    trace::Span span("f3d", "setup");
    const double t0 = now_s();
    rt = std::make_unique<llp::Runtime>(kLanes);
    grid = std::make_unique<f3d::MultiZoneGrid>(make_grid());
    solver = std::make_unique<f3d::Solver>(*grid, cfg, *rt);
    const double t1 = now_s();
    setup_ops.push_back(TimedOp{t0, t1, t1 - t0});
  }

  bool healthy = true;
  std::vector<double> untraced_ms, traced_ms;
  std::vector<TimedOp> timed;
  auto step = [&](std::vector<double>* out) {
    trace::Span span("f3d", "Solver::step");
    const double t0 = now_s();
    solver->step();
    const double t1 = now_s();
    const double ms = 1e3 * (t1 - t0);
    if (out != nullptr) {
      out->push_back(ms);
      timed.push_back(TimedOp{t0, t1, ms});
    }
    if (!std::isfinite(solver->residual())) {
      report.tally.fail("non-finite residual at step " +
                        std::to_string(solver->steps_taken()));
      healthy = false;
    } else {
      report.tally.ok();
    }
    return ms;
  };

  // Warm-up: blocks of ~0.2 s until two block medians agree within 5%.
  std::vector<double> block;
  const auto warm_start = Clock::now();
  step(&block);
  const double first_residual = solver->residual();
  while (block.size() < 5 || seconds_since(warm_start) < 0.2) step(&block);
  const std::size_t block_steps = block.size();
  Warmup warm;
  warm.add_block(median(block));
  const double warm_cap = std::max(1.0, 0.3 * args.seconds);
  while (healthy && !warm.settled() &&
         seconds_since(warm_start) < warm_cap) {
    block.clear();
    for (std::size_t i = 0; i < block_steps; ++i) step(&block);
    warm.add_block(median(block));
  }
  timed.clear();
  note("warm-up: %.3f s, %d steps in blocks of %zu, %s",
       seconds_since(warm_start), solver->steps_taken(), block_steps,
       warm.settled() ? "settled" : "cap reached before settling");

  // Timed phase. The traced run alternates traced and untraced blocks.
  const auto before = rt->regions().snapshot();
  const std::uint64_t sync0 = rt->pool().sync_events();
  const int steps0 = solver->steps_taken();
  const auto t0 = Clock::now();
  bool tracing = false;
  while (healthy && seconds_since(t0) < args.seconds) {
    trace::set_enabled(args.trace && tracing);
    for (std::size_t i = 0; i < block_steps && healthy; ++i) {
      step(tracing ? &traced_ms : &untraced_ms);
    }
    tracing = args.trace && !tracing;
  }
  trace::set_enabled(args.trace);
  const double wall = seconds_since(t0);
  const int steps = solver->steps_taken() - steps0;
  const auto after = rt->regions().snapshot();
  const std::uint64_t sync1 = rt->pool().sync_events();

  report.tally.check(healthy && solver->residual() < first_residual,
                     "final residual is not finite and below the first "
                     "step's residual");
  note("check: residual first step %.6e, last %.6e", first_residual,
       solver->residual());

  std::vector<double> all_ms = untraced_ms;
  all_ms.insert(all_ms.end(), traced_ms.begin(), traced_ms.end());
  const double p50 = steal_free_median("step_ms_p50", timed, args);
  const Percentile p90 = percentile(all_ms, 0.9);
  note("step_ms_p50 = %.4f ms (n=%zu)", p50, all_ms.size());
  note("step_ms_p90 = %.4f ms (n=%zu, %zu beyond%s)", p90.value, p90.samples,
       p90.beyond, p90.valid ? "" : "; fewer than 10 beyond, not reportable");
  report.set_e2e("setup_s", steal_free_median("setup_s", setup_ops, args));
  report.set_e2e("op_ms_p50", p50);
  note("steps_per_s = %.3f 1/s (%d steps in %.3f s)", steps / wall, steps,
       wall);
  if (!args.trace) return;

  StepRun ref;
  ref.regions = breakdown(before, after, steps);
  ref.sync_per_step = static_cast<double>(sync1 - sync0) / steps;
  const StepRun one_lane = run_steps(
      make_grid, cfg, 1, 1, 1 << 20, std::clamp(0.15 * args.seconds, 0.5, 3.0));
  set_grid_layers(report, ref, one_lane.regions, median(one_lane.step_ms),
                  p50, p50, solver->flops_per_step(), solver->bytes_per_step(),
                  fork_join_us(*rt));
  report.set_layer("f3d.rhs_ns_per_point", rhs_ns_per_point(*grid, cfg));
  report.set_layer("f3d.tridiag_lanes_ns_per_point",
                   tridiag_lanes_ns_per_point(*grid));
  report.set_layer("analyze.classify_ms", classify_ms(*grid, cfg));
  const CkptProbe ck = ckpt_save(*grid, args.work_dir + "/ckpt_probe");
  report.set_layer("ckpt.save_ms_p50", ck.save_ms_p50);
  report.set_layer("ckpt.bytes_per_generation", ck.bytes_per_generation);
  report.set_layer("trace.overhead_frac",
                   median(traced_ms) / median(untraced_ms) - 1.0);
  serve_probe(args, report);
  cluster_probe(args, report);
}

}  // namespace perfbench
