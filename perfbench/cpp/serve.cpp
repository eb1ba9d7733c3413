// serve_mix: an in-process f3d::serve::Server with a durable state
// directory behind an AF_UNIX socket, driven by 4 serve::Client
// connections as a closed loop (each client submits its next job only when
// the previous one reached a terminal state). Jobs are pinned to 1 lane, so
// the 4 clients keep the 4 lanes busy. The seeded mix is about 2/3 cube n=12
// (wall + pulse) and 1/3 periodic vortex n=16, 12 steps each, a durable
// checkpoint every 6 steps: per-job set-up, scheduler, protocol, fsync'd
// records and checkpoints, and the periodic sweep path.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "probes.hpp"
#include "serve/client.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using f3d::serve::Json;
using f3d::serve::JobSpec;

constexpr int kClients = kLanes;
constexpr int kCubeSpecs = 8;    // of 12 distinct specs: 2/3 cube
constexpr int kVortexSpecs = 4;

/// The seeded job mix: a pool of distinct specs and the order clients draw
/// them in. Every job of one spec must end on the same residual.
struct Mix {
  std::vector<JobSpec> pool;
  std::vector<int> order;
};

Mix make_mix(std::uint64_t seed) {
  Rng rng(seed ^ 0x5e12e5e12eULL);
  Mix mix;
  for (int i = 0; i < kCubeSpecs + kVortexSpecs; ++i) {
    JobSpec s;
    const bool cube = i < kCubeSpecs;
    s.name = (cube ? "cube" : "vortex") + std::to_string(i);
    s.case_name = cube ? "cube" : "vortex";
    s.n = cube ? 12 : 16;
    s.wall = cube;
    s.pulse = cube ? rng.uniform(0.02, 0.08) : rng.uniform(0.005, 0.02);
    s.steps = 12;
    s.ckpt_every = 6;
    s.threads = 1;
    mix.pool.push_back(s);
  }
  for (int i = 0; i < 4096; ++i) {
    mix.order.push_back(static_cast<int>(rng.next() % mix.pool.size()));
  }
  return mix;
}

bool is_cube(int spec) { return spec < kCubeSpecs; }

/// A direct pinned 1-lane Solver::run of one spec: the reference residual
/// every served job of that spec must reproduce bitwise.
struct Direct {
  double residual = 0.0;
  double setup_ms = 0.0;  ///< Runtime(1) + build_case_grid + Solver ctor
  double solve_ms = 0.0;
};

Direct run_direct_once(const JobSpec& spec) {
  trace::Span span("serve", "direct job");
  Direct d;
  const auto t0 = Clock::now();
  llp::Runtime rt(1);
  auto grid = f3d::serve::build_case_grid(spec);
  f3d::Solver solver(grid, f3d::serve::build_solver_config(spec), rt);
  d.setup_ms = ms_since(t0);
  const auto t1 = Clock::now();
  d.residual = solver.run(spec.steps);
  d.solve_ms = ms_since(t1);
  return d;
}

/// Twice: the first run is cold (its timings would understate the serve
/// overhead), and the two residuals must agree bitwise.
Direct run_direct(const JobSpec& spec, Tally& tally) {
  const Direct cold = run_direct_once(spec);
  const Direct warm = run_direct_once(spec);
  tally.check(std::memcmp(&cold.residual, &warm.residual, sizeof(double)) ==
                  0,
              "two direct runs of " + spec.name + " ended differently");
  return warm;
}

struct Job {
  double submit_s = 0.0;  ///< since the loop's base time
  double done_s = 0.0;
  int spec = 0;
  bool traced = false;
  int generations = 0;
  int preemptions = 0;
};

int count_generations(const std::string& dir) {
  int n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind("ckpt.", 0) == 0) ++n;
  }
  return n;
}

struct LoopResult {
  std::vector<Job> jobs;
  std::vector<TimedOp> setup;
  double base = 0.0;          ///< now_s() when the clients started
  double t0 = 0.0, t1 = 0.0;  ///< timed phase, since the base time
};

/// Runs the closed loop: warm-up (gated on block medians when `gate`,
/// else `warm_s`), then `seconds` timed. Every job is checked against its
/// spec's reference residual.
LoopResult serve_loop(const Args& args, const Mix& mix,
                      const std::vector<double>& expected, double seconds,
                      bool gate, double warm_s, bool alternate_trace,
                      Tally& tally) {
  LoopResult out;
  const std::string state_dir = args.work_dir + "/serve_state";
  const std::string socket = args.work_dir + "/serve.sock";
  fs::remove_all(state_dir);

  f3d::serve::ServerConfig cfg;
  cfg.socket_path = socket;
  cfg.state_dir = state_dir;
  cfg.total_threads = kLanes;
  cfg.max_running = kLanes;
  // Set-up: a cold server from construction to its first result as a
  // client sees it (Server ctor + start with socket bind, connect, the
  // mix's first spec submitted and done), on a fresh state directory. The
  // bare start is tens of microseconds and moved 4x with host load
  // between runs of the same code, so it is printed, not the metric.
  std::unique_ptr<f3d::serve::Server> server;
  std::vector<double> start_us;
  for (int i = 0; i < 5; ++i) {
    if (server) server->stop();
    server.reset();
    fs::remove_all(state_dir);
    trace::Span span("serve", "cold start to first result");
    const double t0 = now_s();
    server = std::make_unique<f3d::serve::Server>(cfg);
    server->start();
    start_us.push_back(1e6 * (now_s() - t0));
    std::string err;
    f3d::serve::Client c = f3d::serve::Client::connect(socket, &err);
    Json submit, resp, wait, status;
    submit["op"] = "submit";
    submit["spec"] = mix.pool.front().to_json();
    bool done = c.connected() && c.request(submit, &resp, &err) &&
                resp.get_bool("ok");
    if (done) {
      wait["op"] = "wait";
      wait["job"] = resp.get_double("job");
      done = c.request(wait, &status, &err) &&
             status.get_string("state") == "done";
    }
    const double t1 = now_s();
    out.setup.push_back(TimedOp{t0, t1, t1 - t0});
    const double residual = status.get_double("residual", NAN);
    tally.check(done && std::memcmp(&residual, &expected.front(),
                                    sizeof(double)) == 0,
                "first job after a cold start: " + err +
                    status.get_string("state") + " residual differs from "
                    "the direct run");
  }
  note("server start (ctor + start, socket bind): median %.1f us",
       median(start_us));

  const auto base = Clock::now();
  out.base = now_s();
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<Job> jobs;             // guarded by mu
  std::vector<std::string> errors;   // guarded by mu
  std::size_t ok = 0;                // guarded by mu

  auto client = [&] {
    std::string err;
    f3d::serve::Client c = f3d::serve::Client::connect(socket, &err);
    if (!c.connected()) {
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back("connect: " + err);
      return;
    }
    while (!stop.load()) {
      Job job;
      job.spec = mix.order[next.fetch_add(1) % mix.order.size()];
      job.traced = trace::enabled();
      Json submit;
      submit["op"] = "submit";
      submit["spec"] = mix.pool[static_cast<std::size_t>(job.spec)].to_json();
      Json resp, status;
      job.submit_s = seconds_since(base);
      {
        trace::Span span("serve", "submit+wait");
        if (!c.request(submit, &resp, &err) || !resp.get_bool("ok")) {
          std::lock_guard<std::mutex> lock(mu);
          errors.push_back("submit: " + err + resp.get_string("error"));
          return;
        }
        Json wait;
        wait["op"] = "wait";
        wait["job"] = resp.get_double("job");
        if (!c.request(wait, &status, &err)) {
          std::lock_guard<std::mutex> lock(mu);
          errors.push_back("wait: " + err);
          return;
        }
      }
      job.done_s = seconds_since(base);
      const auto id = static_cast<std::uint64_t>(resp.get_int("job"));
      const double residual = status.get_double("residual", NAN);
      const double want = expected[static_cast<std::size_t>(job.spec)];
      const std::string state = status.get_string("state");
      job.preemptions = static_cast<int>(status.get_int("preemptions"));
      job.generations =
          count_generations(f3d::serve::job_ckpt_dir(state_dir, id));
      std::error_code ec;
      fs::remove_all(f3d::serve::job_dir(state_dir, id), ec);
      std::lock_guard<std::mutex> lock(mu);
      if (state != "done") {
        errors.push_back("job " + std::to_string(id) + " ended " + state);
      } else if (std::memcmp(&residual, &want, sizeof(double)) != 0) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "job %llu residual %.17g != direct run %.17g",
                      static_cast<unsigned long long>(id), residual, want);
        errors.push_back(buf);
      } else {
        ++ok;
      }
      jobs.push_back(job);
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) threads.emplace_back(client);

  // Warm-up: windows of 0.5 s until two windows' median latencies agree
  // within 10% (job latency is steadier than per-window job counts).
  auto latencies_since = [&](double from) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<double> v;
    for (const Job& j : jobs) {
      if (j.submit_s >= from) v.push_back(j.done_s - j.submit_s);
    }
    return v;
  };
  Warmup warm(0.10);
  const double warm_cap = std::max(1.0, 0.3 * seconds);
  double from = 0.0;
  while (seconds_since(base) < (gate ? warm_cap : warm_s)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double now = seconds_since(base);
    if (gate && warm.add_block(median(latencies_since(from)))) break;
    from = now;
  }
  out.t0 = seconds_since(base);
  bool tracing = false;
  while (seconds_since(base) < out.t0 + seconds) {
    trace::set_enabled(args.trace && tracing);
    const double left = out.t0 + seconds - seconds_since(base);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(0.5, std::max(left, 0.0))));
    tracing = alternate_trace && !tracing;
  }
  out.t1 = seconds_since(base);
  trace::set_enabled(args.trace);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  server->stop();
  fs::remove_all(state_dir);

  std::lock_guard<std::mutex> lock(mu);
  if (gate) {
    note("warm-up: %.3f s, %zu jobs, %s", out.t0,
         static_cast<std::size_t>(std::count_if(
             jobs.begin(), jobs.end(),
             [&](const Job& j) { return j.submit_s < out.t0; })),
         warm.settled() ? "settled" : "cap reached before settling");
  }
  tally.ok(ok);
  for (std::string& e : errors) tally.fail(std::move(e));
  out.jobs = std::move(jobs);
  return out;
}

struct ServeLayers {
  Mix mix;
  std::vector<Direct> direct;
  LoopResult loop;
};

/// Reference runs, then the loop; fills the serve.* layer metrics.
ServeLayers serve_run(const Args& args, double seconds, bool gate,
                      Report& report) {
  ServeLayers s{make_mix(args.seed), {}, {}};
  std::vector<double> expected;
  for (const JobSpec& spec : s.mix.pool) {
    s.direct.push_back(run_direct(spec, report.tally));
    expected.push_back(s.direct.back().residual);
  }
  if (args.inject_wrong) expected[0] = std::nextafter(expected[0], 1.0);
  s.loop = serve_loop(args, s.mix, expected, seconds, gate, 0.3,
                      gate && args.trace, report.tally);
  return s;
}

void set_serve_layers(const ServeLayers& s, double ckpt_save_ms,
                      Report& report) {
  std::vector<double> setup, cube, vortex;
  for (std::size_t i = 0; i < s.direct.size(); ++i) {
    setup.push_back(s.direct[i].setup_ms);
    (is_cube(static_cast<int>(i)) ? cube : vortex)
        .push_back(s.direct[i].solve_ms);
  }
  const double setup_ms = median(setup);
  const double cube_ms = median(cube), vortex_ms = median(vortex);
  std::vector<double> overhead, gens;
  int preemptions = 0;
  for (const Job& j : s.loop.jobs) {
    preemptions += j.preemptions;
    gens.push_back(j.generations);
    if (j.submit_s < s.loop.t0 || j.done_s > s.loop.t1) continue;
    overhead.push_back(1e3 * (j.done_s - j.submit_s) - setup_ms -
                       (is_cube(j.spec) ? cube_ms : vortex_ms) -
                       j.generations * ckpt_save_ms);
  }
  report.set_layer("serve.job_setup_ms", setup_ms);
  report.set_layer("serve.solve_ms_cube", cube_ms);
  report.set_layer("serve.solve_ms_vortex", vortex_ms);
  report.set_layer("serve.overhead_ms_p50", median(overhead));
  report.set_layer("serve.preemptions", preemptions);
  report.set_layer("ckpt.generations_per_job", median(gens));
}

CkptProbe cube_ckpt_probe(const Args& args, const JobSpec& cube) {
  return ckpt_save(f3d::serve::build_case_grid(cube),
                   args.work_dir + "/ckpt_probe");
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  note("input: %d clients, closed loop; jobs pinned to 1 lane, engine risc, "
       "12 steps, checkpoint every 6 steps, durable state directory",
       kClients);
  const ServeLayers s = serve_run(args, args.seconds, true, report);

  std::vector<double> job_ms;
  std::vector<TimedOp> timed;
  std::size_t completed = 0;
  for (const Job& j : s.loop.jobs) {
    if (j.done_s >= s.loop.t0 && j.done_s <= s.loop.t1) ++completed;
    if (j.submit_s >= s.loop.t0 && j.done_s <= s.loop.t1) {
      job_ms.push_back(1e3 * (j.done_s - j.submit_s));
      timed.push_back(TimedOp{s.loop.base + j.submit_s,
                              s.loop.base + j.done_s, job_ms.back()});
    }
  }
  const double p50 = steal_free_median("job_ms_p50", timed, args);
  const double wall = s.loop.t1 - s.loop.t0;
  const Percentile p90 = percentile(job_ms, 0.9);
  note("jobs_per_s = %.3f 1/s (%zu jobs in %.3f s)", completed / wall,
       completed, wall);
  note("job_ms_p50 = %.4f ms (n=%zu)", p50, job_ms.size());
  note("job_ms_p90 = %.4f ms (n=%zu, %zu beyond%s)", p90.value, p90.samples,
       p90.beyond, p90.valid ? "" : "; fewer than 10 beyond, not reportable");
  report.set_e2e("setup_s", steal_free_median("setup_s", s.loop.setup, args));
  report.set_e2e("op_ms_p50", p50);
  if (!args.trace) return;

  const JobSpec& cube = s.mix.pool.front();
  const CkptProbe ck = cube_ckpt_probe(args, cube);
  report.set_layer("ckpt.save_ms_p50", ck.save_ms_p50);
  report.set_layer("ckpt.bytes_per_generation", ck.bytes_per_generation);
  set_serve_layers(s, ck.save_ms_p50, report);

  std::vector<double> traced, untraced;
  for (const Job& j : s.loop.jobs) {
    if (j.submit_s < s.loop.t0 || j.done_s > s.loop.t1) continue;
    (j.traced ? traced : untraced).push_back(j.done_s - j.submit_s);
  }
  report.set_layer("trace.overhead_frac",
                   median(traced) / median(untraced) - 1.0);

  // Core and f3d layers on the majority job kind, at the jobs' 1 lane.
  const GridFactory make_grid = [&] {
    return f3d::serve::build_case_grid(cube);
  };
  const f3d::SolverConfig cfg = f3d::serve::build_solver_config(cube);
  const StepRun one = run_steps(make_grid, cfg, 1, 2, 1 << 20, 0.5);
  const StepRun four = run_steps(make_grid, cfg, kLanes, 2, 1 << 20, 0.5);
  llp::Runtime rt(kLanes);
  const double one_ms = median(one.step_ms);
  set_grid_layers(report, one, one.regions, one_ms, median(four.step_ms),
                  one_ms, one.flops_per_step, one.bytes_per_step,
                  fork_join_us(rt));
  const auto grid = make_grid();
  report.set_layer("f3d.rhs_ns_per_point", rhs_ns_per_point(grid, cfg));
  report.set_layer("f3d.tridiag_lanes_ns_per_point",
                   tridiag_lanes_ns_per_point(grid));
  report.set_layer("analyze.classify_ms", classify_ms(grid, cfg));
  cluster_probe(args, report);
}

void serve_probe(const Args& args, Report& report) {
  trace::Span span("serve", "probe");
  const ServeLayers s = serve_run(args, 1.0, false, report);
  const CkptProbe ck = cube_ckpt_probe(args, s.mix.pool.front());
  set_serve_layers(s, ck.save_ms_p50, report);
}

}  // namespace perfbench
