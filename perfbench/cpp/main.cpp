// llp_perfbench — the repository benchmark program.
//
//   llp_perfbench --workload solve_1m|solve_small|serve_mix|cluster_1m
//                 --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--inject-wrong]
//
// Runs one workload from one seeded process, checks every output, prints
// each metric by name and unit, and ends with one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Exits 1 when any operation or correctness
// check failed, 2 on a usage error. --inject-wrong corrupts one reference
// value so the correctness check must fail (the self-tests use it).
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports. An operation is a solver
// step (solve_*, cluster_1m) or a job from submit to done (serve_mix).
// Throughput is printed, not a metric: on a shared host it moved up to 2x
// between solve_small runs of the same code (one descheduled lane stalls
// every fork-join it is part of) while the median step stayed within a few
// percent. serve_mix's closed loop ties its job rate to op_ms_p50 (4
// clients / latency).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_ms_p50", "ms"},
};

// The per-layer metrics of the traced run, by module. A layer the workload
// does not run itself is measured by a short probe run of that layer.
constexpr MetricDef kPerLayer[] = {
    {"core.fork_joins_per_step", "count"},
    {"core.fork_join_us", "us"},
    {"core.sync_share", "ratio"},
    {"core.lane_imbalance", "ratio"},
    {"core.speedup_p4", "ratio"},
    {"model.stairstep_p4", "ratio"},
    {"f3d.rhs_ms_per_step", "ms"},
    {"f3d.sweep_j_ms_per_step", "ms"},
    {"f3d.sweep_k_ms_per_step", "ms"},
    {"f3d.sweep_l_ms_per_step", "ms"},
    {"f3d.update_ms_per_step", "ms"},
    {"f3d.serial_ms_per_step", "ms"},
    {"f3d.rhs_ns_per_point", "ns"},
    {"f3d.tridiag_lanes_ns_per_point", "ns"},
    {"f3d.flops_per_step", "flop"},
    {"f3d.bytes_per_step", "B"},
    {"f3d.mflops", "MFLOPS"},
    {"f3d.steps_per_hour", "1/h"},
    {"analyze.classify_ms", "ms"},
    {"serve.job_setup_ms", "ms"},
    {"serve.solve_ms_cube", "ms"},
    {"serve.solve_ms_vortex", "ms"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.preemptions", "count"},
    {"ckpt.save_ms_p50", "ms"},
    {"ckpt.bytes_per_generation", "B"},
    {"ckpt.generations_per_job", "count"},
    {"cluster.spawn_ms", "ms"},
    {"cluster.compute_ms_per_step", "ms"},
    {"cluster.coord_ms_per_step", "ms"},
    {"cluster.frames_per_step", "count"},
    {"cluster.heartbeats_per_s", "1/s"},
    {"cluster.recoveries", "count"},
    {"cluster.respawns", "count"},
    {"cluster.detector_faults", "count"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "usage: llp_perfbench --workload "
               "solve_1m|solve_small|serve_mix|cluster_1m --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--inject-wrong]\n"
               "  %s\n",
               why.c_str());
  std::exit(2);
}

std::string self_dir() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  return std::filesystem::path(buf).parent_path().string();
}

Args parse(int argc, char** argv) {
  Args a;
  std::string work_root = ".bench_work";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      const std::string v = value();
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
      have_seed = true;
    } else if (k == "--seconds") {
      const std::string v = value();
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds >= 0.5) ||
          a.seconds > 600) {
        usage("bad --seconds " + v);
      }
      have_seconds = true;
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("bad --trace " + v);
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--work-dir") {
      work_root = value();
    } else if (k == "--inject-wrong") {
      a.inject_wrong = true;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload != "solve_1m" && a.workload != "solve_small" &&
      a.workload != "serve_mix" && a.workload != "cluster_1m") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  a.exe_dir = self_dir();
  // Relative and short: the serve socket path must fit in sun_path.
  a.work_dir = work_root + "/" + a.workload + "-" + std::to_string(getpid());
  return a;
}

void print_metrics(const char* title, const MetricDef* defs, std::size_t n,
                   const std::map<std::string, double>& got, Tally& tally) {
  note("%s:", title);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = got.find(defs[i].name);
    if (it == got.end()) {
      tally.fail(std::string("benchmark did not measure ") + defs[i].name);
      continue;
    }
    note("  %-32s %.6g %s", defs[i].name, it->second, defs[i].unit);
  }
}

std::string json_metrics(const MetricDef* defs, std::size_t n,
                         const std::map<std::string, double>& got) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = got.find(defs[i].name);
    if (it == got.end()) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", defs[i].name, it->second,
                  defs[i].unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  now_s();  // starts the clock every timestamp is taken against
  Args args = parse(argc, argv);
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);
  trace::set_enabled(args.trace);

  const std::string host = host_json(args.work_dir);
  note("perfbench: workload %s, seed %llu, %.3g s, trace %d",
       args.workload.c_str(), static_cast<unsigned long long>(args.seed),
       args.seconds, args.trace ? 1 : 0);
  note("host: %s", host.c_str());

  const StealMonitor host_monitor;
  args.host = &host_monitor;
  Report report;
  try {
    if (args.workload == "solve_1m") run_solve(args, 0.5, report);
    else if (args.workload == "solve_small") run_solve(args, 0.15, report);
    else if (args.workload == "serve_mix") run_serve(args, report);
    else run_cluster(args, report);
  } catch (const std::exception& e) {
    report.tally.fail(std::string("workload threw: ") + e.what());
  }
  trace::set_enabled(false);
  // Time the hypervisor gave this VM's CPUs to others during the run.
  const std::vector<StealSample> cpu = host_monitor.samples();
  const double ticks = cpu.back().total - cpu.front().total;
  note("host steal = %.2f%% of CPU time during the run",
       ticks > 0 ? 100.0 * (cpu.back().steal - cpu.front().steal) / ticks
                 : 0.0);
  // Printed, not a JSON metric: serve_mix's peak varies 13-86 MB between
  // runs of the same code (allocator and thread-stack caching of per-job
  // runner threads), far beyond any usable regression bound.
  note("peak_rss_mb = %.3f MB", peak_rss_mb());

  Tally& tally = report.tally;
  if (tally.failed() == 0) {
    if (args.trace) {
      print_metrics("per-layer metrics", kPerLayer, std::size(kPerLayer),
                    report.layer, tally);
    } else {
      print_metrics("end-to-end metrics", kEndToEnd, std::size(kEndToEnd),
                    report.e2e, tally);
    }
  }
  note("fail_frac = %.6g (%zu failed of %zu attempted)", tally.fail_frac(),
       tally.failed(), tally.attempted());
  for (const std::string& why : tally.reasons()) {
    note("FAILED: %s", why.c_str());
  }

  if (args.trace) {
    const std::string path = std::filesystem::path(args.work_dir)
                                 .parent_path()
                                 .append("trace-" + args.workload + ".json")
                                 .string();
    if (trace::write_chrome(path, host)) {
      note("trace: %zu spans written to %s", trace::span_count(),
           path.c_str());
    } else {
      tally.fail("cannot write the trace to " + path);
    }
  }
  std::filesystem::remove_all(args.work_dir);

  const bool correct = tally.failed() == 0;
  const std::string metrics =
      args.trace
          ? json_metrics(kPerLayer, std::size(kPerLayer), report.layer)
          : json_metrics(kEndToEnd, std::size(kEndToEnd), report.e2e);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              std::max<std::size_t>(tally.attempted(), 1), tally.failed(),
              metrics.c_str());
  return correct ? 0 : 1;
}
