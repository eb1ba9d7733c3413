#include "probes.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "analyze/static/registry.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/parallel_for.hpp"
#include "f3d/gas.hpp"
#include "f3d/rhs.hpp"
#include "f3d/signatures.hpp"
#include "f3d/tridiag.hpp"
#include "f3d/validation.hpp"
#include "model/stairstep.hpp"
#include "trace.hpp"

namespace perfbench {

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double now_s() {
  static const Clock::time_point start = Clock::now();
  return seconds_since(start);
}

namespace {

StealSample read_host_cpu() {
  StealSample s;
  s.t = now_s();
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return s;
  unsigned long long v[8] = {0};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) s.total += static_cast<double>(x);
    s.steal = static_cast<double>(v[7]);
  }
  std::fclose(f);
  return s;
}

}  // namespace

StealMonitor::StealMonitor() {
  samples_.push_back(read_host_cpu());
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stop_; })) {
      lock.unlock();
      const StealSample s = read_host_cpu();
      lock.lock();
      samples_.push_back(s);
    }
  });
}

StealMonitor::~StealMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::vector<StealSample> StealMonitor::samples() const {
  std::vector<StealSample> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = samples_;
  }
  out.push_back(read_host_cpu());
  return out;
}

double steal_free_median(const char* name, const std::vector<TimedOp>& ops,
                         const Args& args) {
  bool fell_back = true;
  const std::vector<double> v = steal_free(
      ops, args.host != nullptr ? args.host->samples()
                                : std::vector<StealSample>{},
      0.25, &fell_back);
  if (fell_back) {
    note("%s: the host stole CPU time during most of the %zu operations; "
         "median over the %zu that saw the least (not comparable with a "
         "quiet host)",
         name, ops.size(), v.size());
  } else {
    note("%s: median over the %zu of %zu operations measured with no host "
         "steal",
         name, v.size(), ops.size());
  }
  return median(v);
}

Pulse seeded_pulse(std::uint64_t seed) {
  Rng rng(seed);
  Pulse p;
  p.amplitude = rng.uniform(0.005, 0.02);
  p.radius_cells = rng.uniform(2.0, 3.0);
  return p;
}

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::string_view suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

std::size_t largest_zone(const f3d::MultiZoneGrid& grid) {
  std::size_t best = 0;
  for (int z = 1; z < grid.num_zones(); ++z) {
    if (grid.zone(z).interior_points() >
        grid.zone(static_cast<int>(best)).interior_points()) {
      best = static_cast<std::size_t>(z);
    }
  }
  return best;
}

}  // namespace

RegionBreakdown breakdown(const std::vector<llp::RegionStats>& before,
                          const std::vector<llp::RegionStats>& after,
                          int steps) {
  RegionBreakdown b;
  const double per_step_ms = 1e3 / std::max(steps, 1);
  double weighted_imbalance = 0.0, weight = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const llp::RegionStats& a = after[i];
    const llp::RegionStats zero;
    const llp::RegionStats& p = i < before.size() ? before[i] : zero;
    const double s = a.seconds - p.seconds;
    const std::uint64_t calls = a.invocations - p.invocations;
    if (calls == 0) continue;
    if (ends_with(a.name, ".rhs")) b.rhs_ms += s * per_step_ms;
    else if (ends_with(a.name, ".sweep_j")) b.sweep_j_ms += s * per_step_ms;
    else if (ends_with(a.name, ".sweep_k")) b.sweep_k_ms += s * per_step_ms;
    else if (ends_with(a.name, ".sweep_l")) b.sweep_l_ms += s * per_step_ms;
    else if (ends_with(a.name, ".update")) b.update_ms += s * per_step_ms;
    else if (ends_with(a.name, "bc") || ends_with(a.name, "exchange")) {
      b.serial_ms += s * per_step_ms;
      continue;
    }
    const double lane_mean = a.lane_mean_seconds - p.lane_mean_seconds;
    if (lane_mean > 0.0) {
      weighted_imbalance +=
          (a.lane_max_seconds - p.lane_max_seconds) / lane_mean * s;
      weight += s;
    }
    b.trips.push_back(static_cast<std::int64_t>(
        static_cast<double>(a.total_trips - p.total_trips) /
            static_cast<double>(calls) +
        0.5));
    b.seconds.push_back(s);
  }
  // One lane records no lane timing: a single lane is balanced.
  if (weight > 0.0) b.imbalance = weighted_imbalance / weight;
  return b;
}

double stairstep(const RegionBreakdown& b, int p) {
  double total = 0.0;
  for (const double s : b.seconds) total += s;
  if (b.trips.empty() || total <= 0.0) return 1.0;
  std::vector<std::int64_t> units;
  std::vector<double> fractions;
  for (std::size_t i = 0; i < b.trips.size(); ++i) {
    units.push_back(std::max<std::int64_t>(b.trips[i], 1));
    fractions.push_back(b.seconds[i] / total);
  }
  return llp::model::composite_stairstep_speedup(units, fractions, p);
}

StepRun run_steps(const GridFactory& make_grid, const f3d::SolverConfig& cfg,
                  int lanes, int warm_steps, int max_steps,
                  double max_seconds) {
  StepRun r;
  llp::Runtime rt(lanes);
  auto grid = make_grid();
  f3d::Solver solver(grid, cfg, rt);
  for (int s = 0; s < warm_steps; ++s) {
    solver.step();
    r.residuals.push_back(solver.residual());
  }
  const auto before = rt.regions().snapshot();
  const std::uint64_t sync0 = rt.pool().sync_events();
  const auto start = Clock::now();
  int steps = 0;
  while (steps < max_steps &&
         (steps == 0 || seconds_since(start) < max_seconds)) {
    trace::Span span("f3d", "Solver::step");
    const auto ts = Clock::now();
    solver.step();
    r.step_ms.push_back(ms_since(ts));
    r.residuals.push_back(solver.residual());
    ++steps;
  }
  r.regions = breakdown(before, rt.regions().snapshot(), steps);
  r.sync_per_step =
      static_cast<double>(rt.pool().sync_events() - sync0) / steps;
  r.checksum = f3d::checksum(grid);
  r.flops_per_step = solver.flops_per_step();
  r.bytes_per_step = solver.bytes_per_step();
  return r;
}

double fork_join_us(llp::Runtime& rt) {
  trace::Span span("core", "parallel_for(empty)");
  llp::RuntimeScope scope(rt);
  constexpr int kReps = 200;
  auto block = [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      llp::parallel_for(0, kLanes, [](std::int64_t) {},
                        llp::ForOptions{}.with_threads(kLanes));
    }
    return 1e6 * seconds_since(t0) / kReps;
  };
  block();
  std::vector<double> us;
  for (int b = 0; b < 15; ++b) us.push_back(block());
  return median(us);
}

double rhs_ns_per_point(const f3d::MultiZoneGrid& grid,
                        const f3d::SolverConfig& cfg) {
  trace::Span span("f3d", "compute_rhs_plane");
  const f3d::Zone& zone = grid.zone(static_cast<int>(largest_zone(grid)));
  const int g = f3d::Zone::kGhost;
  llp::Array4D<double> rhs(f3d::kNumVars, zone.jmax() + 2 * g,
                           zone.kmax() + 2 * g, zone.lmax() + 2 * g);
  const double dt = 0.01;
  auto pass = [&] {
    const auto t0 = Clock::now();
    for (int l = 0; l < zone.lmax(); ++l) {
      f3d::compute_rhs_plane(zone, l, dt, cfg.rhs, rhs);
    }
    return 1e9 * seconds_since(t0) /
           static_cast<double>(zone.interior_points());
  };
  pass();
  std::vector<double> ns;
  const auto start = Clock::now();
  while (ns.size() < 5 || (ns.size() < 200 && seconds_since(start) < 0.3)) {
    ns.push_back(pass());
  }
  return median(ns);
}

double tridiag_lanes_ns_per_point(const f3d::MultiZoneGrid& grid) {
  trace::Span span("f3d", "solve_tridiagonal_lanes");
  const f3d::Zone& zone = grid.zone(static_cast<int>(largest_zone(grid)));
  constexpr int W = f3d::kTridiagLaneWidth;
  double total_ns = 0.0, total_points = 0.0;
  Rng rng(42);
  for (const int n : {zone.jmax(), zone.kmax(), zone.lmax()}) {
    const std::size_t len = static_cast<std::size_t>(n) * W;
    std::vector<double> a(len, -1.0), c(len, -1.0), b0(len, 4.0), d0(len);
    for (double& v : d0) v = rng.uniform(-1.0, 1.0);
    std::vector<double> b(len), d(len);
    constexpr int kReps = 64;
    auto block = [&] {
      const auto t0 = Clock::now();
      for (int r = 0; r < kReps; ++r) {
        std::copy(b0.begin(), b0.end(), b.begin());
        std::copy(d0.begin(), d0.end(), d.begin());
        f3d::solve_tridiagonal_lanes(a.data(), b.data(), c.data(), d.data(),
                                     n);
      }
      return 1e9 * seconds_since(t0) / kReps;
    };
    block();
    std::vector<double> ns;
    for (int i = 0; i < 31; ++i) ns.push_back(block());
    total_ns += median(ns);
    total_points += static_cast<double>(len);
  }
  return total_ns / total_points;
}

double classify_ms(const f3d::MultiZoneGrid& grid,
                   const f3d::SolverConfig& cfg) {
  trace::Span span("analyze", "declare+classify");
  std::vector<double> ms;
  for (int r = 0; r < 9; ++r) {
    const auto t0 = Clock::now();
    f3d::declare_region_signatures(grid, cfg, /*overwrite=*/true);
    const auto table = llp::analyze::classification_table();
    ms.push_back(ms_since(t0));
    if (table.empty()) throw std::runtime_error("no region classified");
  }
  return median(ms);
}

CkptProbe ckpt_save(const f3d::MultiZoneGrid& grid, const std::string& dir) {
  trace::Span span("ckpt", "CheckpointStore::save");
  std::filesystem::remove_all(dir);
  CkptProbe out;
  {
    f3d::ckpt::Config cc;
    cc.dir = dir;
    cc.every = 1;
    cc.keep_generations = 3;
    cc.meta = "perfbench";
    f3d::ckpt::CheckpointStore store(cc);
    std::vector<double> ms;
    int gen = -1;
    for (int r = 0; r < 7; ++r) {
      const auto t0 = Clock::now();
      gen = store.save(grid, f3d::SolverState{r, 2.0, 1.0, -1.0});
      ms.push_back(ms_since(t0));
    }
    out.save_ms_p50 = median(ms);
    out.bytes_per_generation = static_cast<double>(
        std::filesystem::file_size(f3d::ckpt::state_path(dir, gen)));
  }
  std::filesystem::remove_all(dir);
  return out;
}

void set_grid_layers(Report& report, const StepRun& ref,
                     const RegionBreakdown& one_lane_regions,
                     double one_lane_ms, double four_lane_ms, double step_ms,
                     double flops_per_step, double bytes_per_step,
                     double fork_join) {
  report.set_layer("core.fork_joins_per_step", ref.sync_per_step);
  report.set_layer("core.fork_join_us", fork_join);
  report.set_layer("core.sync_share",
                   ref.sync_per_step * fork_join / 1e3 / step_ms);
  report.set_layer("core.lane_imbalance", ref.regions.imbalance);
  report.set_layer("core.speedup_p4", one_lane_ms / four_lane_ms);
  report.set_layer("model.stairstep_p4", stairstep(one_lane_regions, kLanes));
  report.set_layer("f3d.rhs_ms_per_step", ref.regions.rhs_ms);
  report.set_layer("f3d.sweep_j_ms_per_step", ref.regions.sweep_j_ms);
  report.set_layer("f3d.sweep_k_ms_per_step", ref.regions.sweep_k_ms);
  report.set_layer("f3d.sweep_l_ms_per_step", ref.regions.sweep_l_ms);
  report.set_layer("f3d.update_ms_per_step", ref.regions.update_ms);
  report.set_layer("f3d.serial_ms_per_step", ref.regions.serial_ms);
  report.set_layer("f3d.flops_per_step", flops_per_step);
  report.set_layer("f3d.bytes_per_step", bytes_per_step);
  report.set_layer("f3d.mflops", flops_per_step / (step_ms / 1e3) / 1e6);
  report.set_layer("f3d.steps_per_hour", 3.6e6 / step_ms);
  note("paper cross-check: measured speedup %.3f at %d lanes vs stair-step "
       "%.3f (1 lane %.4f ms/step, %d lanes %.4f ms/step)",
       one_lane_ms / four_lane_ms, kLanes,
       stairstep(one_lane_regions, kLanes), one_lane_ms, kLanes,
       four_lane_ms);
}

std::string host_json(const std::string& work_dir) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  for (char& ch : cpu) {
    if (ch == '"' || ch == '\\') ch = ' ';
  }
  std::string fs = "unknown";
  struct statfs st {};
  if (statfs(work_dir.c_str(), &st) == 0) {
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0xEF53: fs = "ext4"; break;
      case 0x58465342: fs = "xfs"; break;
      case 0x01021994: fs = "tmpfs"; break;
      case 0x794c7630: fs = "overlay"; break;
      case 0x9123683E: fs = "btrfs"; break;
      default: {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%lx",
                      static_cast<unsigned long>(st.f_type));
        fs = hex;
      }
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\":%ld,\"cpu\":\"%s\",\"tridiag_lanes_kernel\":"
                "\"%s\",\"build_type\":\"%s\",\"work_fs\":\"%s\"}",
                sysconf(_SC_NPROCESSORS_ONLN), cpu.c_str(),
                std::string(f3d::tridiag_lanes_kernel()).c_str(),
                PERFBENCH_BUILD_TYPE, fs.c_str());
  return buf;
}

}  // namespace perfbench
