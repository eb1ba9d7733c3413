// Shared pieces of the benchmark program: the run arguments, the report a
// workload fills, and timing helpers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

/// Lanes every workload keeps busy: the host this benchmark was defined on
/// has 4 cores, and runs that leave cores idle were unsteady there.
inline constexpr int kLanes = 4;

class StealMonitor;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one reference value so the workload's
  /// correctness check must fail and the run must exit nonzero.
  bool inject_wrong = false;
  std::string exe_dir;   ///< directory holding f3d_cluster
  std::string work_dir;  ///< temporary state dirs, sockets and the trace
  const StealMonitor* host = nullptr;
};

/// What one workload run produces, by metric name (main.cpp lists every
/// metric with its unit). `e2e` holds the end-to-end metrics, `layer` the
/// per-layer metrics of the traced run.
struct Report {
  Tally tally;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  void set_e2e(const std::string& name, double v) { e2e[name] = v; }
  void set_layer(const std::string& name, double v) { layer[name] = v; }
};

/// Seconds on the steady clock since the process started; the time base of
/// every TimedOp and StealSample.
double now_s();

/// Samples /proc/stat every 100 ms on a background thread from
/// construction to destruction, so operations measured while the host
/// stole CPU time can be told apart.
class StealMonitor {
public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;
  /// Every sample so far, plus one taken now.
  std::vector<StealSample> samples() const;

private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;                 // guarded by mu_
  std::vector<StealSample> samples_;  // guarded by mu_
  std::thread thread_;                // last: uses the members above
};

/// The median of `ops` over those measured with no host steal (see
/// steal_free), noting how many were kept under `name`.
double steal_free_median(const char* name, const std::vector<TimedOp>& ops,
                         const Args& args);

/// Prints one human-readable line of the run's output.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Peak resident set of this process (ru_maxrss) in MB.
double peak_rss_mb();

/// Seeded Gaussian pulse shared by the solve and cluster workloads.
struct Pulse {
  double amplitude = 0.0;
  double radius_cells = 0.0;
};
Pulse seeded_pulse(std::uint64_t seed);

void run_solve(const Args& args, double scale, Report& report);
void run_serve(const Args& args, Report& report);
void run_cluster(const Args& args, Report& report);

}  // namespace perfbench
