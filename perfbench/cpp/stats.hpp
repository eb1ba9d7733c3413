// Statistics the benchmark reports, kept free of program dependencies so
// tests/selftest.cpp can check them on their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile: the value at rank ceil(p * n) of the sorted
/// samples. `beyond` counts the samples ranked above it. A tail percentile
/// is reported only when at least kMinBeyond samples lie beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool valid = false;  ///< beyond >= kMinBeyond
};
inline constexpr std::size_t kMinBeyond = 10;
Percentile percentile(std::vector<double> v, double p);

/// One reading of the host's aggregate CPU time counters (/proc/stat, in
/// clock ticks) at `t` seconds.
struct StealSample {
  double t = 0.0;
  double steal = 0.0;  ///< time the hypervisor ran other guests instead
  double total = 0.0;
};

/// One timed operation: [start, end] in seconds, and its measured value.
struct TimedOp {
  double start = 0.0, end = 0.0, value = 0.0;
};

/// The values of the operations during which the host stole no CPU time:
/// no steal tick between the last sample at or before `start` and the first
/// at or after `end`. When fewer than `min_share` of the operations are
/// clean, sets *fell_back and returns the `min_share` of them that saw the
/// smallest share of stolen time (every value when no sample brackets any
/// operation).
std::vector<double> steal_free(const std::vector<TimedOp>& ops,
                               const std::vector<StealSample>& host,
                               double min_share, bool* fell_back);

/// Operations attempted and failed, with the reason of every failure.
/// A failure is a throw, a non-finite residual, a job that does not end
/// done, a failed correctness check, or a cluster fault.
class Tally {
public:
  void ok(std::size_t n = 1) { attempted_ += n; }
  void fail(std::string why);
  /// Counts one check: ok when `passed`, else a failure described by `why`.
  bool check(bool passed, const std::string& why);
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return reasons_.size(); }
  double fail_frac() const;
  const std::vector<std::string>& reasons() const { return reasons_; }

private:
  std::size_t attempted_ = 0;
  std::vector<std::string> reasons_;
};

/// Warm-up gate: feed the median of each block of operations; timings have
/// settled once two consecutive block medians differ by less than `tol`.
class Warmup {
public:
  explicit Warmup(double tol = 0.05) : tol_(tol) {}
  /// Returns true once settled (and stays true).
  bool add_block(double block_median);
  bool settled() const { return settled_; }

private:
  double tol_;
  double prev_ = -1.0;
  bool settled_ = false;
};

/// One line of ClusterReport::log: "[<ms> ms] <text>".
struct LogStamp {
  long long ms = 0;
  std::string text;
};
std::optional<LogStamp> parse_log_line(std::string_view line);

/// What the benchmark reads from a coordinator log.
struct ClusterTimeline {
  long long first_spawn_ms = -1;  ///< first "slot N: spawned" stamp
  long long last_ready_ms = -1;   ///< last "slot N: ready" stamp
  /// Each interval between consecutive generation seals, with its per-step
  /// time: (stamp difference) / (steps between the sealed generations).
  struct Interval {
    long long from_ms = 0, to_ms = 0;
    double step_ms = 0.0;
  };
  std::vector<Interval> intervals;
  int unparsed = 0;  ///< lines without a "[<ms> ms] " stamp
};
/// `skip_intervals` leading seal intervals are dropped as warm-up.
ClusterTimeline parse_cluster_log(const std::vector<std::string>& log,
                                  int skip_intervals);

/// Deterministic seeded generator (SplitMix64) for the workload inputs.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

private:
  std::uint64_t s_;
};

}  // namespace perfbench
