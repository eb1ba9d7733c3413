// Self-tests of the benchmark's own statistics: the tail percentile and its
// ten-samples-beyond rule, failure counting, warm-up gating, and parsing of
// ClusterReport::log timestamps. Exits nonzero on the first failed check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void test_percentile() {
  using perfbench::percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const auto p90 = perfbench::percentile(v, 0.9);
  expect(p90.value == 90.0, "p90 of 1..100 is 90 (nearest rank)");
  expect(p90.beyond == 10, "p90 of 100 samples has 10 beyond");
  expect(p90.valid, "10 beyond is enough");
  const auto p90_small = percentile(std::vector<double>(99, 1.0), 0.9);
  expect(!p90_small.valid, "p90 of 99 samples has 9 beyond: not valid");
  const auto p99 = percentile(std::vector<double>(1000, 1.0), 0.99);
  expect(p99.beyond == 10 && p99.valid, "p99 of 1000 samples: 10 beyond");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  expect(perfbench::median({}) == 0.0, "empty median");
  expect(percentile({}, 0.9).samples == 0, "empty percentile");
}

void test_steal_free() {
  using perfbench::StealSample;
  using perfbench::TimedOp;
  // Two steal ticks land between t=1.0 and t=1.1, none elsewhere.
  const std::vector<StealSample> host = {
      {0.9, 5, 100}, {1.0, 5, 140}, {1.1, 7, 180}, {1.2, 7, 220},
      {1.3, 7, 260}};
  const std::vector<TimedOp> ops = {
      {0.95, 0.99, 1.0},   // clean: 0.9 .. 1.0
      {1.02, 1.04, 9.0},   // 2 of 40 ticks stolen: 1.0 .. 1.1
      {1.15, 1.25, 2.0},   // clean: 1.1 .. 1.3
      {1.09, 1.11, 8.0},   // 2 of 80 ticks stolen: 1.0 .. 1.2
      {0.80, 0.85, 7.0},   // before the first sample: unknown
      {1.28, 1.35, 6.0}};  // after the last sample: unknown
  bool fell_back = true;
  auto v = perfbench::steal_free(ops, host, 0.25, &fell_back);
  expect(!fell_back, "two of six clean meets a 25% share");
  expect(v.size() == 2 && v[0] == 1.0 && v[1] == 2.0,
         "only operations with no steal tick across them are kept");
  v = perfbench::steal_free(ops, host, 0.5, &fell_back);
  std::sort(v.begin(), v.end());
  expect(fell_back && v == std::vector<double>({1.0, 2.0, 8.0}),
         "below the share: the half with the least stolen share");
  v = perfbench::steal_free(ops, {}, 0.25, &fell_back);
  expect(fell_back && v.size() == ops.size(),
         "no host samples: every operation, flagged");
}

void test_tally() {
  perfbench::Tally t;
  t.ok(98);
  expect(t.check(true, "unused"), "a passing check returns true");
  expect(!t.check(false, "residual mismatch"), "a failing check returns false");
  expect(t.attempted() == 100, "checks count as attempted");
  expect(t.failed() == 1, "one failure");
  expect(std::abs(t.fail_frac() - 0.01) < 1e-15, "fail_frac = 1/100");
  expect(t.reasons().front() == "residual mismatch", "reason kept");
  perfbench::Tally empty;
  expect(empty.fail_frac() == 0.0, "no attempts: fail_frac 0");
}

void test_warmup() {
  perfbench::Warmup w(0.05);
  expect(!w.add_block(3.12), "first block never settles");
  expect(!w.add_block(1.30), "a 58% drop is not settled");
  expect(w.add_block(1.25), "within 5% settles");
  expect(w.add_block(9.0), "settled stays settled");
  expect(w.settled(), "settled() agrees");
}

void test_cluster_log() {
  using perfbench::parse_log_line;
  const auto st = parse_log_line("[    42 ms] slot 0: ready (attempt 1)");
  expect(st && st->ms == 42 && st->text == "slot 0: ready (attempt 1)",
         "padded stamp parses");
  expect(!parse_log_line("slot 0: ready"), "no stamp: rejected");
  expect(!parse_log_line("[ 4x2 ms] text"), "non-digit stamp: rejected");
  expect(!parse_log_line("[ ms] text"), "empty stamp: rejected");
  const auto wide = parse_log_line("[1234567 ms] run complete");
  expect(wide && wide->ms == 1234567, "stamps wider than 6 columns parse");

  const std::vector<std::string> log = {
      "[     3 ms] slot 0: spawned pid 10 (rank 0/2, zones [0,1), "
      "attempt 1)",
      "[     4 ms] slot 1: spawned pid 11 (rank 1/2, zones [1,2), "
      "attempt 1)",
      "[    20 ms] slot 1: ready (attempt 1)",
      "[    25 ms] slot 0: ready (attempt 1)",
      "[   300 ms] step 5: sealed generation for step 4 (res 1.0e-03)",
      "[   550 ms] step 10: sealed generation for step 9 (res 9.0e-04)",
      "[   810 ms] step 15: sealed generation for step 14 (res 8.0e-04)",
      "[  1060 ms] step 20: sealed generation for step 19 (res 7.0e-04)",
      "garbage",
      "[  1100 ms] run complete: 21 steps, final residual 1",
  };
  const auto all = perfbench::parse_cluster_log(log, 0);
  expect(all.first_spawn_ms == 3, "first spawn stamp");
  expect(all.last_ready_ms == 25, "last ready stamp, not the first");
  expect(all.unparsed == 1, "one unparsed line");
  const auto& iv = all.intervals;
  expect(iv.size() == 3, "three seal intervals");
  expect(iv.size() == 3 && iv[0].step_ms == 50.0 && iv[1].step_ms == 52.0 &&
             iv[2].step_ms == 50.0,
         "interval / steps between sealed generations");
  expect(iv.size() == 3 && iv[0].from_ms == 300 && iv[0].to_ms == 550,
         "interval stamps");
  const auto skip = perfbench::parse_cluster_log(log, 1);
  expect(skip.intervals.size() == 2 && skip.intervals[0].step_ms == 52.0,
         "leading intervals skipped as warm-up");
}

void test_rng() {
  perfbench::Rng a(7), b(7), c(8);
  const auto x = a.next();
  expect(x == b.next(), "same seed, same stream");
  expect(x != c.next(), "different seed, different stream");
  for (int i = 0; i < 1000; ++i) {
    const double u = a.uniform(2.0, 3.0);
    if (!(u >= 2.0 && u < 3.0)) {
      expect(false, "uniform stays in [lo, hi)");
      break;
    }
  }
}

}  // namespace

int main() {
  test_percentile();
  test_steal_free();
  test_tally();
  test_warmup();
  test_cluster_log();
  test_rng();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
