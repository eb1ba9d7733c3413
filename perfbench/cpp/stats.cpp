#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile percentile(std::vector<double> v, double p) {
  Percentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  out.value = v[rank - 1];
  out.beyond = v.size() - rank;
  out.valid = out.beyond >= kMinBeyond;
  return out;
}

std::vector<double> steal_free(const std::vector<TimedOp>& ops,
                               const std::vector<StealSample>& host,
                               double min_share, bool* fell_back) {
  std::vector<std::pair<double, double>> stolen;  // (steal share, value)
  for (const TimedOp& op : ops) {
    const auto after_start = std::upper_bound(
        host.begin(), host.end(), op.start,
        [](double t, const StealSample& s) { return t < s.t; });
    const auto at_end = std::lower_bound(
        host.begin(), host.end(), op.end,
        [](const StealSample& s, double t) { return s.t < t; });
    if (after_start == host.begin() || at_end == host.end()) continue;
    const StealSample& from = *std::prev(after_start);
    const double ticks = at_end->total - from.total;
    stolen.emplace_back(ticks > 0 ? (at_end->steal - from.steal) / ticks : 0.0,
                        op.value);
  }
  std::vector<double> out;
  if (stolen.empty()) {
    *fell_back = true;
    for (const TimedOp& op : ops) out.push_back(op.value);
    return out;
  }
  for (const auto& [share, value] : stolen) {
    if (share == 0.0) out.push_back(value);
  }
  const auto wanted = static_cast<std::size_t>(
      std::ceil(min_share * static_cast<double>(ops.size())));
  *fell_back = out.size() < std::max<std::size_t>(wanted, 1);
  if (!*fell_back) return out;
  std::sort(stolen.begin(), stolen.end());
  stolen.resize(std::clamp<std::size_t>(wanted, 1, stolen.size()));
  out.clear();
  for (const auto& [share, value] : stolen) out.push_back(value);
  return out;
}

void Tally::fail(std::string why) {
  ++attempted_;
  reasons_.push_back(std::move(why));
}

bool Tally::check(bool passed, const std::string& why) {
  if (passed) {
    ok();
  } else {
    fail(why);
  }
  return passed;
}

double Tally::fail_frac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(reasons_.size()) /
                               static_cast<double>(attempted_);
}

bool Warmup::add_block(double block_median) {
  if (!settled_ && prev_ > 0.0 &&
      std::abs(block_median - prev_) < tol_ * prev_) {
    settled_ = true;
  }
  prev_ = block_median;
  return settled_;
}

std::optional<LogStamp> parse_log_line(std::string_view line) {
  // "[%6lld ms] text": the stamp is right-aligned in six columns.
  if (line.empty() || line.front() != '[') return std::nullopt;
  const std::size_t close = line.find(" ms] ");
  if (close == std::string_view::npos) return std::nullopt;
  std::string_view num = line.substr(1, close - 1);
  while (!num.empty() && num.front() == ' ') num.remove_prefix(1);
  if (num.empty()) return std::nullopt;
  long long ms = 0;
  for (const char c : num) {
    if (c < '0' || c > '9') return std::nullopt;
    ms = ms * 10 + (c - '0');
  }
  return LogStamp{ms, std::string(line.substr(close + 5))};
}

ClusterTimeline parse_cluster_log(const std::vector<std::string>& log,
                                  int skip_intervals) {
  ClusterTimeline t;
  long long prev_ms = -1;
  int prev_gen_step = -1;
  int intervals = 0;
  for (const std::string& line : log) {
    const auto st = parse_log_line(line);
    if (!st) {
      ++t.unparsed;
      continue;
    }
    int slot = 0, s = 0, gen_step = 0;
    char word[16] = {0};
    if (std::sscanf(st->text.c_str(), "slot %d: %15s", &slot, word) == 2) {
      const std::string w = word;
      if (w == "spawned" && t.first_spawn_ms < 0) t.first_spawn_ms = st->ms;
      if (w == "ready") t.last_ready_ms = st->ms;
      continue;
    }
    if (std::sscanf(st->text.c_str(),
                    "step %d: sealed generation for step %d", &s,
                    &gen_step) == 2) {
      if (prev_gen_step >= 0 && gen_step > prev_gen_step) {
        if (intervals++ >= skip_intervals) {
          t.intervals.push_back(
              {prev_ms, st->ms,
               static_cast<double>(st->ms - prev_ms) /
                   (gen_step - prev_gen_step)});
        }
      }
      prev_ms = st->ms;
      prev_gen_step = gen_step;
    }
  }
  return t;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

}  // namespace perfbench
