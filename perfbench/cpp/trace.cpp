#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench::trace {
namespace {

struct Record {
  const char* layer;
  const char* name;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint32_t tid;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu

thread_local std::uint32_t t_open = 0;  // innermost open span on this thread
thread_local std::uint32_t t_tid = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::size_t span_count() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_records.size();
}

Span::Span(const char* layer, const char* name) : layer_(layer), name_(name) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open;
  t_open = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_open = parent_;
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(
      Record{layer_, name_, id_, parent_, t_tid, start_ns_, end});
}

bool write_chrome(const std::string& path, const std::string& host_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  const std::int64_t t0 = g_records.empty() ? 0 : g_records.front().start_ns;
  std::int64_t base = t0;
  for (const Record& r : g_records) base = std::min(base, r.start_ns);
  std::fprintf(f, "{\"otherData\":%s,\"traceEvents\":[", host_json.c_str());
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%u,\"parent\":%u}}",
                 i == 0 ? "" : ",", r.name, r.layer, r.tid,
                 static_cast<double>(r.start_ns - base) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.id,
                 r.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
