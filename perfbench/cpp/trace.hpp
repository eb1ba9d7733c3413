// In-memory spans recorded by the benchmark around its calls into each
// layer of the program. Nothing here reaches inside src/: a span covers one
// public call (a solver step, a job round trip, a cluster run, a probe).
// Spans are kept in memory and written out as a Chrome trace at the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench::trace {

/// Spans are recorded only while enabled. The traced run switches this on
/// and off between blocks so it can measure its own overhead.
void set_enabled(bool on);
bool enabled();

/// Total spans recorded so far.
std::size_t span_count();

/// Writes every recorded span as Chrome trace JSON. Returns false on an
/// I/O error.
bool write_chrome(const std::string& path, const std::string& host_json);

/// RAII span: `layer` is the module name (core, f3d, serve, ckpt, cluster,
/// analyze, model), `name` the call. Spans opened on one thread nest; each
/// records the span that was open when it began as its parent.
class Span {
public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  const char* layer_;
  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

}  // namespace perfbench::trace
