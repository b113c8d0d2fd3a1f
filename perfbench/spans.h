// In-memory span log of the traced benchmark run. Spans are recorded
// around the benchmark's calls into each layer's public functions (and
// copied from the engine's own per-statement span tree), kept in memory
// while the run is timed, and written out as JSON lines when it ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  /// Spans beyond this many are counted but not kept.
  static constexpr size_t kMaxSpans = 2'000'000;

  /// Opens a span now; returns its id (or -1 when the log is full).
  int Open(const std::string& name, const std::string& layout,
           const char* op, int parent, uint32_t stmt);
  /// Overrides an open span's interval with measured bounds.
  void SetTimes(int id, Clock::time_point start, Clock::time_point end);
  /// Ends a span now unless its end was already set.
  void Close(int id);
  /// Adds a finished span of the parent's layout and op.
  void Add(const char* name, int parent, uint32_t stmt,
           Clock::time_point start, Clock::time_point end);
  /// Copies the engine tracer's children of `root` under `parent`. The
  /// engine records durations only, so siblings are laid end to end from
  /// `start`. Durations of "admit" spans are appended to `admit_us`.
  void AddTree(const mtdb::trace::Span& root, int parent, uint32_t stmt,
               Clock::time_point start, std::vector<double>* admit_us);
  /// Writes one JSON object per line: id, parent, stmt, name, layout,
  /// op, start_ns, end_ns (nanoseconds since the log was created).
  bool Write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::string layout;
    const char* op = "";
    int parent = -1;
    uint32_t stmt = 0;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  void AddChildren(const mtdb::trace::Span& span, int parent, uint32_t stmt,
                   int64_t start_ns, std::vector<double>* admit_us);

  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
