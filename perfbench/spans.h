// The benchmark's own span recorder. Every wrapper in timed.h records
// one span per call into a layer: name, start, end, parent, job id and
// the few numbers measured at that boundary (kernel seconds inside a
// stage function, bytes moved by a store op). Spans stay in memory and
// are written out once, as Chrome trace JSON that Perfetto opens.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";        ///< static string: the layer boundary
  double start = 0.0;           ///< now_s() seconds
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;     ///< 0 = root
  std::int64_t job = -1;        ///< workload-local job index (-1 = none)
  int stage = -1;
  int task = -1;
  int tid = 0;                  ///< dense recorder-assigned thread index
  /// stage_fn: kernel seconds (group_by, join, filter, top_k) inside.
  double kernel[4] = {0.0, 0.0, 0.0, 0.0};
  double bytes = 0.0;           ///< store op payload bytes
  bool synthetic = false;       ///< built from a result struct, not a call

  double dur() const { return end - start; }
};

class SpanRecorder {
 public:
  /// Reserves an id before the span completes, so children recorded
  /// first can name their parent.
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span; fills id (when 0) and tid.
  void add(Span s);

  std::vector<Span> snapshot() const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Writes spans as Chrome trace-event JSON ("X" events, µs
/// timestamps), which Perfetto opens. False on an I/O error.
bool write_chrome_json(const std::string& path, const std::vector<Span>& spans);

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered_seconds(std::vector<std::pair<double, double>> intervals, double lo, double hi);

}  // namespace perfbench
