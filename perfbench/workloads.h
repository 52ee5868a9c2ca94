// The four workloads. Each builds all of its inputs from the workload
// seed in setup() (data, reference answers, job builds, warm-up), then
// measure() runs one timed phase. A traced phase passes a recorder and
// fills the per-layer metrics; an untraced phase fills the end-to-end
// ones. The design record (DESIGN.md) says why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "spans.h"

namespace perfbench {

/// What one measured phase of a workload yields.
struct Phase {
  std::size_t attempted = 0;  ///< jobs / queries / plans tried
  std::size_t failed = 0;     ///< not DONE + wrong answers + infeasible plans
  /// Metrics under the names BENCHMARK.json gives them.
  Metrics e2e;
  /// The same numbers under the workload-specific names a reader of the
  /// design record looks for (query_ms_p50, lat_p99_ms, ...).
  Metrics named;
  /// Per-layer metrics; filled only by a traced phase.
  Metrics layers;
  /// Human-readable lines printed before the result (counts, bases).
  std::vector<std::string> notes;
  /// Non-empty = the run broke its own rules (the open-loop generator
  /// fell behind); it is reported as invalid, not measured.
  std::string invalid;
  /// Spans of a traced phase, after job ids were made workload-local.
  std::vector<Span> spans;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from `seed` and warms up.
  virtual ditto::Status setup(std::uint64_t seed) = 0;
  /// One measured phase of about `seconds`; `rec` non-null = traced.
  virtual Phase measure(double seconds, SpanRecorder* rec) = 0;
  /// Checks made during setup: {attempted, failed}.
  virtual std::pair<std::size_t, std::size_t> setup_checks() const { return {0, 0}; }
};

std::unique_ptr<Workload> make_batch_large();
std::unique_ptr<Workload> make_service_cold();
std::unique_ptr<Workload> make_service_recurring();
std::unique_ptr<Workload> make_plan_paper();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
