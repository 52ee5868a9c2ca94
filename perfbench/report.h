// Turning spans and result structs into the numbers the benchmark
// prints: the canonical per-layer table, the span-derived engine
// breakdown, and the final result line.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "dag/job_dag.h"
#include "spans.h"

namespace perfbench {

/// Every per-layer metric, in BENCHMARK.json order, at value 0. A
/// traced phase overwrites the ones that apply to its workload.
Metrics layer_catalog();

/// Per-engine-run means derived from spans: for every "engine.run"
/// span, its "stage_fn" and "store.*" spans of the same job. Fills the
/// engine.*, stage_fn.*, kernel.* and storage.* layer metrics.
/// `dags` maps a job to the DAG whose stage ids its stage_fn spans use
/// (for stage gaps).
void engine_layers(const std::vector<Span>& spans,
                   const std::map<std::int64_t, const ditto::JobDag*>& dags, Metrics& layers);

/// Mean duration of spans named `name`, in milliseconds (0 if none).
double mean_span_ms(const std::vector<Span>& spans, const char* name);
/// Durations of spans named `name`, in seconds.
std::vector<double> span_seconds(const std::vector<Span>& spans, const char* name);

/// Prints the result line: {"correct","attempted","failed","metrics"}.
void print_result_line(bool correct, std::size_t attempted, std::size_t failed,
                       const Metrics& metrics);

}  // namespace perfbench
