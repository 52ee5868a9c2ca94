// Answer and plan checks. Every job the benchmark runs is checked
// against its single-node reference, and every planned placement
// against the cluster it was planned for; each failure counts in
// `failed` and makes the run exit non-zero. An empty string means the
// check passed; otherwise it says what was wrong.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "dag/job_dag.h"
#include "exec/table.h"
#include "service/engine_jobs.h"

namespace perfbench {

/// Rows must match exactly; value within 1e-6 relative.
std::string check_answer_value(std::int64_t rows, double value, std::int64_t ref_rows,
                               double ref_value);

/// Reads the answer from `sinks` with the job's extractor and compares
/// it with the job's reference.
std::string check_answer(const ditto::service::EngineQueryJob& job,
                         const std::map<ditto::StageId, ditto::exec::Table>& sinks);

/// PlacementPlan::validate plus a fresh placement_check
/// (PlacementChecker) of the plan's DoPs and zero-copy grouping against
/// the cluster's free slots.
std::string check_plan(const ditto::cluster::PlacementPlan& plan, const ditto::JobDag& dag,
                       const ditto::cluster::Cluster& cluster);

}  // namespace perfbench
