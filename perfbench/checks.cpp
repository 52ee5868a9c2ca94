#include "checks.h"

#include <cmath>
#include <cstdio>

#include "scheduler/placement_check.h"

namespace perfbench {

std::string check_answer_value(std::int64_t rows, double value, std::int64_t ref_rows,
                               double ref_value) {
  const double tol = 1e-6 * std::max(1.0, std::abs(ref_value));
  if (rows == ref_rows && std::abs(value - ref_value) <= tol) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "answer (%lld rows, %.6f) != reference (%lld rows, %.6f)",
                static_cast<long long>(rows), value, static_cast<long long>(ref_rows),
                ref_value);
  return buf;
}

std::string check_answer(const ditto::service::EngineQueryJob& job,
                         const std::map<ditto::StageId, ditto::exec::Table>& sinks) {
  const auto it = sinks.find(job.sink);
  if (it == sinks.end()) return "sink stage output missing";
  auto answer = job.extract(it->second);
  if (!answer.ok()) return "answer unreadable: " + answer.status().to_string();
  return check_answer_value(answer->rows, answer->value, job.ref_rows, job.ref_value);
}

std::string check_plan(const ditto::cluster::PlacementPlan& plan, const ditto::JobDag& dag,
                       const ditto::cluster::Cluster& cluster) {
  const ditto::Status valid = plan.validate(dag, cluster);
  if (!valid.is_ok()) return "plan invalid: " + valid.to_string();
  const ditto::scheduler::PlacementChecker checker(dag);
  if (!checker.can_place(plan.dop, plan.zero_copy_edges, cluster.free_slot_snapshot())) {
    return "plan fails placement_check on the cluster's free slots";
  }
  return "";
}

}  // namespace perfbench
