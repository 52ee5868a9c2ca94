// The benchmark's own test: its checks must be able to fail. Feeds the
// answer check a corrupted answer and the plan check a corrupted plan
// and requires both to be reported; also pins the span arithmetic the
// per-layer numbers rest on. Prints one line per case; exit 0 = pass.
#include <cmath>
#include <cstdio>
#include <string>

#include "checks.h"
#include "exec/engine.h"
#include "report.h"
#include "scheduler/ditto_scheduler.h"
#include "service/engine_jobs.h"
#include "storage/mem_store.h"
#include "storage/sim_store.h"

using namespace ditto;
using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

Result<std::map<StageId, exec::Table>> run_job(const service::EngineQueryJob& job,
                                               const cluster::Cluster& cl,
                                               cluster::PlacementPlan* plan_out) {
  scheduler::DittoScheduler sched;
  DITTO_ASSIGN_OR_RETURN(scheduler::SchedulePlan plan,
                         sched.schedule(job.submission.model_dag, cl, Objective::kJct,
                                        storage::redis_model()));
  storage::MemStore store;
  exec::MiniEngine engine(job.submission.dag, plan.placement, store);
  DITTO_ASSIGN_OR_RETURN(exec::EngineResult result, engine.run(job.submission.bindings));
  *plan_out = plan.placement;
  return result.sink_outputs;
}

}  // namespace

int main() {
  expect(check_answer_value(10, 5.0, 10, 5.0).empty(), "exact answer passes");
  expect(check_answer_value(10, 5.0 + 1e-9, 10, 5.0).empty(), "value within 1e-6 passes");
  expect(!check_answer_value(11, 5.0, 10, 5.0).empty(), "one extra row fails");
  expect(!check_answer_value(10, 5.001, 10, 5.0).empty(), "value off by 2e-4 relative fails");

  const cluster::Cluster cl = cluster::Cluster::uniform(4, 8);
  workload::EngineQuerySpec spec;
  spec.fact_rows = 6000;
  spec.num_orders = 1500;
  for (const char* q : {"q1", "q95"}) {
    auto job = service::make_engine_query_job(q, spec, storage::redis_model());
    workload::EngineQuerySpec other_spec = spec;
    other_spec.seed += 1;
    auto other = service::make_engine_query_job(q, other_spec, storage::redis_model());
    if (!job.ok() || !other.ok()) {
      expect(false, std::string(q) + ": job build");
      continue;
    }
    cluster::PlacementPlan plan, other_plan;
    auto sinks = run_job(*job, cl, &plan);
    auto other_sinks = run_job(*other, cl, &other_plan);
    if (!sinks.ok() || !other_sinks.ok()) {
      expect(false, std::string(q) + ": engine run");
      continue;
    }
    expect(check_answer(*job, *sinks).empty(), std::string(q) + ": engine answer passes");
    // Corrupted answers: another input's result, a truncated sink, an
    // empty sink and a missing sink.
    expect(!check_answer(*job, *other_sinks).empty(),
           std::string(q) + ": answer computed from other data fails");
    std::map<StageId, exec::Table> cut = *sinks;
    exec::Table& t = cut.at(job->sink);
    if (t.num_rows() > 0) t = t.slice(0, t.num_rows() - 1);
    expect(!check_answer(*job, cut).empty(), std::string(q) + ": sink missing a row fails");
    std::map<StageId, exec::Table> empty = *sinks;
    empty.at(job->sink) = exec::Table();
    expect(!check_answer(*job, empty).empty(), std::string(q) + ": empty sink fails");
    expect(!check_answer(*job, {}).empty(), std::string(q) + ": missing sink fails");

    // Plans: the scheduler's own passes; corrupted ones fail.
    const JobDag& dag = job->submission.dag;
    expect(check_plan(plan, dag, cl).empty(), std::string(q) + ": Ditto plan passes");
    cluster::PlacementPlan crowded = plan;
    for (auto& tasks : crowded.task_server) {
      for (auto& server : tasks) server = 0;
    }
    expect(!check_plan(crowded, dag, cl).empty(),
           std::string(q) + ": every task on server 0 (" +
               std::to_string(plan.total_slots_used()) + " tasks, 8 slots) fails");
    cluster::PlacementPlan short_plan = plan;
    short_plan.task_server[0].pop_back();
    expect(!check_plan(short_plan, dag, cl).empty(),
           std::string(q) + ": stage with fewer tasks than its DoP fails");
    cluster::PlacementPlan huge = plan;
    huge.dop[0] = 1000;
    huge.task_server[0].assign(1000, 0);
    expect(!check_plan(huge, dag, cl).empty(), std::string(q) + ": DoP beyond cluster fails");
  }

  // Span arithmetic.
  expect(std::abs(covered_seconds({{0, 2}, {1, 3}, {5, 6}}, 0, 10) - 4.0) < 1e-12,
         "union of overlapping intervals");
  expect(std::abs(covered_seconds({{-1, 2}, {9, 12}}, 0, 10) - 3.0) < 1e-12,
         "intervals clipped to the parent");
  std::vector<Span> spans(4);
  spans[0].name = "engine.run";
  spans[0].job = 7;
  spans[0].start = 0.0;
  spans[0].end = 10.0;
  spans[1].name = "stage_fn";
  spans[1].job = 7;
  spans[1].stage = 0;
  spans[1].start = 1.0;
  spans[1].end = 4.0;
  spans[1].kernel[1] = 2.0;
  spans[2].name = "stage_fn";
  spans[2].job = 7;
  spans[2].stage = 1;
  spans[2].start = 6.0;
  spans[2].end = 8.0;
  spans[3].name = "store.put";
  spans[3].job = 7;
  spans[3].start = 3.0;
  spans[3].end = 5.0;
  spans[3].bytes = 100;
  JobDag two("two");
  const StageId a = two.add_stage("a");
  const StageId b = two.add_stage("b");
  (void)two.add_edge(a, b, ExchangeKind::kShuffle);
  Metrics layers = layer_catalog();
  engine_layers(spans, {{7, &two}}, layers);
  expect(std::abs(layers.get("engine.self_ms") - 4000.0) < 1e-6,
         "self time = run minus the union of stage-fn and store spans");
  expect(std::abs(layers.get("stage_fn.covered_ms") - 5000.0) < 1e-6, "stage-fn coverage");
  expect(std::abs(layers.get("stage_fn.nonkernel_s") - 3.0) < 1e-9, "busy minus kernel time");
  expect(std::abs(layers.get("engine.stage_gap_ms") - 2000.0) < 1e-6,
         "stage gap from last parent end to first task start");
  expect(layers.get("storage.bytes_written") == 100.0, "store bytes");

  std::printf("%s\n", failures == 0 ? "selftest PASSED" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
