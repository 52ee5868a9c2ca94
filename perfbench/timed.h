// Wrappers the benchmark puts around the program's public layer entry
// points. Each records one span per call into a SpanRecorder; none
// changes what the wrapped call does.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "exec/engine.h"
#include "scheduler/scheduler.h"
#include "spans.h"
#include "storage/object_store.h"

namespace perfbench {

/// ObjectStore decorator timing put/get. The job of an op is `job`
/// when >= 0, else the service job id parsed from the exchange key's
/// "job-<id>" prefix (-1 when the key has none).
class TimedStore final : public ditto::storage::ObjectStore {
 public:
  TimedStore(ditto::storage::ObjectStore& inner, SpanRecorder& rec, std::int64_t job = -1,
             std::uint64_t parent = 0)
      : inner_(&inner), rec_(&rec), job_(job), parent_(parent) {}

  const char* kind() const override { return inner_->kind(); }
  const ditto::storage::StorageModel& model() const override { return inner_->model(); }
  ditto::Status put(const std::string& key, std::string_view value) override;
  ditto::Result<std::string> get(const std::string& key) const override;
  bool contains(const std::string& key) const override { return inner_->contains(key); }
  ditto::Status remove(const std::string& key) override { return inner_->remove(key); }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  ditto::Bytes used_bytes() const override { return inner_->used_bytes(); }
  ditto::storage::StoreStats stats() const override { return inner_->stats(); }

 private:
  std::int64_t job_of(const std::string& key) const;

  ditto::storage::ObjectStore* inner_;
  SpanRecorder* rec_;
  std::int64_t job_;
  std::uint64_t parent_;
};

/// Copies `bindings` with every StageFn (and StreamFn) wrapped: each
/// call records a "stage_fn" span for (job, stage, task) under
/// `parent`, with the kernel seconds exec::current_kernel_seconds()
/// accrued across the inner call.
std::map<ditto::StageId, ditto::exec::StageBinding> wrap_bindings(
    const std::map<ditto::StageId, ditto::exec::StageBinding>& bindings, SpanRecorder& rec,
    std::int64_t job, std::uint64_t parent);

/// Scheduler decorator: times every schedule() call of `inner` and,
/// with a recorder, records a "scheduler.schedule" span.
class TimedScheduler final : public ditto::scheduler::Scheduler {
 public:
  explicit TimedScheduler(ditto::scheduler::Scheduler& inner, SpanRecorder* rec = nullptr,
                          std::int64_t job = -1, std::uint64_t parent = 0)
      : inner_(&inner), rec_(rec), job_(job), parent_(parent) {}

  const char* name() const override { return inner_->name(); }
  ditto::Result<ditto::scheduler::SchedulePlan> schedule(
      const ditto::JobDag& dag, const ditto::cluster::Cluster& cluster,
      ditto::Objective objective, const ditto::storage::StorageModel& external) override;

  double last_seconds() const { return last_seconds_; }
  /// The DAG the last call planned on (run_experiment plans on a
  /// fitted copy it does not return).
  const ditto::JobDag& last_dag() const { return last_dag_; }
  void keep_dag(bool keep) { keep_dag_ = keep; }

 private:
  ditto::scheduler::Scheduler* inner_;
  SpanRecorder* rec_;
  std::int64_t job_;
  std::uint64_t parent_;
  double last_seconds_ = 0.0;
  bool keep_dag_ = false;
  ditto::JobDag last_dag_;
};

/// Microseconds the first TimedScheduler call in this process took
/// (-1 before any call): the cold scheduler cost, apart from warm ones.
double first_schedule_us();

}  // namespace perfbench
