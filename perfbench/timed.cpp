#include "timed.h"

#include <atomic>
#include <cstdlib>

#include "common.h"
#include "exec/kernels.h"

namespace perfbench {
namespace {

std::atomic<double> g_first_schedule_us{-1.0};

void record_store_op(SpanRecorder& rec, const char* name, double t0, double t1,
                     std::int64_t job, std::uint64_t parent, std::size_t bytes) {
  Span s;
  s.name = name;
  s.start = t0;
  s.end = t1;
  s.parent = parent;
  s.job = job;
  s.bytes = static_cast<double>(bytes);
  rec.add(s);
}

template <typename Fn>
Fn wrap_stage_call(Fn inner, SpanRecorder& rec, std::int64_t job, std::uint64_t parent,
                   ditto::StageId stage) {
  return [inner = std::move(inner), rec = &rec, job, parent, stage](int task, int dop,
                                                                    auto& inputs) {
    const ditto::exec::KernelSeconds k0 = ditto::exec::current_kernel_seconds();
    Span s;
    s.name = "stage_fn";
    s.start = now_s();
    auto result = inner(task, dop, inputs);
    s.end = now_s();
    const ditto::exec::KernelSeconds k1 = ditto::exec::current_kernel_seconds();
    s.parent = parent;
    s.job = job;
    s.stage = static_cast<int>(stage);
    s.task = task;
    s.kernel[0] = k1.group_by - k0.group_by;
    s.kernel[1] = k1.join - k0.join;
    s.kernel[2] = k1.filter - k0.filter;
    s.kernel[3] = k1.top_k - k0.top_k;
    rec->add(s);
    return result;
  };
}

}  // namespace

std::int64_t TimedStore::job_of(const std::string& key) const {
  if (job_ >= 0) return job_;
  if (key.rfind("job-", 0) != 0) return -1;
  char* end = nullptr;
  const unsigned long long id = std::strtoull(key.c_str() + 4, &end, 10);
  return end == key.c_str() + 4 ? -1 : static_cast<std::int64_t>(id);
}

ditto::Status TimedStore::put(const std::string& key, std::string_view value) {
  const double t0 = now_s();
  ditto::Status st = inner_->put(key, value);
  record_store_op(*rec_, "store.put", t0, now_s(), job_of(key), parent_, value.size());
  return st;
}

ditto::Result<std::string> TimedStore::get(const std::string& key) const {
  const double t0 = now_s();
  auto r = inner_->get(key);
  record_store_op(*rec_, "store.get", t0, now_s(), job_of(key), parent_,
                  r.ok() ? r->size() : 0);
  return r;
}

std::map<ditto::StageId, ditto::exec::StageBinding> wrap_bindings(
    const std::map<ditto::StageId, ditto::exec::StageBinding>& bindings, SpanRecorder& rec,
    std::int64_t job, std::uint64_t parent) {
  std::map<ditto::StageId, ditto::exec::StageBinding> out;
  for (const auto& [stage, b] : bindings) {
    ditto::exec::StageBinding w = b;
    if (b.fn) w.fn = wrap_stage_call(b.fn, rec, job, parent, stage);
    if (b.stream_fn) w.stream_fn = wrap_stage_call(b.stream_fn, rec, job, parent, stage);
    out.emplace(stage, std::move(w));
  }
  return out;
}

ditto::Result<ditto::scheduler::SchedulePlan> TimedScheduler::schedule(
    const ditto::JobDag& dag, const ditto::cluster::Cluster& cluster, ditto::Objective objective,
    const ditto::storage::StorageModel& external) {
  Span s;
  s.name = "scheduler.schedule";
  s.start = now_s();
  auto plan = inner_->schedule(dag, cluster, objective, external);
  s.end = now_s();
  last_seconds_ = s.dur();
  double unset = -1.0;
  g_first_schedule_us.compare_exchange_strong(unset, last_seconds_ * 1e6);
  if (keep_dag_) last_dag_ = dag;
  if (rec_ != nullptr) {
    s.parent = parent_;
    s.job = job_;
    rec_->add(s);
  }
  return plan;
}

double first_schedule_us() { return g_first_schedule_us.load(); }

}  // namespace perfbench
