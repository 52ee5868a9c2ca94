// batch_large: one closed-loop client runs the four TPC-DS miniatures
// round-robin at ~400K fact rows. Each query is planned by the Ditto
// scheduler (timed as part of the query) and run by a MiniEngine with
// default EngineOptions on a fresh in-memory store that models no
// latency. Kernels, stage functions, exchange bytes and storage ops
// dominate here; the scheduler is under 1% of a query.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "checks.h"
#include "exec/engine.h"
#include "report.h"
#include "scheduler/ditto_scheduler.h"
#include "service/engine_jobs.h"
#include "storage/mem_store.h"
#include "storage/sim_store.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ditto;

constexpr std::size_t kFactRows = 400000;
constexpr std::int64_t kOrders = 50000;
/// The run is cut into this many consecutive stretches (~2-3 s, 10+
/// rounds each); every gated number is that of the best stretch
/// (best_window_quantile).
constexpr std::size_t kWindows = 8;

struct QueryRun {
  double seconds = 0.0;
  double slot_seconds = 0.0;  ///< sum over stages of DoP x stage_seconds
  std::string error;          ///< empty = DONE with the right answer
  scheduler::SchedulePlan plan;
  exec::EngineStats stats;
};

class BatchLarge final : public Workload {
 public:
  Status setup(std::uint64_t seed) override {
    workload::EngineQuerySpec spec;
    spec.fact_rows = kFactRows;
    spec.num_orders = kOrders;
    spec.seed = mix_seed(seed, 1) >> 33;
    for (std::string_view q : service::engine_query_names()) {
      DITTO_ASSIGN_OR_RETURN(service::EngineQueryJob job,
                             service::make_engine_query_job(q, spec, external_));
      queries_.push_back({std::string(q), std::move(job)});
    }
    // Warm-up: one untimed run of each query (includes the process's
    // first, cold scheduler call).
    for (const auto& [name, job] : queries_) {
      const QueryRun r = run_query(job, nullptr, -1);
      ++setup_attempted_;
      if (!r.error.empty()) {
        ++setup_failed_;
        std::fprintf(stderr, "warm-up %s: %s\n", name.c_str(), r.error.c_str());
      }
    }
    return Status::ok();
  }

  std::pair<std::size_t, std::size_t> setup_checks() const override {
    return {setup_attempted_, setup_failed_};
  }

  Phase measure(double seconds, SpanRecorder* rec) override {
    Phase out;
    std::vector<double> jct_err, stage_err;
    std::vector<std::vector<double>> per_query_ms(queries_.size());
    std::vector<std::vector<std::vector<double>>> window_ms(
        kWindows, std::vector<std::vector<double>>(queries_.size()));
    auto window_slot_s = window_ms;
    std::size_t done = 0;
    double zero_copy = 0, remote = 0, remote_bytes = 0, chunks = 0;
    std::map<std::int64_t, const JobDag*> dags;
    const double t_start = now_s();
    const double t_end = t_start + seconds;
    std::int64_t job = 0;
    // Whole rounds only, so every query gets the same number of samples.
    while (now_s() < t_end) {
      const auto w = std::min(kWindows - 1, static_cast<std::size_t>(
                                                (now_s() - t_start) / seconds * kWindows));
      for (std::size_t qi = 0; qi < queries_.size(); ++qi, ++job) {
        const service::EngineQueryJob& q = queries_[qi].second;
        const QueryRun r = run_query(q, rec, job);
        dags[job] = &q.submission.dag;
        ++out.attempted;
        if (!r.error.empty()) {
          ++out.failed;
          out.notes.push_back("FAILED " + queries_[qi].first + ": " + r.error);
          continue;
        }
        per_query_ms[qi].push_back(r.seconds * 1e3);
        window_ms[w][qi].push_back(r.seconds * 1e3);
        window_slot_s[w][qi].push_back(r.slot_seconds);
        ++done;
        zero_copy += static_cast<double>(r.stats.exchange.zero_copy_messages);
        remote += static_cast<double>(r.stats.exchange.remote_messages);
        remote_bytes += static_cast<double>(r.stats.exchange.remote_bytes);
        chunks += static_cast<double>(r.stats.exchange.chunks_published);
        const double wall = r.stats.wall_seconds;
        if (wall > 0.0) jct_err.push_back(std::abs(r.plan.predicted.jct - wall) / wall);
        const auto& pe = r.plan.predicted;
        for (std::size_t s = 0; s < r.stats.stage_seconds.size(); ++s) {
          const double observed = r.stats.stage_seconds[s];
          if (observed <= 0.0 || s >= pe.stage_finish.size()) continue;
          const double predicted = pe.stage_finish[s] - pe.stage_start[s];
          stage_err.push_back(std::abs(predicted - observed) / observed);
        }
      }
    }

    // Each query's quantiles, combined by geomean: a quantile pooled over
    // the four queries lands where two of them meet and jumps when their
    // timings trade places.
    const double n = static_cast<double>(done);
    const double query_p50 = best_window_quantile(window_ms, 0.50);
    const double query_p90 = best_window_quantile(window_ms, 0.90);
    const double slot_s = best_window_quantile(window_slot_s, 0.50);
    // One client: one round of the four queries at their medians, in the
    // best stretch.
    double round_ms = 0.0;
    for (const auto& groups : window_ms) {
      double sum = 0.0;
      bool whole = true;
      for (const auto& v : groups) {
        whole = whole && !v.empty();
        sum += quantile(v, 0.50);
      }
      if (whole && (round_ms == 0.0 || sum < round_ms)) round_ms = sum;
    }
    const double per_s =
        round_ms > 0.0 ? static_cast<double>(queries_.size()) * 1e3 / round_ms : 0.0;
    out.e2e.set("lat_p50_ms", query_p50, "ms");
    out.e2e.set("lat_tail_ms", query_p90, "ms");
    out.e2e.set("jobs_per_s", per_s, "1/s");
    out.e2e.set("slot_s_per_job", slot_s, "s");
    out.named.set("query_ms_p50", query_p50, "ms");
    out.named.set("query_ms_p90", query_p90, "ms");
    out.named.set("queries_per_s", per_s, "1/s");
    out.named.set("slot_s_per_query", slot_s, "s");
    std::string line = "queries: " + std::to_string(done) + " (closed loop, 1 client, " +
                       std::to_string(kFactRows) + " rows); p50 / p90 ms:";
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      char one[64];
      std::snprintf(one, sizeof(one), " %s %.1f / %.1f", queries_[qi].first.c_str(),
                    quantile(per_query_ms[qi], 0.5), quantile(per_query_ms[qi], 0.9));
      line += one;
    }
    out.notes.push_back(line);
    out.notes.push_back(stretch_note(window_ms, "ms"));

    if (rec != nullptr && n > 0) {
      out.spans = rec->snapshot();
      out.layers = layer_catalog();
      engine_layers(out.spans, dags, out.layers);
      out.layers.set("scheduler.plan_ms", mean_span_ms(out.spans, "scheduler.schedule"), "ms");
      out.layers.set("model.jct_rel_err", mean(jct_err), "ratio");
      out.layers.set("model.stage_rel_err", mean(stage_err), "ratio");
      out.layers.set("exchange.zero_copy_msgs", zero_copy / n, "count");
      out.layers.set("exchange.remote_msgs", remote / n, "count");
      out.layers.set("exchange.remote_bytes", remote_bytes / n, "bytes");
      out.layers.set("exchange.chunks_published", chunks / n, "count");
    }
    return out;
  }

 private:
  QueryRun run_query(const service::EngineQueryJob& job, SpanRecorder* rec, std::int64_t id) {
    QueryRun r;
    const std::uint64_t query_span = rec != nullptr ? rec->next_id() : 0;
    const std::uint64_t run_span = rec != nullptr ? rec->next_id() : 0;
    storage::MemStore mem;
    std::optional<TimedStore> timed_store;
    std::map<StageId, exec::StageBinding> wrapped;
    if (rec != nullptr) {
      timed_store.emplace(mem, *rec, id, run_span);
      wrapped = wrap_bindings(job.submission.bindings, *rec, id, run_span);
    }
    storage::ObjectStore& store =
        timed_store ? static_cast<storage::ObjectStore&>(*timed_store) : mem;
    const auto& bindings = rec != nullptr ? wrapped : job.submission.bindings;

    const double t0 = now_s();
    scheduler::DittoScheduler ditto;
    TimedScheduler sched(ditto, rec, id, query_span);
    auto plan = sched.schedule(job.submission.model_dag, cluster_, Objective::kJct, external_);
    if (!plan.ok()) {
      r.error = "schedule: " + plan.status().to_string();
      return r;
    }
    exec::MiniEngine engine(job.submission.dag, plan->placement, store);
    const double e0 = now_s();
    auto result = engine.run(bindings);
    const double t1 = now_s();
    r.seconds = t1 - t0;
    if (rec != nullptr) {
      Span run;
      run.name = "engine.run";
      run.id = run_span;
      run.parent = query_span;
      run.job = id;
      run.start = e0;
      run.end = t1;
      rec->add(run);
      Span query;
      query.name = "query";
      query.id = query_span;
      query.job = id;
      query.start = t0;
      query.end = t1;
      rec->add(query);
    }
    if (!result.ok()) {
      r.error = "engine: " + result.status().to_string();
      return r;
    }
    r.error = check_answer(job, result->sink_outputs);
    r.stats = result->stats;
    for (std::size_t s = 0; s < r.stats.stage_seconds.size(); ++s) {
      r.slot_seconds += plan->placement.dop_of(static_cast<StageId>(s)) * r.stats.stage_seconds[s];
    }
    r.plan = std::move(*plan);
    return r;
  }

  const cluster::Cluster cluster_ = cluster::Cluster::uniform(4, 8);
  const storage::StorageModel external_ = storage::redis_model();
  std::vector<std::pair<std::string, service::EngineQueryJob>> queries_;
  std::size_t setup_attempted_ = 0;
  std::size_t setup_failed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_batch_large() { return std::make_unique<BatchLarge>(); }

}  // namespace perfbench
