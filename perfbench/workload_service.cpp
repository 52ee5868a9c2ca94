// service_cold and service_recurring: one submitting thread drives a
// live JobService open loop, at a fixed mean rate set here in Hz (never
// derived from a timing of the machine), then submits a fixed backlog
// in five bursts and times how fast each drains.
//
//   service_cold       Poisson arrivals; small miniatures (~12K rows)
//                      drawn from a pool of 32 distinct inputs; default
//                      ServiceOptions (elastic admission, cache off), so
//                      every job runs cold. Per-job fixed costs dominate.
//   service_recurring  the same service and mean rate with the result
//                      cache on, and the recurring mix the repository
//                      defines in service/arrival_trace.h (bursty shape,
//                      repeat ratio 0.8 over a 4-template pool): 80%
//                      repeat a template, the rest carry a fresh input
//                      version, so they miss and write the cache.
//
// Every job is timed on one clock from its scheduled arrival to
// `finished`, so a stalled generator and the submit call itself show as
// latency; how late the generator ran is reported, and a run whose
// generator fell too far behind is invalid.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <optional>
#include <random>
#include <thread>

#include "checks.h"
#include "report.h"
#include "scheduler/ditto_scheduler.h"
#include "service/engine_jobs.h"
#include "service/job_service.h"
#include "storage/sim_store.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ditto;

constexpr std::size_t kFactRows = 12000;
constexpr std::int64_t kOrders = 3000;
constexpr double kRateHz = 75.0;  ///< mean offered rate, both workloads
constexpr double kOpenShare = 0.75;         ///< share of --seconds spent open loop
constexpr std::size_t kColdPool = 32;       ///< distinct inputs (service_cold)
// The recurring mix copies the parameters of service/arrival_trace.h
// (TraceOptions defaults for kBursty, and the 80% repeat mix its
// throughput bench reports), not the generator itself:
/// Template pool: one per query (q1, q16, q94, q95), as distinct_jobs = 4.
constexpr std::size_t kTemplates = 4;
/// A fresh arrival there draws its query uniformly and gets new data;
/// here it keeps one data base per query and a new input_version, which
/// the cache keys on, so no data is generated inside the timed loop.
constexpr std::size_t kUniqueBases = 4;
/// 80% of recurring traffic repeats a template: 8 of every 10 draws.
constexpr std::size_t kRepeatDeck = 10;
constexpr std::size_t kRepeatsPerDeck = 8;
/// Bursty shape: burst_factor x the mean rate for burst_duty of every
/// 1-second period. factor x duty = 1, so the rest of the period is
/// silent, as in arrival_trace.cpp (idle rate (1 - 4 x 0.25) / 0.75 = 0).
constexpr double kBurstPeriod = 1.0;
constexpr double kBurstDuty = 0.25;
constexpr double kBurstFactor = 4.0;
static_assert(kBurstFactor * kBurstDuty == 1.0, "arrivals outside bursts are not modeled");
/// Backlog jobs per burst; the drain rate is the best of kBursts.
constexpr std::size_t kColdBacklog = 300;
constexpr std::size_t kRecurringBacklog = 1000;
constexpr std::size_t kBursts = 5;
/// The open loop's arrivals are cut into this many consecutive windows
/// (2.3 s at --seconds 25: ~175 engine runs on service_cold, ~35 on
/// service_recurring); the gated latencies are those of the best window
/// (best_window_quantile). The whole-run p99 is printed beside them.
constexpr std::size_t kWindows = 8;
constexpr Bytes kCacheBytes = 64ULL << 20;
/// The generator's own lateness (past the due time and past the end of
/// the previous submit call) may reach this at p99 before the run stops
/// being an open loop at the stated rate. Time blocked inside submit()
/// is the service's, and counts as latency instead.
constexpr double kMaxLateP99Ms = 20.0;
constexpr double kSpinS = 300e-6;

struct Arrival {
  double at = 0.0;            ///< scheduled offset from phase start (s)
  std::size_t pool = 0;       ///< index into pool_
  std::uint64_t version = 0;  ///< input version (recurring fresh inputs)
};

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(bool recurring) : recurring_(recurring) {}

  Status setup(std::uint64_t seed) override {
    seed_ = seed;
    const std::size_t n = recurring_ ? kTemplates + kUniqueBases : kColdPool;
    const auto& names = service::engine_query_names();
    for (std::size_t i = 0; i < n; ++i) {
      workload::EngineQuerySpec spec;
      spec.fact_rows = kFactRows;
      spec.num_orders = kOrders;
      spec.seed = mix_seed(seed, 100 + i) >> 33;
      DITTO_ASSIGN_OR_RETURN(service::EngineQueryJob job,
                             service::make_engine_query_job(names[i % names.size()], spec,
                                                            external_));
      pool_.push_back(std::move(job));
    }
    // Planning replica: the service plans each job inside admission,
    // out of reach of a wrapper, so the per-job scheduler cost is taken
    // by planning every pool job the same way on the full 4x8 cluster.
    const cluster::Cluster cl = cluster::Cluster::uniform(4, 8);
    std::vector<double> plan_s;
    for (int round = 0; round < 3; ++round) {
      for (const auto& job : pool_) {
        scheduler::DittoScheduler ditto;
        TimedScheduler sched(ditto);
        auto plan = sched.schedule(job.submission.model_dag, cl, Objective::kJct, external_);
        if (!plan.ok()) return plan.status();
        if (round > 0) plan_s.push_back(sched.last_seconds());
      }
    }
    plan_ms_ = mean(plan_s) * 1e3;
    // Warm-up: every pool job once through a fresh service.
    std::vector<Arrival> warm;
    for (std::size_t i = 0; i < pool_.size(); ++i) warm.push_back({0.0, i, 0});
    Phase w = run_phase(warm, {}, nullptr, 0.0);
    setup_attempted_ = w.attempted;
    setup_failed_ = w.failed;
    for (const auto& note : w.notes) {
      if (note.rfind("FAILED", 0) == 0) std::fprintf(stderr, "warm-up %s\n", note.c_str());
    }
    return Status::ok();
  }

  std::pair<std::size_t, std::size_t> setup_checks() const override {
    return {setup_attempted_, setup_failed_};
  }

  Phase measure(double seconds, SpanRecorder* rec) override {
    std::mt19937_64 rng(mix_seed(seed_, recurring_ ? 2 : 1));
    pool_deck_.clear();
    repeat_deck_.clear();
    template_deck_.clear();
    unique_deck_.clear();
    std::vector<Arrival> open = arrivals(rng, seconds * kOpenShare);
    std::vector<Arrival> backlog =
        draws(rng, kBursts * (recurring_ ? kRecurringBacklog : kColdBacklog));
    return run_phase(open, backlog, rec, seconds * kOpenShare);
  }

 private:
  /// One pool draw: a template repeat, a fresh-version input, or (cold)
  /// a pick from the distinct pool. Draws come from shuffled decks, so
  /// every stretch of traffic holds the stated mix exactly and the
  /// seed only changes the order.
  Arrival draw(std::mt19937_64& rng) {
    Arrival a;
    if (!recurring_) {
      a.pool = deal(rng, pool_deck_, pool_.size());
      return a;
    }
    if (deal(rng, repeat_deck_, kRepeatDeck) < kRepeatsPerDeck) {
      a.pool = deal(rng, template_deck_, kTemplates);
    } else {
      a.pool = kTemplates + deal(rng, unique_deck_, kUniqueBases);
      a.version = ++next_version_;
    }
    return a;
  }

  /// Next card of a deck holding 0..n-1 once each, reshuffled when empty.
  static std::size_t deal(std::mt19937_64& rng, std::vector<std::size_t>& deck, std::size_t n) {
    if (deck.empty()) {
      for (std::size_t i = 0; i < n; ++i) deck.push_back(i);
      std::shuffle(deck.begin(), deck.end(), rng);
    }
    const std::size_t card = deck.back();
    deck.pop_back();
    return card;
  }

  std::vector<Arrival> draws(std::mt19937_64& rng, std::size_t n) {
    std::vector<Arrival> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(draw(rng));
    return out;
  }

  /// Poisson arrivals at kRateHz mean. Recurring traffic is duty-cycled:
  /// the process runs at kBurstFactor x the rate during the first
  /// kBurstDuty of every kBurstPeriod and is silent for the rest.
  std::vector<Arrival> arrivals(std::mt19937_64& rng, double window) {
    const double on = recurring_ ? kBurstDuty * kBurstPeriod : kBurstPeriod;
    std::exponential_distribution<double> gap(recurring_ ? kBurstFactor * kRateHz : kRateHz);
    std::vector<Arrival> out;
    double busy_t = 0.0;
    for (;;) {
      busy_t += gap(rng);
      const double at = std::floor(busy_t / on) * kBurstPeriod + std::fmod(busy_t, on);
      if (at >= window) break;
      Arrival a = draw(rng);
      a.at = at;
      out.push_back(a);
    }
    return out;
  }

  service::JobSubmission submission(const Arrival& a, SpanRecorder* rec, std::int64_t job) const {
    service::JobSubmission sub = pool_[a.pool].submission;
    sub.label = "a" + std::to_string(job);
    sub.cache_id.input_version = a.version;
    if (rec != nullptr) sub.bindings = wrap_bindings(sub.bindings, *rec, job, 0);
    return sub;
  }

  /// Runs `open` on its schedule over `window` seconds, then `backlog`
  /// in kBursts equal bursts, each drained before the next.
  Phase run_phase(const std::vector<Arrival>& open, const std::vector<Arrival>& backlog,
                  SpanRecorder* rec, double window) {
    Phase out;
    const std::size_t total = open.size() + backlog.size();
    // Built before the clock starts: the generator only sleeps and submits.
    std::vector<service::JobSubmission> subs;
    subs.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      const Arrival& a = i < open.size() ? open[i] : backlog[i - open.size()];
      subs.push_back(submission(a, rec, static_cast<std::int64_t>(i)));
    }

    cluster::Cluster cl = cluster::Cluster::uniform(4, 8);
    auto mem = storage::make_instant_store();
    std::optional<TimedStore> timed_store;
    if (rec != nullptr) timed_store.emplace(*mem, *rec);
    storage::ObjectStore& store =
        timed_store ? static_cast<storage::ObjectStore&>(*timed_store) : *mem;
    service::ServiceOptions options;
    options.external = external_;
    if (recurring_) options.cache_bytes = kCacheBytes;
    service::JobService svc(cl, store, options);

    std::vector<service::JobId> ids(total, 0);
    std::vector<double> call_start(total, 0.0), call_end(total, 0.0);
    std::vector<double> gen_late(open.size(), 0.0);
    auto submit = [&](std::size_t i) {
      call_start[i] = now_s();
      auto id = svc.submit(std::move(subs[i]));
      call_end[i] = now_s();
      if (id.ok()) ids[i] = *id;
      if (rec != nullptr) {
        Span s;
        s.name = "service.submit";
        s.start = call_start[i];
        s.end = call_end[i];
        s.job = static_cast<std::int64_t>(i);
        rec->add(s);
      }
    };

    const double t0 = now_s() + 0.005;
    for (std::size_t i = 0; i < open.size(); ++i) {
      const double due = t0 + open[i].at;
      // Sleep to just short of the due time, then spin: a plain sleep
      // wakes ~0.1 ms late, which would swamp a ~5 µs cache hit.
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now_s() - kSpinS));
      while (now_s() < due) {
      }
      submit(i);
      gen_late[i] = call_start[i] - std::max(due, i > 0 ? call_end[i - 1] : due);
    }
    for (std::size_t i = 0; i < open.size(); ++i) {
      if (ids[i] != 0) (void)svc.wait(ids[i]);
    }
    const std::size_t burst = backlog.size() / kBursts;
    for (std::size_t i = open.size(); i < total; i += burst) {
      const std::size_t end = std::min(total, i + burst);
      for (std::size_t j = i; j < end; ++j) submit(j);
      for (std::size_t j = i; j < end; ++j) {
        if (ids[j] != 0) (void)svc.wait(ids[j]);
      }
    }
    const std::vector<service::JobOutcome> outcomes = svc.drain();
    const service::ServiceSummary summary = svc.summary();

    std::map<service::JobId, std::size_t> index_of;
    for (std::size_t i = 0; i < total; ++i) {
      if (ids[i] != 0) index_of[ids[i]] = i;
    }
    std::vector<const service::JobOutcome*> by_index(total, nullptr);
    for (const auto& o : outcomes) {
      const auto it = index_of.find(o.id);
      if (it != index_of.end()) by_index[it->second] = &o;
    }
    // Service clock -> steady clock: `submitted` was stamped inside the
    // submit call, so call_start - submitted bounds the offset below;
    // the bound is tight to the fastest submit's time before its stamp.
    double offset = -1e300;
    for (std::size_t i = 0; i < total; ++i) {
      if (by_index[i] != nullptr) offset = std::max(offset, call_start[i] - by_index[i]->submitted);
    }

    std::vector<double> lat_ms, queue_ms, admit_ms, run_ms, hit_us, slots, slot_s;
    std::vector<double> open_hit_ms;  ///< latency of the open loop's whole hits
    std::size_t open_followers = 0;
    // [window][one group]: latencies of every open-loop job, and of those
    // that ran the engine (neither a whole cache hit nor a dedupe follower).
    std::vector<std::vector<std::vector<double>>> window_lat_ms(
        kWindows, std::vector<std::vector<double>>(1));
    auto window_run_lat_ms = window_lat_ms;
    std::vector<double> drain_first(kBursts, 1e300), drain_last(kBursts, -1e300);
    double zero_copy = 0, remote = 0, remote_bytes = 0, chunks = 0, engine_runs = 0;
    std::size_t followers = 0;
    std::map<std::int64_t, const JobDag*> dags;
    for (std::size_t i = 0; i < total; ++i) {
      ++out.attempted;
      const service::JobOutcome* o = by_index[i];
      std::string error;
      if (o == nullptr) {
        error = "submit rejected";
      } else if (o->state != service::JobState::kDone) {
        error = std::string("job ") + service::job_state_name(o->state) + ": " +
                o->error.to_string();
      } else {
        const Arrival& a = i < open.size() ? open[i] : backlog[i - open.size()];
        error = check_answer(pool_[a.pool], o->sink_outputs);
      }
      if (!error.empty()) {
        ++out.failed;
        out.notes.push_back("FAILED job " + std::to_string(i) + ": " + error);
        continue;
      }
      if (i < open.size()) {
        lat_ms.push_back((o->finished + offset - (t0 + open[i].at)) * 1e3);
        const double share = window > 0.0 ? open[i].at / window : 0.0;
        const std::size_t w = std::min(kWindows - 1, static_cast<std::size_t>(share * kWindows));
        window_lat_ms[w][0].push_back(lat_ms.back());
        if (!o->from_cache && o->dedup_leader == 0) {
          window_run_lat_ms[w][0].push_back(lat_ms.back());
        }
      } else {
        const std::size_t b = std::min(kBursts - 1, (i - open.size()) / burst);
        drain_first[b] = std::min(drain_first[b], call_start[i]);
        drain_last[b] = std::max(drain_last[b], o->finished + offset);
      }
      if (o->dedup_leader != 0) {
        ++followers;
        if (i < open.size()) ++open_followers;
      }
      if (o->from_cache) {
        if (o->dedup_leader == 0) {
          hit_us.push_back((o->finished + offset - call_start[i]) * 1e6);
          if (i < open.size()) open_hit_ms.push_back(lat_ms.back());
        }
        continue;
      }
      if (i < open.size()) {  // the backlog's queueing is the drain test's, not a layer's
        queue_ms.push_back(o->queueing() * 1e3);
        admit_ms.push_back((o->admitted - o->submitted) * 1e3);
        run_ms.push_back((o->finished - o->started) * 1e3);
      }
      slots.push_back(o->slots_granted);
      double ss = 0.0;
      for (std::size_t s = 0; s < o->stats.stage_seconds.size(); ++s) {
        ss += o->plan.dop_of(static_cast<StageId>(s)) * o->stats.stage_seconds[s];
      }
      slot_s.push_back(ss);
      engine_runs += 1;
      zero_copy += static_cast<double>(o->stats.exchange.zero_copy_messages);
      remote += static_cast<double>(o->stats.exchange.remote_messages);
      remote_bytes += static_cast<double>(o->stats.exchange.remote_bytes);
      chunks += static_cast<double>(o->stats.exchange.chunks_published);
      if (rec != nullptr) {
        // MiniEngine::run happens inside the service; its span is rebuilt
        // from the job's run start and the engine's own wall time.
        Span run;
        run.name = "engine.run";
        run.job = static_cast<std::int64_t>(i);
        run.start = o->started + offset;
        run.end = run.start + o->stats.wall_seconds;
        run.synthetic = true;
        rec->add(run);
        const Arrival& a = i < open.size() ? open[i] : backlog[i - open.size()];
        if (o->reused_stages == 0) dags[run.job] = &pool_[a.pool].submission.dag;
      }
    }

    std::vector<double> drain_rates;
    for (std::size_t b = 0; b < kBursts && burst > 0; ++b) {
      const double span = drain_last[b] - drain_first[b];
      if (span > 0.0) drain_rates.push_back(static_cast<double>(burst) / span);
    }
    const double drain_rate = quantile(drain_rates, 1.0);
    // The gated median is that of the jobs that run the engine. On
    // service_cold that is every job. On service_recurring the overall
    // median is a whole cache hit of 15-200 us that tracks the host's
    // load more than the program (its latency is printed in the notes).
    // The gated tail is p90 of every job (on service_recurring it falls
    // among the misses): p99 over ~1000 jobs moves with every stall of a
    // shared host (29-118 ms across ten runs); the whole-run p99 is printed.
    const double p50_ms = best_window_quantile(window_run_lat_ms, 0.50);
    const double tail_ms = best_window_quantile(window_lat_ms, 0.90);
    // Per engine-run slot-seconds, spread over every job served: cache
    // hits and dedupe followers cost no engine time.
    double slot_total = 0.0;
    for (double x : slot_s) slot_total += x;
    const std::size_t served = total - out.failed;
    out.e2e.set("lat_p50_ms", p50_ms, "ms");
    out.e2e.set("lat_tail_ms", tail_ms, "ms");
    out.e2e.set("jobs_per_s", drain_rate, "1/s");
    out.e2e.set("slot_s_per_job", served > 0 ? slot_total / static_cast<double>(served) : 0.0,
                "s");
    out.named.set(recurring_ ? "miss_lat_p50_ms" : "lat_p50_ms", p50_ms, "ms");
    out.named.set("lat_p90_ms", tail_ms, "ms");
    out.named.set("lat_p99_ms", quantile(lat_ms, 0.99), "ms");
    out.named.set("drain_jobs_per_s", drain_rate, "1/s");

    const double late_p99 = quantile(gen_late, 0.99) * 1e3;
    const double late_max =
        open.empty() ? 0.0 : *std::max_element(gen_late.begin(), gen_late.end()) * 1e3;
    char line[240];
    std::snprintf(line, sizeof(line),
                  "open loop: %zu arrivals at %.0f Hz mean (%s), %zu timed; generator late "
                  "p99 %.3f ms, max %.3f ms",
                  open.size(), kRateHz, recurring_ ? "duty-cycled bursts" : "Poisson",
                  lat_ms.size(), late_p99, late_max);
    out.notes.push_back(line);
    std::string rates;
    for (double r : drain_rates) rates += " " + std::to_string(static_cast<int>(r));
    out.notes.push_back("backlog: " + std::to_string(kBursts) + " bursts of " +
                        std::to_string(burst) + " jobs, drained at" + rates + " jobs/s");
    if (!open.empty() && late_p99 > kMaxLateP99Ms) {
      std::snprintf(line, sizeof(line),
                    "generator fell behind: late p99 %.3f ms > %.1f ms allowed", late_p99,
                    kMaxLateP99Ms);
      out.invalid = line;
    }

    const service::ResultCache* cache = svc.result_cache();
    const service::CacheStats cs = cache != nullptr ? cache->stats() : service::CacheStats{};
    const std::size_t classed = cs.hits + cs.partial_hits + cs.misses;
    if (recurring_) {
      std::snprintf(line, sizeof(line),
                    "cache: %zu whole hits + %zu partial of %zu classed jobs, %zu dedupe "
                    "followers, %zu engine runs",
                    cs.hits, cs.partial_hits, classed, followers,
                    static_cast<std::size_t>(engine_runs));
      out.notes.push_back(line);
      std::snprintf(line, sizeof(line),
                    "open loop: %zu whole hits (latency p50 %.1f us, p90 %.1f us), %zu dedupe "
                    "followers, %zu engine runs",
                    open_hit_ms.size(), quantile(open_hit_ms, 0.5) * 1e3,
                    quantile(open_hit_ms, 0.9) * 1e3, open_followers,
                    lat_ms.size() - open_hit_ms.size() - open_followers);
      out.notes.push_back(line);
    }

    if (rec != nullptr) {
      out.spans = rec->snapshot();
      // Store spans carry the service's job id (parsed from the exchange
      // key); make them arrival indices like every other span.
      for (Span& s : out.spans) {
        if (std::strncmp(s.name, "store.", 6) != 0 || s.job < 0) continue;
        const auto it = index_of.find(static_cast<service::JobId>(s.job));
        s.job = it != index_of.end() ? static_cast<std::int64_t>(it->second) : -1;
      }
      out.layers = layer_catalog();
      engine_layers(out.spans, dags, out.layers);
      const std::vector<double> submit_s = span_seconds(out.spans, "service.submit");
      const double runs = std::max(1.0, engine_runs);
      out.layers.set("scheduler.plan_ms", plan_ms_, "ms");
      out.layers.set("exchange.zero_copy_msgs", zero_copy / runs, "count");
      out.layers.set("exchange.remote_msgs", remote / runs, "count");
      out.layers.set("exchange.remote_bytes", remote_bytes / runs, "bytes");
      out.layers.set("exchange.chunks_published", chunks / runs, "count");
      out.layers.set("service.submit_us_p50", quantile(submit_s, 0.50) * 1e6, "us");
      out.layers.set("service.submit_us_p99", quantile(submit_s, 0.99) * 1e6, "us");
      out.layers.set("service.admit_ms_p50", quantile(admit_ms, 0.50), "ms");
      out.layers.set("service.queue_ms_p50", quantile(queue_ms, 0.50), "ms");
      out.layers.set("service.queue_ms_p99", quantile(queue_ms, 0.99), "ms");
      out.layers.set("service.run_ms_p50", quantile(run_ms, 0.50), "ms");
      out.layers.set("cluster.slots_granted_mean", mean(slots), "slots");
      out.layers.set("cluster.utilization", summary.avg_utilization, "ratio");
      out.layers.set("cache.hit_ratio",
                     classed > 0 ? static_cast<double>(cs.hits + cs.partial_hits) /
                                       static_cast<double>(classed)
                                 : 0.0,
                     "ratio");
      out.layers.set("cache.hits", static_cast<double>(cs.hits), "count");
      out.layers.set("cache.partial_hits", static_cast<double>(cs.partial_hits), "count");
      out.layers.set("cache.misses", static_cast<double>(cs.misses), "count");
      out.layers.set("cache.evictions", static_cast<double>(cs.evictions), "count");
      out.layers.set("cache.dedup_followers", static_cast<double>(followers), "count");
      out.layers.set("cache.hit_us_p50", quantile(hit_us, 0.50), "us");
      out.layers.set("gen.late_ms_p99", late_p99, "ms");
      out.layers.set("gen.late_ms_max", late_max, "ms");
    }
    return out;
  }

  const bool recurring_;
  const storage::StorageModel external_ = storage::s3_model();
  std::uint64_t seed_ = 0;
  std::vector<service::EngineQueryJob> pool_;
  std::uint64_t next_version_ = 0;
  std::vector<std::size_t> pool_deck_, repeat_deck_, template_deck_, unique_deck_;
  double plan_ms_ = 0.0;
  std::size_t setup_attempted_ = 0;
  std::size_t setup_failed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_service_cold() { return std::make_unique<ServiceWorkload>(false); }
std::unique_ptr<Workload> make_service_recurring() {
  return std::make_unique<ServiceWorkload>(true);
}

}  // namespace perfbench
