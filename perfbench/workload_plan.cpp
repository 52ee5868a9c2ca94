// plan_paper: the paper's Fig. 8 grid at paper scale, simulated. Each
// configuration (Q1/Q16/Q94/Q95 at SF=1000 on S3 under Zipf-0.9, Q95
// across slot usages and slot distributions) runs profile -> Ditto or
// NIMBLE -> simulate through sim::run_experiment with 16 simulator
// seeds drawn from the workload seed, averaged. The timed phase is warm
// DittoScheduler::schedule calls on the fitted DAGs; there is no engine
// work. Every plan is checked against its cluster.
#include <sched.h>

#include <algorithm>
#include <cstdio>

#include "checks.h"
#include "report.h"
#include "scheduler/baselines.h"
#include "scheduler/ditto_scheduler.h"
#include "sim/sim_runner.h"
#include "storage/sim_store.h"
#include "timed.h"
#include "workload/physics.h"
#include "workload/queries.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ditto;

constexpr int kScaleFactor = 1000;
/// Simulator seeds per configuration. Each one profiles its own fitted
/// DAG, and how long planning takes depends on the fit, so the timed
/// phase plans on all of them.
constexpr int kSimSeeds = 16;
/// Planning is single-threaded, and on a shared host one vCPU can run
/// ~35% slower than another, which ones changing from second to second
/// (a busy hyperthread sibling). The loop moves to the next allowed CPU
/// every kPinSliceS, and each fitted DAG is timed at the kFitQuantile of
/// its calls over the run: its time on a core whose sibling was idle.
constexpr double kPinSliceS = 0.25;
constexpr double kFitQuantile = 0.10;

struct Config {
  std::string label;
  workload::QueryId query;
  cluster::SlotDistributionSpec slots;
};

struct Planned {
  Config config;
  JobDag truth;
  std::vector<JobDag> fitted;  ///< what Ditto planned on, per simulator seed
  cluster::Cluster cluster;
  double ditto_jct = 0.0, nimble_jct = 0.0;
  double ditto_cost = 0.0, nimble_cost = 0.0;
  double ditto_slot_s = 0.0;  ///< simulated sum of DoP x stage duration
};

std::vector<Config> fig8_grid() {
  std::vector<Config> grid;
  for (workload::QueryId q : workload::paper_queries()) {
    grid.push_back({std::string(workload::query_name(q)) + "/zipf-0.9", q, cluster::zipf_0_9()});
  }
  for (double usage : {1.0, 0.75, 0.5, 0.25}) {
    const auto spec = cluster::uniform_usage(usage);
    grid.push_back({"Q95/" + spec.label(), workload::QueryId::kQ95, spec});
  }
  for (const auto& spec : {cluster::norm_1_0(), cluster::norm_0_8(), cluster::zipf_0_99()}) {
    grid.push_back({"Q95/" + spec.label(), workload::QueryId::kQ95, spec});
  }
  return grid;
}

class PlanPaper final : public Workload {
 public:
  Status setup(std::uint64_t seed) override {
    workload::PhysicsParams physics;
    physics.store = external_;
    const std::vector<Config> grid = fig8_grid();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      Planned p{grid[i], workload::build_query(grid[i].query, kScaleFactor, physics), {},
                cluster::Cluster::paper_testbed(grid[i].slots)};
      scheduler::DittoScheduler ditto;
      scheduler::NimbleScheduler nimble;
      for (int rep = 0; rep < kSimSeeds; ++rep) {
        sim::SimOptions opts;
        opts.seed = mix_seed(seed, 1000 + kSimSeeds * i + rep);
        for (scheduler::Scheduler* inner : {static_cast<scheduler::Scheduler*>(&ditto),
                                            static_cast<scheduler::Scheduler*>(&nimble)}) {
          TimedScheduler sched(*inner);
          sched.keep_dag(inner == &ditto);
          const double t0 = now_s();
          auto r =
              sim::run_experiment(p.truth, p.cluster, sched, Objective::kJct, external_, opts);
          experiment_s_.push_back(now_s() - t0);
          if (!r.ok()) return r.status();
          ++setup_attempted_;
          const std::string bad = check_plan(r->plan.placement, p.truth, p.cluster);
          if (!bad.empty()) {
            ++setup_failed_;
            std::fprintf(stderr, "%s %s: %s\n", inner->name(), p.config.label.c_str(),
                         bad.c_str());
          }
          const double share = 1.0 / kSimSeeds;
          if (inner == &ditto) {
            p.fitted.push_back(sched.last_dag());
            p.ditto_jct += share * r->sim.jct;
            p.ditto_cost += share * r->sim.cost.total();
            for (const auto& st : r->sim.stages) {
              p.ditto_slot_s += share * st.dop * (st.end - st.start);
            }
          } else {
            p.nimble_jct += share * r->sim.jct;
            p.nimble_cost += share * r->sim.cost.total();
          }
        }
      }
      planned_.push_back(std::move(p));
    }
    return Status::ok();
  }

  std::pair<std::size_t, std::size_t> setup_checks() const override {
    return {setup_attempted_, setup_failed_};
  }

  Phase measure(double seconds, SpanRecorder* rec) override {
    Phase out;
    std::size_t warm_plans = 0;
    // [configuration][fit]: planning times on each fitted DAG.
    std::vector<std::vector<std::vector<double>>> samples(
        planned_.size(), std::vector<std::vector<double>>(kSimSeeds));
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
      }
    }
    const double t_start = now_s();
    const double t_end = t_start + seconds;
    std::int64_t job = 0;
    std::size_t pinned_slice = 0;
    while (now_s() < t_end) {
      const auto slice = static_cast<std::size_t>((now_s() - t_start) / kPinSliceS) + 1;
      if (slice != pinned_slice && !cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[slice % cpus.size()], &one);
        (void)sched_setaffinity(0, sizeof(one), &one);  // 0: the calling thread
        pinned_slice = slice;
      }
      for (std::size_t i = 0; i < planned_.size(); ++i) {
        const Planned& p = planned_[i];
        scheduler::DittoScheduler ditto;
        TimedScheduler sched(ditto, rec, job);
        const std::size_t fit = static_cast<std::size_t>(job++) % p.fitted.size();
        const JobDag& fitted = p.fitted[fit];
        auto plan = sched.schedule(fitted, p.cluster, Objective::kJct, external_);
        ++out.attempted;
        const std::string bad =
            plan.ok() ? check_plan(plan->placement, p.truth, p.cluster) : plan.status().to_string();
        if (!bad.empty()) {
          ++out.failed;
          out.notes.push_back("FAILED plan " + p.config.label + ": " + bad);
          continue;
        }
        ++warm_plans;
        samples[i][fit].push_back(sched.last_seconds() * 1e6);
      }
    }
    if (!cpus.empty()) (void)sched_setaffinity(0, sizeof(allowed), &allowed);
    // The quantiles are taken over the plans of the grid, each fitted DAG
    // timed once as above: which fits plan slowly is the program's tail;
    // the time of one call moves with the speed of the core it ran on.
    // Each configuration plans in its own time, so a pooled quantile sits
    // between configurations and jumps when two of them trade places; the
    // geomean of per-configuration quantiles does not.
    std::vector<double> config_p50, config_p90;
    for (const auto& fits : samples) {
      std::vector<double> fit_us;
      for (const auto& times : fits) {
        if (!times.empty()) fit_us.push_back(quantile(times, kFitQuantile));
      }
      if (fit_us.empty()) continue;
      config_p50.push_back(quantile(fit_us, 0.50));
      config_p90.push_back(quantile(fit_us, 0.90));
    }
    const double sched_p50 = geomean(config_p50);
    const double sched_p90 = geomean(config_p90);

    std::vector<double> jct, slot_s, jct_speedup, cost_saving;
    char line[200];
    for (const Planned& p : planned_) {
      jct.push_back(p.ditto_jct);
      slot_s.push_back(p.ditto_slot_s);
      jct_speedup.push_back(p.nimble_jct / p.ditto_jct);
      cost_saving.push_back(p.nimble_cost / p.ditto_cost);
      std::snprintf(line, sizeof(line),
                    "%-16s Ditto JCT %7.1f s  NIMBLE %7.1f s  speedup %.2fx  cost saving %.2fx",
                    p.config.label.c_str(), p.ditto_jct, p.nimble_jct, jct_speedup.back(),
                    cost_saving.back());
      out.notes.push_back(line);
    }
    std::snprintf(line, sizeof(line), "warm plans: %zu over %zu configurations (SF=%d, S3)",
                  warm_plans, planned_.size(), kScaleFactor);
    out.notes.push_back(line);

    out.e2e.set("lat_p50_ms", sched_p50 / 1e3, "ms");
    out.e2e.set("lat_tail_ms", sched_p90 / 1e3, "ms");
    out.e2e.set("jobs_per_s", 1.0 / geomean(jct), "1/s");
    out.e2e.set("slot_s_per_job", geomean(slot_s), "s");
    out.named.set("sched_us_p50", sched_p50, "us");
    out.named.set("sched_us_p90", sched_p90, "us");
    out.named.set("sim_jct_speedup", geomean(jct_speedup), "x");
    out.named.set("sim_cost_saving", geomean(cost_saving), "x");

    if (rec != nullptr) {
      out.spans = rec->snapshot();
      out.layers = layer_catalog();
      out.layers.set("scheduler.plan_ms", mean_span_ms(out.spans, "scheduler.schedule"), "ms");
      out.layers.set("sim.experiment_ms", mean(experiment_s_) * 1e3, "ms");
      out.layers.set("plan.sim_jct_speedup", geomean(jct_speedup), "x");
      out.layers.set("plan.sim_cost_saving", geomean(cost_saving), "x");
    }
    return out;
  }

 private:
  const storage::StorageModel external_ = storage::s3_model();
  std::vector<Planned> planned_;
  std::vector<double> experiment_s_;
  std::size_t setup_attempted_ = 0;
  std::size_t setup_failed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_plan_paper() { return std::make_unique<PlanPaper>(); }

}  // namespace perfbench
