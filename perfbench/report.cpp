#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

// ---------------------------------------------------------------------------
// common.h

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

const Metrics::Entry* Metrics::find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

double Metrics::get(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->value : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

std::vector<double> window_quantiles(const std::vector<std::vector<std::vector<double>>>& samples,
                                     double q) {
  std::vector<double> per_window;
  for (const auto& groups : samples) {
    std::vector<double> qs;
    for (const auto& v : groups) {
      if (!v.empty()) qs.push_back(quantile(v, q));
    }
    if (!qs.empty() && qs.size() == groups.size()) per_window.push_back(geomean(qs));
  }
  return per_window;
}

double best_window_quantile(const std::vector<std::vector<std::vector<double>>>& samples,
                            double q) {
  return quantile(window_quantiles(samples, q), 0.0);
}

std::string stretch_note(const std::vector<std::vector<std::vector<double>>>& samples,
                         const char* unit) {
  std::string note = std::string("stretches (geomean p50 / p90 ") + unit + "):";
  const std::vector<double> p50 = window_quantiles(samples, 0.50);
  const std::vector<double> p90 = window_quantiles(samples, 0.90);
  for (std::size_t w = 0; w < p50.size(); ++w) {
    char one[48];
    std::snprintf(one, sizeof(one), " %.1f/%.1f", p50[w], p90[w]);
    note += one;
  }
  return note;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// report.h

Metrics layer_catalog() {
  static const char* const kLayers[][2] = {
      {"scheduler.plan_ms", "ms"},          {"scheduler.cold_us", "us"},
      {"model.jct_rel_err", "ratio"},       {"model.stage_rel_err", "ratio"},
      {"engine.run_ms", "ms"},              {"engine.self_ms", "ms"},
      {"engine.self_share", "ratio"},       {"engine.stage_gap_ms", "ms"},
      {"engine.tasks", "count"},            {"stage_fn.busy_s", "s"},
      {"stage_fn.covered_ms", "ms"},        {"stage_fn.nonkernel_s", "s"},
      {"kernel.group_by_s", "s"},           {"kernel.join_s", "s"},
      {"kernel.filter_s", "s"},             {"kernel.top_k_s", "s"},
      {"exchange.zero_copy_msgs", "count"}, {"exchange.remote_msgs", "count"},
      {"exchange.remote_bytes", "bytes"},   {"exchange.chunks_published", "count"},
      {"storage.put_ms", "ms"},             {"storage.get_ms", "ms"},
      {"storage.puts", "count"},            {"storage.gets", "count"},
      {"storage.bytes_written", "bytes"},   {"storage.bytes_read", "bytes"},
      {"service.submit_us_p50", "us"},      {"service.submit_us_p99", "us"},
      {"service.admit_ms_p50", "ms"},       {"service.queue_ms_p50", "ms"},
      {"service.queue_ms_p99", "ms"},       {"service.run_ms_p50", "ms"},
      {"cluster.slots_granted_mean", "slots"}, {"cluster.utilization", "ratio"},
      {"cache.hit_ratio", "ratio"},         {"cache.hits", "count"},
      {"cache.partial_hits", "count"},      {"cache.misses", "count"},
      {"cache.evictions", "count"},         {"cache.dedup_followers", "count"},
      {"cache.hit_us_p50", "us"},           {"sim.experiment_ms", "ms"},
      {"plan.sim_jct_speedup", "x"},        {"plan.sim_cost_saving", "x"},
      {"gen.late_ms_p99", "ms"},            {"gen.late_ms_max", "ms"},
      {"trace.overhead_lat_p50_ms", "ms"},  {"trace.overhead_lat_tail_ms", "ms"},
      {"trace.spans", "count"},             {"check.failed_frac", "ratio"},
  };
  Metrics m;
  for (const auto& [name, unit] : kLayers) m.set(name, 0.0, unit);
  return m;
}

std::vector<double> span_seconds(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.dur());
  }
  return out;
}

double mean_span_ms(const std::vector<Span>& spans, const char* name) {
  return mean(span_seconds(spans, name)) * 1e3;
}

void engine_layers(const std::vector<Span>& spans,
                   const std::map<std::int64_t, const ditto::JobDag*>& dags, Metrics& layers) {
  struct JobSpans {
    std::vector<const Span*> runs, stage_fns, store_ops;
  };
  std::map<std::int64_t, JobSpans> by_job;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "engine.run") == 0) {
      by_job[s.job].runs.push_back(&s);
    } else if (std::strcmp(s.name, "stage_fn") == 0) {
      by_job[s.job].stage_fns.push_back(&s);
    } else if (std::strncmp(s.name, "store.", 6) == 0) {
      by_job[s.job].store_ops.push_back(&s);
    }
  }

  double runs = 0, run_s = 0, self_s = 0, fn_covered_s = 0, busy_s = 0, tasks = 0;
  double kernel[4] = {0, 0, 0, 0};
  double put_s = 0, get_s = 0, puts = 0, gets = 0, bytes_w = 0, bytes_r = 0;
  std::vector<double> gaps;
  for (const auto& [job, js] : by_job) {
    for (const Span* run : js.runs) {
      std::vector<std::pair<double, double>> fn_iv, all_iv;
      std::map<int, std::pair<double, double>> stage_span;  // first start, last end
      for (const Span* f : js.stage_fns) {
        if (f->end <= run->start || f->start >= run->end) continue;
        fn_iv.push_back({f->start, f->end});
        busy_s += f->dur();
        tasks += 1;
        for (int k = 0; k < 4; ++k) kernel[k] += f->kernel[k];
        auto [it, fresh] = stage_span.try_emplace(f->stage, f->start, f->end);
        if (!fresh) {
          it->second.first = std::min(it->second.first, f->start);
          it->second.second = std::max(it->second.second, f->end);
        }
      }
      all_iv = fn_iv;
      for (const Span* o : js.store_ops) {
        if (o->end <= run->start || o->start >= run->end) continue;
        all_iv.push_back({o->start, o->end});
        const bool is_put = std::strcmp(o->name, "store.put") == 0;
        (is_put ? put_s : get_s) += o->dur();
        (is_put ? puts : gets) += 1;
        (is_put ? bytes_w : bytes_r) += o->bytes;
      }
      runs += 1;
      run_s += run->dur();
      self_s += run->dur() - covered_seconds(all_iv, run->start, run->end);
      fn_covered_s += covered_seconds(fn_iv, run->start, run->end);

      const auto dag = dags.find(job);
      if (dag == dags.end() || dag->second == nullptr) continue;
      for (const auto& [stage, first_last] : stage_span) {
        double parents_done = -1.0;
        for (ditto::StageId p : dag->second->parents(static_cast<ditto::StageId>(stage))) {
          const auto ps = stage_span.find(static_cast<int>(p));
          if (ps != stage_span.end()) parents_done = std::max(parents_done, ps->second.second);
        }
        if (parents_done >= 0.0) gaps.push_back(std::max(0.0, first_last.first - parents_done));
      }
    }
  }
  if (runs == 0) return;
  const double kernel_total = kernel[0] + kernel[1] + kernel[2] + kernel[3];
  layers.set("engine.run_ms", run_s / runs * 1e3, "ms");
  layers.set("engine.self_ms", self_s / runs * 1e3, "ms");
  layers.set("engine.self_share", run_s > 0 ? self_s / run_s : 0.0, "ratio");
  layers.set("engine.stage_gap_ms", mean(gaps) * 1e3, "ms");
  layers.set("engine.tasks", tasks / runs, "count");
  layers.set("stage_fn.busy_s", busy_s / runs, "s");
  layers.set("stage_fn.covered_ms", fn_covered_s / runs * 1e3, "ms");
  layers.set("stage_fn.nonkernel_s", (busy_s - kernel_total) / runs, "s");
  layers.set("kernel.group_by_s", kernel[0] / runs, "s");
  layers.set("kernel.join_s", kernel[1] / runs, "s");
  layers.set("kernel.filter_s", kernel[2] / runs, "s");
  layers.set("kernel.top_k_s", kernel[3] / runs, "s");
  layers.set("storage.put_ms", put_s / runs * 1e3, "ms");
  layers.set("storage.get_ms", get_s / runs * 1e3, "ms");
  layers.set("storage.puts", puts / runs, "count");
  layers.set("storage.gets", gets / runs, "count");
  layers.set("storage.bytes_written", bytes_w / runs, "bytes");
  layers.set("storage.bytes_read", bytes_r / runs, "bytes");
}

void print_result_line(bool correct, std::size_t attempted, std::size_t failed,
                       const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& e : metrics.entries()) {
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                e.name.c_str(), v, e.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
