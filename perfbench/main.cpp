// perfbench: the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Sets the workload up three times from the seed (setup_s is the
// median), then runs one timed phase. With --trace 0 the phase is
// untraced and the result line carries the end-to-end metrics. With
// --trace 1 the time is split into an untraced and a traced phase of
// equal length on the same inputs; the result line carries the
// per-layer metrics of the traced phase, plus the tracing overhead
// (traced minus untraced latency), and the spans are written to FILE
// as Chrome trace JSON. Exit 0 when every answer and plan checked out,
// 1 on any wrong answer, failed job or infeasible plan, 2 on bad usage
// or a failed setup, 3 when the run broke its own rules (invalid).
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "report.h"
#include "timed.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr int kSetupRepeats = 3;
/// glibc's largest mmap threshold; blocks below it come from the heap.
constexpr int kMmapThreshold = 32 << 20;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\nworkloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      args.workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      args.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(key, "--seconds") == 0) {
      args.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      args.trace = val[0] == '1';
    } else if (std::strcmp(key, "--trace-out") == 0) {
      args.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

void print_table(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& e : m.entries()) {
    std::printf("  %-28s %16.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process. By default glibc unmaps large
  // blocks and trims the heap, so every query faults its buffers back
  // in; on a VM the cost of those faults swings with the host's load
  // (on a 4-vCPU VM, one seed of batch_large gave a p50 of 107-310 ms
  // within minutes, and 64-100 ms with the memory kept). The
  // runs then time the program's own work: allocator calls are still
  // timed, page faults mostly not.
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Args args;
  if (!parse(argc, argv, args)) return usage();
  if (make_workload(args.workload) == nullptr) return usage();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::unique_ptr<Workload> wl;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    wl.reset();  // free the previous set-up before building the next
    wl = make_workload(args.workload);
    const double t0 = now_s();
    const ditto::Status st = wl->setup(args.seed);
    setup_s.push_back(now_s() - t0);
    if (!st.is_ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.to_string().c_str());
      return 2;
    }
  }
  std::printf("setup: %d repetitions, %.3f / %.3f / %.3f s\n", kSetupRepeats, setup_s[0],
              setup_s[1], setup_s[2]);

  const auto [setup_attempted, setup_failed] = wl->setup_checks();
  Phase run;
  Phase untraced;
  SpanRecorder rec;
  if (args.trace) {
    untraced = wl->measure(args.seconds / 2, nullptr);
    run = wl->measure(args.seconds / 2, &rec);
  } else {
    run = wl->measure(args.seconds, nullptr);
  }
  for (const Phase* p : {&untraced, &run}) {
    if (!p->invalid.empty()) {
      std::fprintf(stderr, "run invalid: %s\n", p->invalid.c_str());
      return 3;
    }
  }
  const std::size_t attempted = setup_attempted + untraced.attempted + run.attempted;
  const std::size_t failed = setup_failed + untraced.failed + run.failed;

  for (const auto& note : run.notes) std::printf("%s\n", note.c_str());
  run.named.set("setup_s", quantile(setup_s, 0.5), "s");
  run.named.set("peak_rss_mb", peak_rss_mb(), "MB");
  run.named.set("failed_frac",
                attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                              : 0.0,
                "ratio");
  char base[96];
  std::snprintf(base, sizeof(base), "end-to-end (%s; failed_frac base: %zu attempted)",
                args.trace ? "traced phase" : "untraced", attempted);
  print_table(base, run.named);

  Metrics result;
  if (!args.trace) {
    result = run.e2e;
    result.set("setup_s", quantile(setup_s, 0.5), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    result = run.layers.entries().empty() ? layer_catalog() : run.layers;
    result.set("scheduler.cold_us", first_schedule_us(), "us");
    result.set("trace.overhead_lat_p50_ms",
               run.e2e.get("lat_p50_ms") - untraced.e2e.get("lat_p50_ms"), "ms");
    result.set("trace.overhead_lat_tail_ms",
               run.e2e.get("lat_tail_ms") - untraced.e2e.get("lat_tail_ms"), "ms");
    result.set("trace.spans", static_cast<double>(run.spans.size()), "count");
    result.set("check.failed_frac", run.named.get("failed_frac"), "ratio");
    if (!args.trace_out.empty()) {
      if (!write_chrome_json(args.trace_out, run.spans)) {
        std::fprintf(stderr, "cannot write trace to %s\n", args.trace_out.c_str());
        return 2;
      }
      std::printf("trace: %zu spans written to %s\n", run.spans.size(), args.trace_out.c_str());
    }
  }
  print_table(args.trace ? "per-layer (traced phase)" : "result metrics", result);
  print_result_line(failed == 0, attempted, failed, result);
  return failed == 0 ? 0 : 1;
}
