#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

void SpanRecorder::add(Span s) {
  if (s.id == 0) s.id = next_id();
  s.tid = thread_index();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool write_chrome_json(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans) {
    // Synthetic spans (rebuilt from service timestamps) get their own
    // track so they never interleave with real calls on a thread row.
    const int tid = s.synthetic ? 100000 : s.tid;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"job\":%lld,"
                 "\"stage\":%d,\"task\":%d,\"bytes\":%.0f,\"synthetic\":%s}}",
                 first ? "" : ",\n", s.name, tid, s.start * 1e6, std::max(0.0, s.dur()) * 1e6,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.job), s.stage, s.task, s.bytes,
                 s.synthetic ? "true" : "false");
    first = false;
  }
  std::fprintf(f, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":100000,"
               "\"args\":{\"name\":\"from result structs\"}}\n]}\n",
               first ? "" : ",\n");
  return std::fclose(f) == 0;
}

double covered_seconds(std::vector<std::pair<double, double>> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace perfbench
