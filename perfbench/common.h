// Shared vocabulary of the benchmark: arguments, the metric tables a
// run fills in, and the small statistics helpers every workload uses.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in the process.
double now_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace JSON written by a traced run
};

/// Ordered name -> (value, unit) table; set() overwrites an existing
/// name, so a table can be pre-filled with a canonical list.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  const Entry* find(const std::string& name) const;
  double get(const std::string& name) const;  ///< 0 when absent
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
double geomean(const std::vector<double>& v);
/// samples[window][group]: in each window, the geomean over groups of
/// each group's q-quantile; one value per window that holds every group.
std::vector<double> window_quantiles(const std::vector<std::vector<std::vector<double>>>& samples,
                                     double q);
/// The lowest of window_quantiles: the value of the run's least
/// disturbed stretch. The host's speed drifts in stretches of seconds
/// to minutes, and a stretch that is slowed only raises its own window;
/// a slower program raises every window.
double best_window_quantile(const std::vector<std::vector<std::vector<double>>>& samples,
                            double q);
/// "stretches (geomean p50 / p90 <unit>): a/b c/d ...", one pair per window.
std::string stretch_note(const std::vector<std::vector<std::vector<double>>>& samples,
                         const char* unit);
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Deterministic 64-bit mix (splitmix64) for deriving sub-seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
