#ifndef STINDEX_PERFBENCH_MEASURE_H_
#define STINDEX_PERFBENCH_MEASURE_H_

// Measurement helpers shared by the workloads: exact latency quantiles
// from raw per-operation samples, order-independent answer digests,
// process peak RSS and the named metric list every run prints.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace stindex {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t NanosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
      .count();
}

// `total` per operation; 0 when there was none.
inline double PerOp(double total, uint64_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

// Exact quantiles of raw samples (nearest rank; no bucketing). `top` is
// the highest of p99, p99.9, p99.99 and p99.999 that still has at least
// ten samples beyond it.
struct Quantiles {
  size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double top_percentile = 0.0;
  double top = 0.0;
};
// Reorders *samples.
Quantiles ExactQuantiles(std::vector<double>* samples);

double Median(std::vector<double> values);

// Per-operation samples of one timed phase, cut into equal windows by
// completion time. Each client fills its own; WindowSummary::Of merges
// them.
// Medians over windows keep a burst of outside load in a few windows
// from moving the result.
class WindowedSamples {
 public:
  // A phase of `seconds` in windows of about half a second each.
  explicit WindowedSamples(double seconds);

  // Sets the phase's start; call before the first Add.
  void Start(Clock::time_point start) { start_ = start; }

  // Makes every window's storage resident, with room for `per_second`
  // samples a second, so that up to that rate Add allocates nothing.
  // Returns the bytes held.
  size_t Preallocate(double per_second);

  void Add(Clock::time_point end, double value_ms) {
    const double at = std::chrono::duration<double>(end - start_).count();
    size_t w = at <= 0.0 ? 0 : static_cast<size_t>(at / window_seconds_);
    Window& window = windows_[std::min(w, windows_.size() - 1)];
    window.samples.push_back(value_ms);
    window.first = std::min(window.first, at);
    window.last = std::max(window.last, at);
  }
  size_t Count() const;

 private:
  friend struct WindowSummary;
  struct Window {
    std::vector<double> samples;
    // First and last completion, in seconds since the start.
    double first = 1e300;
    double last = -1e300;
  };
  Clock::time_point start_;
  double window_seconds_;
  std::vector<Window> windows_;
};

struct WindowSummary {
  // Medians over windows of each window's exact quantiles and its
  // completion rate: completions after the window's first one, over the
  // time from its first to its last completion.
  double rate = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  size_t windows = 0;
  // Exact quantiles over every sample of the phase.
  Quantiles all;

  static WindowSummary Of(std::vector<WindowedSamples>* clients);
};

// Order-independent fingerprint of a query answer (count plus a sum of
// mixed ids), so an answer is checked without sorting it.
struct AnswerDigest {
  uint64_t count = 0;
  uint64_t mix = 0;
  bool operator==(const AnswerDigest&) const = default;
};
AnswerDigest Digest(const std::vector<uint64_t>& ids);

// Returns freed heap memory to the system and resets this process's peak
// resident set size to its current one (Linux: /proc/self/clear_refs),
// so that PeakRssMb counts only what comes after.
void ResetPeakRss();
// Peak resident set size of this process since the last ResetPeakRss
// (or since it started), in MiB.
double PeakRssMb();

// Size of the file at `path` in MiB (0 if it cannot be stat'ed).
double FileSizeMb(const std::string& path);

// One named measurement as the benchmark prints it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Result of one workload run: the metrics it reports plus the operation
// counts behind `error_rate`. `correct` is false once any check failed.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  // Records a failed check with a message on stderr.
  void Fail(const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

}  // namespace perfbench
}  // namespace stindex

#endif  // STINDEX_PERFBENCH_MEASURE_H_
