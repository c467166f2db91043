#include "measure.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace stindex {
namespace perfbench {
namespace {

// Nearest-rank quantile over samples already partitioned around it.
double RankValue(std::vector<double>* samples, double q) {
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(samples->begin(), samples->begin() + rank, samples->end());
  return (*samples)[rank];
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Quantiles ExactQuantiles(std::vector<double>* samples) {
  Quantiles q;
  q.samples = samples->size();
  if (samples->empty()) return q;
  q.p50 = RankValue(samples, 0.50);
  q.p99 = RankValue(samples, 0.99);
  q.top_percentile = 99.0;
  q.top = q.p99;
  for (const double pct : {99.9, 99.99, 99.999}) {
    const double beyond =
        static_cast<double>(samples->size()) * (100.0 - pct) / 100.0;
    if (beyond < 10.0) break;
    q.top_percentile = pct;
    q.top = RankValue(samples, pct / 100.0);
  }
  return q;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

size_t WindowedSamples::Count() const {
  size_t n = 0;
  for (const Window& window : windows_) n += window.samples.size();
  return n;
}

WindowSummary WindowSummary::Of(std::vector<WindowedSamples>* clients) {
  WindowSummary summary;
  if (clients->empty()) return summary;
  const size_t windows = clients->front().windows_.size();
  std::vector<double> rates, p50s, p99s, all;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> merged;
    double first = 1e300, last = -1e300;
    for (WindowedSamples& client : *clients) {
      const WindowedSamples::Window& window = client.windows_[w];
      merged.insert(merged.end(), window.samples.begin(),
                    window.samples.end());
      first = std::min(first, window.first);
      last = std::max(last, window.last);
    }
    all.insert(all.end(), merged.begin(), merged.end());
    if (merged.size() < 2 || last <= first) continue;
    rates.push_back(static_cast<double>(merged.size() - 1) / (last - first));
    const Quantiles q = ExactQuantiles(&merged);
    p50s.push_back(q.p50);
    p99s.push_back(q.p99);
  }
  summary.rate = Median(rates);
  summary.p50 = Median(p50s);
  summary.p99 = Median(p99s);
  summary.windows = windows;
  summary.all = ExactQuantiles(&all);
  return summary;
}

WindowedSamples::WindowedSamples(double seconds)
    : windows_(std::max<size_t>(1, static_cast<size_t>(seconds * 2.0 + 0.5))) {
  window_seconds_ = seconds / static_cast<double>(windows_.size());
}

size_t WindowedSamples::Preallocate(double per_second) {
  const size_t room = static_cast<size_t>(per_second * window_seconds_) + 1;
  size_t bytes = 0;
  for (Window& window : windows_) {
    window.samples.resize(room);  // writes, and so faults in, every page
    window.samples.clear();
    bytes += window.samples.capacity() * sizeof(double);
  }
  return bytes;
}

AnswerDigest Digest(const std::vector<uint64_t>& ids) {
  AnswerDigest digest;
  digest.count = ids.size();
  for (const uint64_t id : ids) digest.mix += Mix64(id);
  return digest;
}

void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* file = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", file);
    std::fclose(file);
  }
}

double PeakRssMb() {
  // VmHWM honours ResetPeakRss; ru_maxrss does not.
  if (FILE* file = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), file) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atol(line + 6);
    }
    std::fclose(file);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double FileSizeMb(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

void RunResult::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  correct = false;
  ++failed;
}

}  // namespace perfbench
}  // namespace stindex
