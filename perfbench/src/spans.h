#ifndef STINDEX_PERFBENCH_SPANS_H_
#define STINDEX_PERFBENCH_SPANS_H_

// Traced-run instrumentation: a PageCache decorator that exists only in
// the traced run, and the span analysis that turns a drained util/trace
// capture into per-layer self times.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "measure.h"
#include "storage/buffer_pool.h"
#include "util/trace.h"

namespace stindex {
namespace perfbench {

// Times every FetchPinned of the wrapped cache in a "storage"/"fetch"
// span whose end event carries kind=hit|miss. Pages are pinned and
// unpinned by the wrapped cache: the returned PageRef is the inner one.
class TimedPageCache : public PageCache {
 public:
  explicit TimedPageCache(PageCache* inner) : inner_(inner) {}

  PageRef FetchPinned(PageId id) override;
  const IoStats& stats() const override { return inner_->stats(); }

 protected:
  void Unpin(PageId) override {}

 private:
  PageCache* inner_;
};

// Runs `body` inside a span and returns its wall time in seconds.
template <typename F>
double TimeSpan(const char* category, const char* name, F&& body) {
  TraceSpan span(category, name);
  const Clock::time_point start = Clock::now();
  body();
  return SecondsSince(start);
}

// Count and summed duration of a set of spans.
struct SpanStat {
  uint64_t count = 0;
  double total_ns = 0.0;
  double MeanNs() const {
    return count == 0 ? 0.0 : total_ns / static_cast<double>(count);
  }
};

// What a capture says about the layers. Only complete span trees whose
// root is one of the operation spans named to AnalyzeSpans count: the
// per-thread rings drop their oldest events, so a tree whose root begin
// event was dropped is skipped whole.
struct SpanReport {
  // Top-level spans by key ("category/name", plus ":<value>" when the end
  // event carries a "kind" or "class" string argument).
  std::map<std::string, SpanStat> roots;
  // Every span of a complete tree, by the same key; inclusive durations.
  std::map<std::string, SpanStat> spans;
  // Self time (duration minus the time its child spans cover) summed per
  // layer. The layer is the span category; the library's own "ppr"
  // spans belong to the pprtree layer.
  std::map<std::string, double> self_ns;

  // Lookups that read an absent key as zero.
  SpanStat Root(const std::string& key) const;
  SpanStat Span(const std::string& key) const;
  double SelfNs(const std::string& layer) const;
};

// `root_names` holds the "category/name" of the operation spans.
SpanReport AnalyzeSpans(const std::vector<TraceEvent>& events,
                        const std::set<std::string>& root_names);

// Starts a capture whose per-thread rings hold the last `events` events.
void StartTrace(size_t events);
// Stops the capture, writes it as Chrome trace JSON to `path` and returns
// its analysis.
SpanReport StopTrace(const std::string& path,
                     const std::set<std::string>& root_names);

}  // namespace perfbench
}  // namespace stindex

#endif  // STINDEX_PERFBENCH_SPANS_H_
