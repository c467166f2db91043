#include "spans.h"

#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace stindex {
namespace perfbench {

PageRef TimedPageCache::FetchPinned(PageId id) {
  TraceSpan span("storage", "fetch");
  const uint64_t misses = inner_->stats().misses;
  PageRef ref = inner_->FetchPinned(id);
  span.Arg("kind", inner_->stats().misses != misses ? "miss" : "hit");
  return ref;
}

namespace {

std::string SpanKey(const TraceEvent& end) {
  std::string key = std::string(end.category) + "/" + end.name;
  for (uint32_t i = 0; i < end.num_args; ++i) {
    const TraceEvent::Arg& arg = end.args[i];
    if (arg.kind == TraceEvent::Arg::Kind::kString &&
        (std::strcmp(arg.key, "kind") == 0 ||
         std::strcmp(arg.key, "class") == 0)) {
      key += ":";
      key += arg.string_value;
    }
  }
  return key;
}

std::string LayerOf(const char* category) {
  return std::strcmp(category, "ppr") == 0 ? "pprtree" : category;
}

struct OpenSpan {
  const TraceEvent* begin = nullptr;
  double child_ns = 0.0;
};

// One complete tree's contributions, held back until its root closes.
struct PendingTree {
  std::vector<std::pair<std::string, double>> spans;  // key, inclusive ns
  std::vector<std::pair<std::string, double>> self;   // layer, self ns
};

}  // namespace

SpanStat SpanReport::Root(const std::string& key) const {
  auto it = roots.find(key);
  return it == roots.end() ? SpanStat() : it->second;
}

SpanStat SpanReport::Span(const std::string& key) const {
  auto it = spans.find(key);
  return it == spans.end() ? SpanStat() : it->second;
}

double SpanReport::SelfNs(const std::string& layer) const {
  auto it = self_ns.find(layer);
  return it == self_ns.end() ? 0.0 : it->second;
}

SpanReport AnalyzeSpans(const std::vector<TraceEvent>& events,
                        const std::set<std::string>& root_names) {
  SpanReport report;
  // Events arrive thread by thread, each thread in chronological order.
  std::unordered_map<uint32_t, std::vector<OpenSpan>> stacks;
  std::unordered_map<uint32_t, PendingTree> pending;
  for (const TraceEvent& event : events) {
    if (event.phase != 'B' && event.phase != 'E') continue;
    std::vector<OpenSpan>& stack = stacks[event.tid];
    PendingTree& tree = pending[event.tid];
    if (event.phase == 'B') {
      stack.push_back(OpenSpan{&event, 0.0});
      continue;
    }
    const bool matches = !stack.empty() &&
                         stack.back().begin->name == event.name &&
                         stack.back().begin->category == event.category;
    if (!matches) {
      // The begin event was overwritten: drop the partial tree.
      stack.clear();
      tree = PendingTree();
      continue;
    }
    const OpenSpan open = stack.back();
    stack.pop_back();
    const double duration =
        static_cast<double>(event.ts_ns - open.begin->ts_ns);
    const std::string key = SpanKey(event);
    tree.spans.emplace_back(key, duration);
    tree.self.emplace_back(LayerOf(event.category), duration - open.child_ns);
    if (!stack.empty()) {
      stack.back().child_ns += duration;
      continue;
    }
    if (root_names.count(std::string(event.category) + "/" + event.name) ==
        0) {
      // A child whose parent's begin event was overwritten.
      tree = PendingTree();
      continue;
    }
    SpanStat& root = report.roots[key];
    ++root.count;
    root.total_ns += duration;
    for (const auto& [span_key, ns] : tree.spans) {
      SpanStat& stat = report.spans[span_key];
      ++stat.count;
      stat.total_ns += ns;
    }
    for (const auto& [layer, ns] : tree.self) report.self_ns[layer] += ns;
    tree = PendingTree();
  }
  return report;
}

void StartTrace(size_t events) {
  TraceSessionConfig config;
  config.events_per_thread = events;
  TraceSession::Start(config);
}

SpanReport StopTrace(const std::string& path,
                     const std::set<std::string>& root_names) {
  TraceSession::Stop();
  const Status written = TraceSession::WriteChromeTrace(path);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
  } else {
    std::printf("  chrome trace: %s (%llu events dropped by the rings)\n",
                path.c_str(),
                static_cast<unsigned long long>(TraceSession::DroppedEvents()));
  }
  return AnalyzeSpans(TraceSession::CollectedEvents(), root_names);
}

}  // namespace perfbench
}  // namespace stindex
