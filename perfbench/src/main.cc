// stindex_perfbench: the repository benchmark. One run = one workload,
// one seed, one measuring time; `--trace 1` reports the per-layer
// metrics of a traced run instead of the end-to-end ones.
//
//   stindex_perfbench --workload hist-cached|hist-spill|live-ingest
//                     --seed N --seconds S --trace 0|1 --work-dir DIR
//                     [--corrupt-reference]
//
// Prints one line per metric (name, value, unit), then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any answer check failed.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace stindex {
namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end list.
constexpr MetricSpec kEndToEnd[] = {
    {"qps", "1/s"},          {"query_p50_ms", "ms"}, {"query_p99_ms", "ms"},
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},  {"disk_mb", "MB"},
    {"recovery_s", "s"},
};

// Must match BENCHMARK.json's per_layer list. A workload reports 0 for
// the layers it does not exercise.
constexpr MetricSpec kPerLayer[] = {
    {"datagen.gen_s", "s"},
    {"core.curves_s", "s"},
    {"core.distribute_s", "s"},
    {"core.segments_s", "s"},
    {"pprtree.build_s", "s"},
    {"storage.pack_s", "s"},
    {"storage.snapshot_open_s", "s"},
    {"live.preingest_s", "s"},
    {"pprtree.query_self_ns", "ns"},
    {"pprtree.nodes_per_query", "count"},
    {"pprtree.leaf_entries_per_query", "count"},
    {"pprtree.candidates_per_query", "count"},
    {"pprtree.protocol_misses_per_query", "count"},
    {"storage.hit_ns", "ns"},
    {"storage.miss_ns", "ns"},
    {"storage.ns_per_miss", "ns"},
    {"storage.fetches_per_query", "count"},
    {"storage.hit_ratio", "ratio"},
    {"storage.borrows_per_query", "count"},
    {"storage.evictions_per_query", "count"},
    {"storage.crc_ns_per_page", "ns"},
    {"live.apply_ns", "ns"},
    {"live.commit_ns", "ns"},
    {"live.wal_sync_ns", "ns"},
    {"live.wal_syncs", "1/commit"},
    {"live.wal_page_writes", "1/commit"},
    {"live.checkpoints", "count"},
    {"live.checkpoint_stall_ms", "ms"},
    {"live.query_hist_ns", "ns"},
    {"live.query_fresh_ns", "ns"},
    {"live.rows_per_hist_query", "count"},
    {"live.rows_per_fresh_query", "count"},
    {"live.replay_records", "count"},
    {"live.replay_pages", "count"},
    {"live.ingest_ups", "1/s"},
    {"live.ack_p50_ms", "ms"},
    {"live.ack_p99_ms", "ms"},
    {"live.wal_bytes_per_update", "B"},
    {"live.feed_late_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "stindex_perfbench: %s\nusage: stindex_perfbench --workload "
               "hist-cached|hist-spill|live-ingest --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--corrupt-reference]\n",
               message);
  std::exit(2);
}

uint64_t ParseUnsigned(const char* flag, const std::string& value) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || value[0] == '-') {
    Usage((std::string(flag) + " expects a non-negative integer").c_str());
  }
  return n;
}

BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions options;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned("--seed", value);
    } else if (flag == "--seconds") {
      const uint64_t seconds = ParseUnsigned("--seconds", value);
      if (seconds == 0) Usage("--seconds must be positive");
      options.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
      have_dir = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_dir) Usage("--workload and --work-dir required");
  return options;
}

// Prints every metric of the run's kind in list order (0 for the ones
// the workload does not report), then the JSON result line.
void Print(const BenchOptions& options, const RunResult& result) {
  std::map<std::string, double> values;
  for (const Metric& metric : result.metrics) {
    values[metric.name] = metric.value;
  }
  std::vector<MetricSpec> specs;
  if (options.trace) {
    specs.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    specs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  for (const Metric& metric : result.metrics) {
    bool known = false;
    for (const MetricSpec& spec : specs) {
      known = known || (metric.name == spec.name && metric.unit == spec.unit);
    }
    if (!known) {
      std::fprintf(stderr, "stindex_perfbench: unlisted metric %s [%s]\n",
                   metric.name.c_str(), metric.unit.c_str());
      std::exit(3);
    }
  }
  for (const MetricSpec& spec : specs) {
    std::printf("  %-36s %16.6f %s\n", spec.name, values[spec.name], spec.unit);
  }
  const double error_rate =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("  %-36s %16.6f (%llu failed / %llu attempted)\n", "error_rate",
              error_rate, static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < specs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, values[specs[i].name],
                specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench
}  // namespace stindex

int main(int argc, char** argv) {
  using namespace stindex::perfbench;
  const BenchOptions options = ParseArgs(argc, argv);
  std::printf("stindex_perfbench: workload %s, seed %llu, %g s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  RunResult result;
  if (options.workload == "hist-cached") {
    // Pool larger than the tree: every timed fetch is a hit. Three clients
    // leave one of four cores for the rest of the system.
    result = RunHist(options, HistSpec{3, 4096});
  } else if (options.workload == "hist-spill") {
    // Pool of about a tenth of the tree: most fetches take the miss path.
    result = RunHist(options, HistSpec{1, 128});
  } else if (options.workload == "live-ingest") {
    result = RunLive(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  if (result.attempted == 0) result.Fail("no operation was attempted");
  Print(options, result);
  return result.correct ? 0 : 1;
}
