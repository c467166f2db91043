// The historical workloads, hist-cached and hist-spill: closed-loop
// clients replay a fixed pool of paper queries against the Table I
// random dataset, split with LAGreedy at 150 %, built into a PPR-tree,
// packed with PackSnapshot and served through the mmap backend.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <latch>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/distribute.h"
#include "core/query_profile.h"
#include "core/split_pipeline.h"
#include "core/volume_curve.h"
#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "measure.h"
#include "pprtree/ppr_tree.h"
#include "spans.h"
#include "storage/page_codec.h"
#include "storage/shared_buffer_pool.h"
#include "storage/snapshot_file.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/trace.h"
#include "workloads.h"

namespace stindex {
namespace perfbench {
namespace {

constexpr size_t kObjects = 10000;          // Table I's smallest set
constexpr int kSplitPercent = 150;          // LAGreedy budget
constexpr int kCurveMaxSplits = 128;
constexpr size_t kQueriesPerSet = 1000;     // pool = 2 sets of this size
constexpr size_t kProtocolPages = 10;       // the paper's per-query LRU
// Set-up is repeated this many times per run and the snapshot reopen
// kReopenReps times; the reported times are medians.
constexpr int kSetupReps = 5;
constexpr int kReopenReps = 21;
// Ring events of the traced query phase, shared out among the clients.
constexpr size_t kTraceRingEvents = 1 << 18;

struct SetupTimes {
  double gen = 0, curves = 0, distribute = 0, segments = 0, build = 0,
         pack = 0;
  double Total() const {
    return gen + curves + distribute + segments + build + pack;
  }
};

// The served index plus everything the answer checks need.
struct HistIndex {
  std::vector<STQuery> pool;
  std::vector<AnswerDigest> reference;  // from the in-memory tree
  uint64_t memory_protocol_misses = 0;  // ditto
  size_t records = 0;
  std::unique_ptr<PprTree> tree;  // packed, serving from the snapshot
};

void RunQuery(const PprTree& tree, const STQuery& query, PageCache* cache,
              std::vector<PprDataId>* out, QueryProfile* profile = nullptr) {
  if (query.IsSnapshot()) {
    tree.SnapshotQuery(query.area, query.range.start, cache, out, profile);
  } else {
    tree.IntervalQuery(query.area, query.range, cache, out, profile);
  }
}

// Total misses of the paper's protocol: a 10-page LRU reset before
// every query. A fixed oracle for the layout: equal on every backend.
uint64_t ProtocolMisses(const PprTree& tree, const std::vector<STQuery>& pool) {
  const std::unique_ptr<SharedBufferPool> shared =
      tree.NewSharedQueryPool(kProtocolPages);
  SharedBufferPool::Session session(shared.get(), kProtocolPages);
  std::vector<PprDataId> results;
  uint64_t misses = 0;
  for (const STQuery& query : pool) {
    session.ResetCache();
    session.ResetStats();
    RunQuery(tree, query, &session, &results);
    misses += session.stats().misses;
  }
  return misses;
}

// One set-up: generate, split, build and pack. Only the last repetition
// computes the reference answers (on the in-memory tree, before packing).
std::unique_ptr<HistIndex> BuildIndex(const BenchOptions& options,
                                      const std::string& snapshot_path,
                                      bool compute_reference,
                                      SetupTimes* times, RunResult* result) {
  auto index = std::make_unique<HistIndex>();
  std::vector<Trajectory> objects;
  times->gen = TimeSpan("datagen", "gen", [&] {
    RandomDatasetConfig data;
    data.num_objects = kObjects;
    data.seed = Rng::DeriveSeed(options.seed, 1);
    objects = GenerateRandomDataset(data);
    QuerySetConfig snapshots = MixedSnapshotSet();
    snapshots.count = kQueriesPerSet;
    snapshots.seed = Rng::DeriveSeed(options.seed, 2);
    QuerySetConfig ranges = SmallRangeSet();
    ranges.count = kQueriesPerSet;
    ranges.seed = Rng::DeriveSeed(options.seed, 3);
    const std::vector<STQuery> a = GenerateQuerySet(snapshots);
    const std::vector<STQuery> b = GenerateQuerySet(ranges);
    for (size_t i = 0; i < kQueriesPerSet; ++i) {
      index->pool.push_back(a[i]);
      index->pool.push_back(b[i]);
    }
  });
  std::vector<VolumeCurve> curves;
  times->curves = TimeSpan("core", "curves", [&] {
    curves = ComputeVolumeCurves(objects, kCurveMaxSplits, SplitMethod::kMerge);
  });
  Distribution distribution;
  times->distribute = TimeSpan("core", "distribute", [&] {
    distribution = DistributeLAGreedy(
        curves, static_cast<int64_t>(objects.size()) * kSplitPercent / 100);
  });
  std::vector<SegmentRecord> records;
  times->segments = TimeSpan("core", "segments", [&] {
    records = BuildSegments(objects, distribution.splits, SplitMethod::kMerge);
  });
  index->records = records.size();
  times->build = TimeSpan("pprtree", "build",
                          [&] { index->tree = BuildPprTree(records); });

  if (compute_reference) {
    std::vector<PprDataId> results;
    for (const STQuery& query : index->pool) {
      if (query.IsSnapshot()) {
        index->tree->SnapshotQuery(query.area, query.range.start, &results);
      } else {
        index->tree->IntervalQuery(query.area, query.range, &results);
      }
      index->reference.push_back(Digest(results));
    }
    index->memory_protocol_misses = ProtocolMisses(*index->tree, index->pool);
  }

  Status packed;
  times->pack = TimeSpan("storage", "pack", [&] {
    packed = index->tree->PackSnapshot(snapshot_path);
  });
  if (!packed.ok()) {
    result->Fail("PackSnapshot: " + packed.ToString());
    return nullptr;
  }
  return index;
}

// Median wall time of reopening the snapshot a restart would serve from
// (MmapSnapshotBackend::Open maps it and verifies every page).
double ReopenSeconds(const std::string& path, RunResult* result) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kReopenReps; ++rep) {
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<MmapSnapshotBackend>> reopened =
        MmapSnapshotBackend::Open(path);
    seconds.push_back(SecondsSince(start));
    ++result->attempted;
    if (!reopened.ok()) result->Fail("reopen: " + reopened.status().ToString());
  }
  return Median(seconds);
}

// Median over kSetupReps passes of the per-page cost of the public Crc32 on
// every page of the snapshot, read through SnapshotFile::Read.
double CrcNsPerPage(const std::string& path, RunResult* result) {
  Result<std::unique_ptr<SnapshotFile>> file = SnapshotFile::Open(path);
  ++result->attempted;
  if (!file.ok()) {
    result->Fail("snapshot open: " + file.status().ToString());
    return 0.0;
  }
  std::vector<uint8_t> page(kPageSize);
  std::vector<double> per_page;
  uint32_t sink = 0;
  for (int pass = 0; pass < kSetupReps; ++pass) {
    int64_t total_ns = 0;
    for (size_t id = 0; id < file.value()->node_count(); ++id) {
      const Status read =
          file.value()->Read(static_cast<PageId>(id), page.data());
      if (!read.ok()) {
        result->Fail("snapshot read: " + read.ToString());
        return 0.0;
      }
      const Clock::time_point start = Clock::now();
      sink ^= Crc32(page.data(), page.size());
      total_ns += NanosBetween(start, Clock::now());
    }
    per_page.push_back(static_cast<double>(total_ns) /
                       static_cast<double>(file.value()->node_count()));
  }
  if (sink == 0x5eed) std::printf("  (crc sink %u)\n", sink);
  return Median(per_page);
}

// What one timed phase measured.
struct Phase {
  double seconds = 0.0;
  uint64_t queries = 0;
  WindowSummary latency;
  IoStats io;
  uint64_t evictions = 0;
  uint64_t borrows = 0;
  QueryProfile profile;
  uint64_t rows = 0;
};

// Closed loop: every client sends its next query when the previous one
// returned, cycling through the pool in its own seeded order, until the
// phase deadline. Every answer is checked against the reference.
Phase RunPhase(const BenchOptions& options, const HistSpec& spec,
               const HistIndex& index, SharedBufferPool* pool, double seconds,
               bool traced, uint64_t phase_id, RunResult* result) {
  Counter* borrows =
      MetricRegistry::Global().GetCounter("backend.mmap.borrows");
  const uint64_t borrows_before = borrows->Value();
  const uint64_t evictions_before = pool->Evictions();

  const size_t clients = static_cast<size_t>(spec.clients);
  std::vector<WindowedSamples> latency(clients, WindowedSamples(seconds));
  std::vector<IoStats> io(clients);
  std::vector<QueryProfile> profiles(clients);
  std::vector<uint64_t> rows(clients, 0);
  std::vector<uint64_t> mismatches(clients, 0);
  std::latch ready(static_cast<std::ptrdiff_t>(clients) + 1);
  std::atomic<bool> go{false};
  Clock::time_point start;  // written before `go` is released
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(Rng::DeriveSeed(options.seed, 100 + phase_id * 64 + c));
      std::vector<size_t> order(index.pool.size());
      std::iota(order.begin(), order.end(), size_t{0});
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1],
                  order[static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(i) - 1))]);
      }
      SharedBufferPool::Session session(pool, 0);
      TimedPageCache timed(&session);
      PageCache* cache = traced ? static_cast<PageCache*>(&timed) : &session;
      QueryProfile* profile = traced ? &profiles[c] : nullptr;
      std::vector<PprDataId> results;
      WindowedSamples& samples = latency[c];
      ready.count_down();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      samples.Start(start);
      const Clock::time_point deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
      Clock::time_point end = start;
      for (size_t k = 0; end < deadline; k = (k + 1) % order.size()) {
        const size_t q = order[k];
        const Clock::time_point begin = Clock::now();
        if (traced) {
          TraceSpan span("pprtree", "query");
          RunQuery(*index.tree, index.pool[q], cache, &results, profile);
        } else {
          RunQuery(*index.tree, index.pool[q], cache, &results);
        }
        end = Clock::now();
        samples.Add(end, static_cast<double>(NanosBetween(begin, end)) / 1e6);
        rows[c] += results.size();
        if (!(Digest(results) == index.reference[q])) ++mismatches[c];
      }
      io[c] = session.lifetime_stats();
    });
  }
  ready.arrive_and_wait();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  Phase phase;
  phase.seconds = SecondsSince(start);
  for (size_t c = 0; c < clients; ++c) {
    phase.queries += latency[c].Count();
    phase.io.accesses += io[c].accesses;
    phase.io.misses += io[c].misses;
    phase.profile.Merge(profiles[c]);
    phase.rows += rows[c];
    result->attempted += latency[c].Count();
    if (mismatches[c] > 0) {
      result->Fail("client " + std::to_string(c) + ": " +
                   std::to_string(mismatches[c]) +
                   " answers differ from the reference");
      result->failed += mismatches[c] - 1;
    }
  }
  phase.latency = WindowSummary::Of(&latency);
  phase.evictions = pool->Evictions() - evictions_before;
  phase.borrows = borrows->Value() - borrows_before;
  return phase;
}

}  // namespace

RunResult RunHist(const BenchOptions& options, const HistSpec& spec) {
  RunResult result;
  const std::string snapshot_path =
      options.work_dir + "/" + options.workload + ".stsnap";
  // Each traced run overwrites the previous run's trace files.
  const std::string trace_prefix = options.work_dir + "/" + options.workload;

  // --- set-up, repeated; the last repetition is served ------------------
  if (options.trace) StartTrace(kSetupTraceEvents);
  std::vector<SetupTimes> reps(kSetupReps);
  std::unique_ptr<HistIndex> index;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    index.reset();  // unmaps the previous snapshot before it is rewritten
    index = BuildIndex(options, snapshot_path, rep == kSetupReps - 1,
                       &reps[static_cast<size_t>(rep)], &result);
    if (index == nullptr) return result;
  }
  if (options.trace) StopTrace(trace_prefix + ".setup.trace.json", {});
  auto median_of = [&reps](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : reps) values.push_back(t.*field);
    return Median(values);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : reps) totals.push_back(t.Total());
  const double setup_s = Median(totals);
  const PprTree& tree = *index->tree;
  const size_t pages = tree.backend()->SlotCount();
  std::printf("  index: %zu objects, %zu segment records, %zu packed pages, "
              "%.2f MiB snapshot\n",
              kObjects, index->records, pages, FileSizeMb(snapshot_path));

  // --- checks that need no timing --------------------------------------
  const uint64_t mmap_protocol_misses = ProtocolMisses(tree, index->pool);
  ++result.attempted;
  if (mmap_protocol_misses != index->memory_protocol_misses) {
    result.Fail("protocol misses differ: in-memory " +
                std::to_string(index->memory_protocol_misses) + ", mmap " +
                std::to_string(mmap_protocol_misses));
  }
  if (options.corrupt_reference) index->reference[0].mix ^= 1;
  const double recovery_s = ReopenSeconds(snapshot_path, &result);

  // --- serve ------------------------------------------------------------
  // peak_rss_mb: the serving footprint, without the set-up peak.
  ResetPeakRss();
  const std::unique_ptr<SharedBufferPool> pool =
      tree.NewSharedQueryPool(spec.pool_pages);
  {
    SharedBufferPool::Session warm(pool.get(), 0);
    std::vector<PprDataId> results;
    for (size_t q = 0; q < index->pool.size(); ++q) {
      RunQuery(tree, index->pool[q], &warm, &results);
      ++result.attempted;
      if (!(Digest(results) == index->reference[q])) {
        result.Fail("warm-up answer " + std::to_string(q) +
                    " differs from the reference");
      }
    }
  }
  // The warm-up pass has touched every page the timed phase can touch.
  // Read before the timed phase, so the benchmark's own latency samples,
  // which grow with the query rate, do not count.
  const double rss_mb = PeakRssMb();
  std::printf("  serving: %d closed-loop clients, shared pool of %zu pages "
              "(%zu shards) over %zu tree pages\n",
              spec.clients, pool->capacity(), pool->shard_count(), pages);

  if (!options.trace) {
    const Phase phase = RunPhase(options, spec, *index, pool.get(),
                                 options.seconds, false, 0, &result);
    const WindowSummary& w = phase.latency;
    std::printf("  %llu queries in %.3f s; %zu latency samples: p50 %.6f ms, "
                "p99 %.6f ms, highest supported percentile p%g = %.6f ms\n",
                static_cast<unsigned long long>(phase.queries), phase.seconds,
                w.all.samples, w.all.p50, w.all.p99, w.all.top_percentile,
                w.all.top);
    std::printf("  reported: medians over %zu windows of each window's rate "
                "and exact quantiles\n",
                w.windows);
    std::printf("  miss ratio %.4f, %.2f result rows per query\n",
                PerOp(static_cast<double>(phase.io.misses),
                         phase.io.accesses),
                PerOp(static_cast<double>(phase.rows), phase.queries));
    result.Add("qps", w.rate, "1/s");
    result.Add("query_p50_ms", w.p50, "ms");
    result.Add("query_p99_ms", w.p99, "ms");
    result.Add("setup_s", setup_s, "s");
    result.Add("peak_rss_mb", rss_mb, "MB");
    result.Add("disk_mb", FileSizeMb(snapshot_path), "MB");
    result.Add("recovery_s", recovery_s, "s");
    return result;
  }

  // --- traced run: an untraced half, then a traced half -----------------
  const double half = options.seconds / 2.0;
  const Phase plain = RunPhase(options, spec, *index, pool.get(), half, false,
                               1, &result);
  StartTrace(kTraceRingEvents / static_cast<size_t>(spec.clients));
  const Phase traced = RunPhase(options, spec, *index, pool.get(), half, true,
                                2, &result);
  const SpanReport spans =
      StopTrace(trace_prefix + ".run.trace.json", {"pprtree/query"});
  const uint64_t ops = spans.Root("pprtree/query").count;
  std::printf("  traced window: %llu complete queries; self time per query:",
              static_cast<unsigned long long>(ops));
  for (const auto& [layer, ns] : spans.self_ns) {
    std::printf(" %s %.0f ns", layer.c_str(), PerOp(ns, ops));
  }
  std::printf("\n");
  const double plain_qps = plain.latency.rate;
  const double traced_qps = traced.latency.rate;
  const double queries = static_cast<double>(traced.queries);

  result.Add("datagen.gen_s", median_of(&SetupTimes::gen), "s");
  result.Add("core.curves_s", median_of(&SetupTimes::curves), "s");
  result.Add("core.distribute_s", median_of(&SetupTimes::distribute), "s");
  result.Add("core.segments_s", median_of(&SetupTimes::segments), "s");
  result.Add("pprtree.build_s", median_of(&SetupTimes::build), "s");
  result.Add("storage.pack_s", median_of(&SetupTimes::pack), "s");
  result.Add("storage.snapshot_open_s", recovery_s, "s");
  result.Add("pprtree.query_self_ns", PerOp(spans.SelfNs("pprtree"), ops),
             "ns");
  result.Add("pprtree.nodes_per_query",
             static_cast<double>(traced.profile.nodes_visited) / queries,
             "count");
  result.Add("pprtree.leaf_entries_per_query",
             static_cast<double>(traced.profile.leaf_entries_scanned) / queries,
             "count");
  result.Add("pprtree.candidates_per_query",
             static_cast<double>(traced.profile.candidates) / queries,
             "count");
  result.Add("pprtree.protocol_misses_per_query",
             static_cast<double>(mmap_protocol_misses) /
                 static_cast<double>(index->pool.size()),
             "count");
  result.Add("storage.hit_ns",
             PerOp(spans.Span("storage/fetch:hit").total_ns, ops), "ns");
  result.Add("storage.miss_ns",
             PerOp(spans.Span("storage/fetch:miss").total_ns, ops), "ns");
  result.Add("storage.ns_per_miss", spans.Span("storage/fetch:miss").MeanNs(),
             "ns");
  result.Add("storage.fetches_per_query",
             static_cast<double>(traced.io.accesses) / queries, "count");
  result.Add("storage.hit_ratio",
             PerOp(static_cast<double>(traced.io.Hits()),
                      traced.io.accesses),
             "ratio");
  result.Add("storage.borrows_per_query",
             static_cast<double>(traced.borrows) / queries, "count");
  result.Add("storage.evictions_per_query",
             static_cast<double>(traced.evictions) / queries, "count");
  result.Add("storage.crc_ns_per_page", CrcNsPerPage(snapshot_path, &result),
             "ns");
  result.Add("trace.overhead_pct", (plain_qps / traced_qps - 1.0) * 100.0,
             "%");
  return result;
}

}  // namespace perfbench
}  // namespace stindex
