// Differential tests for the storage backends: the same seeded dataset
// indexed two ways — the in-memory PageStore and a packed snapshot read
// through pread — must answer every query byte-identically and with
// identical per-query buffer-miss counts (the paper's "disk accesses"
// metric), at every thread count. This pins the property that moving the
// experiments onto real files changes nothing about the reported
// numbers. The page-file backend the live tier journals to is checked
// for reopen fidelity, and a live-ingested tree against a batch build.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/distribute.h"
#include "core/split_pipeline.h"
#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "live/live_tier.h"
#include "pprtree/ppr_tree.h"
#include "rstar/rstar_tree.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/shared_buffer_pool.h"
#include "storage/snapshot_file.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace stindex {
namespace {

constexpr Time kTimeDomain = 1000;

// What one query produced: the answer ids in traversal order plus the
// protocol buffer misses it cost. Equality means "indistinguishable
// runs". `loads` counts the pages its pool actually loaded; it is not
// compared (a shared pool deduplicates loads across queries).
struct QueryOutcome {
  std::vector<uint64_t> results;
  uint64_t misses = 0;
  uint64_t loads = 0;

  bool operator==(const QueryOutcome& other) const {
    return results == other.results && misses == other.misses;
  }
};

std::vector<SegmentRecord> MakeRecords() {
  RandomDatasetConfig config;
  config.num_objects = 300;
  config.seed = 42;
  config.time_domain = kTimeDomain;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const std::vector<VolumeCurve> curves =
      ComputeVolumeCurves(objects, /*k_max=*/16, SplitMethod::kMerge, 1);
  const Distribution dist = DistributeLAGreedy(
      curves, static_cast<int64_t>(objects.size()), 1);
  return BuildSegments(objects, dist.splits, SplitMethod::kMerge, 1);
}

std::vector<STQuery> MakeQueries() {
  QuerySetConfig config = MixedSnapshotSet();
  config.count = 48;
  config.time_domain = kTimeDomain;
  std::vector<STQuery> queries = GenerateQuerySet(config);
  QuerySetConfig ranges = SmallRangeSet();
  ranges.count = 24;
  ranges.time_domain = kTimeDomain;
  for (const STQuery& query : GenerateQuerySet(ranges)) {
    queries.push_back(query);
  }
  return queries;
}

// Packs `tree` into a snapshot served through pread (no mapping), so
// every page the pool loads is one counted backend read.
template <typename Tree>
void PackForPread(Tree* tree, const std::string& name) {
  SnapshotFile::Options options;
  options.force_pread = true;
  const Status status =
      tree->PackSnapshot(::testing::TempDir() + "/" + name + ".stsnap", options);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_FALSE(tree->backend()->file().mapped());
}

// Runs the query set against `tree` with `num_threads` workers, each
// query through a fresh pool and a protocol Session (the paper's 10-page
// LRU, empty at the start of every query).
template <typename RunQuery>
std::vector<QueryOutcome> RunAll(const std::vector<STQuery>& queries,
                                 int num_threads,
                                 const RunQuery& run_query) {
  std::vector<QueryOutcome> outcomes(queries.size());
  ParallelFor(num_threads, queries.size(),
              [&](size_t /*chunk*/, size_t begin, size_t end) {
                for (size_t q = begin; q < end; ++q) {
                  outcomes[q] = run_query(queries[q]);
                }
              });
  return outcomes;
}

std::vector<QueryOutcome> RunPpr(const PprTree& tree,
                                 const std::vector<STQuery>& queries,
                                 int num_threads) {
  return RunAll(queries, num_threads, [&tree](const STQuery& query) {
    // A fresh 10-page pool per query keeps chunks independent, so the
    // outcome vector cannot depend on the partition.
    const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
    SharedBufferPool::Session session(pool.get(), pool->capacity());
    std::vector<PprDataId> results;
    if (query.IsSnapshot()) {
      tree.SnapshotQuery(query.area, query.range.start, &session, &results);
    } else {
      tree.IntervalQuery(query.area, query.range, &session, &results);
    }
    QueryOutcome outcome;
    outcome.results.assign(results.begin(), results.end());
    outcome.misses = session.stats().misses;
    outcome.loads = pool->AggregateStats().misses;
    return outcome;
  });
}

std::vector<QueryOutcome> RunRStar(const RStarTree& tree,
                                   const std::vector<STQuery>& queries,
                                   int num_threads) {
  return RunAll(queries, num_threads, [&tree](const STQuery& query) {
    const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
    SharedBufferPool::Session session(pool.get(), pool->capacity());
    std::vector<DataId> results;
    tree.Search(QueryToBox(query, 0, kTimeDomain), &session, &results);
    QueryOutcome outcome;
    outcome.results.assign(results.begin(), results.end());
    outcome.misses = session.stats().misses;
    outcome.loads = pool->AggregateStats().misses;
    return outcome;
  });
}

// Same protocol through ONE shared pool for the whole run: per-chunk
// Sessions simulate the private 10-page LRU (reset per query) while the
// real frames are shared, so the outcomes must stay byte-identical to
// the pool-per-query baseline at every thread count.
template <typename RunQuery>
std::vector<QueryOutcome> RunShared(const std::vector<STQuery>& queries,
                                    int num_threads, SharedBufferPool* pool,
                                    const RunQuery& run_query) {
  std::vector<QueryOutcome> outcomes(queries.size());
  const size_t protocol_pages = pool->capacity();
  ParallelFor(num_threads, queries.size(),
              [&](size_t /*chunk*/, size_t begin, size_t end) {
                SharedBufferPool::Session session(pool, protocol_pages);
                for (size_t q = begin; q < end; ++q) {
                  session.ResetCache();
                  session.ResetStats();
                  outcomes[q] = run_query(queries[q], &session);
                  outcomes[q].misses = session.stats().misses;
                }
              });
  return outcomes;
}

std::vector<QueryOutcome> RunPprShared(const PprTree& tree,
                                       const std::vector<STQuery>& queries,
                                       int num_threads) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  return RunShared(queries, num_threads, pool.get(),
                   [&tree](const STQuery& query, PageCache* buffer) {
                     std::vector<PprDataId> results;
                     if (query.IsSnapshot()) {
                       tree.SnapshotQuery(query.area, query.range.start,
                                          buffer, &results);
                     } else {
                       tree.IntervalQuery(query.area, query.range, buffer,
                                          &results);
                     }
                     QueryOutcome outcome;
                     outcome.results.assign(results.begin(), results.end());
                     return outcome;
                   });
}

std::vector<QueryOutcome> RunRStarShared(const RStarTree& tree,
                                         const std::vector<STQuery>& queries,
                                         int num_threads) {
  const std::unique_ptr<SharedBufferPool> pool = tree.NewSharedQueryPool();
  return RunShared(queries, num_threads, pool.get(),
                   [&tree](const STQuery& query, PageCache* buffer) {
                     std::vector<DataId> results;
                     tree.Search(QueryToBox(query, 0, kTimeDomain), buffer,
                                 &results);
                     QueryOutcome outcome;
                     outcome.results.assign(results.begin(), results.end());
                     return outcome;
                   });
}

uint64_t PreadReads() {
  return MetricRegistry::Global().GetCounter("backend.mmap.reads")->Value();
}

uint64_t TotalMisses(const std::vector<QueryOutcome>& outcomes) {
  uint64_t total = 0;
  for (const QueryOutcome& outcome : outcomes) total += outcome.misses;
  return total;
}

uint64_t TotalLoads(const std::vector<QueryOutcome>& outcomes) {
  uint64_t total = 0;
  for (const QueryOutcome& outcome : outcomes) total += outcome.loads;
  return total;
}

TEST(BackendDifferentialTest, PprTreeIdenticalAcrossBackendsAndThreads) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();

  const std::unique_ptr<PprTree> store_tree = BuildPprTree(records);
  const std::unique_ptr<PprTree> pread_tree = BuildPprTree(records);
  PackForPread(pread_tree.get(), "diff_ppr");

  const std::vector<QueryOutcome> baseline = RunPpr(*store_tree, queries, 1);
  ASSERT_GT(TotalMisses(baseline), 0u);

  const uint64_t reads_before = PreadReads();
  for (const int threads : {1, 2, 7}) {
    EXPECT_EQ(RunPpr(*store_tree, queries, threads), baseline)
        << "store backend, threads=" << threads;
    EXPECT_EQ(RunPpr(*pread_tree, queries, threads), baseline)
        << "pread snapshot, threads=" << threads;
  }
  // The snapshot runs really hit the disk: every page load was a pread,
  // and the store-mode pools loaded exactly the same pages.
  EXPECT_EQ(PreadReads() - reads_before, 3 * TotalLoads(baseline));
}

TEST(BackendDifferentialTest, PprSharedPoolMatchesPrivateBaseline) {
  // The tentpole invariant: answers AND aggregate protocol miss counts
  // through one shared pool are byte-identical to the pool-per-query
  // baseline at every thread count, while the real reads underneath are
  // deduplicated pool-wide.
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();

  const std::unique_ptr<PprTree> store_tree = BuildPprTree(records);
  const std::unique_ptr<PprTree> pread_tree = BuildPprTree(records);
  PackForPread(pread_tree.get(), "diff_ppr_shared");

  const std::vector<QueryOutcome> baseline = RunPpr(*store_tree, queries, 1);
  ASSERT_GT(TotalMisses(baseline), 0u);

  for (const int threads : {1, 2, 7, 16}) {
    EXPECT_EQ(RunPprShared(*store_tree, queries, threads), baseline)
        << "store backend, threads=" << threads;
    const uint64_t reads_before = PreadReads();
    EXPECT_EQ(RunPprShared(*pread_tree, queries, threads), baseline)
        << "pread snapshot, threads=" << threads;
    // Shared residency: the run really read the file, but never more
    // than the protocol misses (shared frames only deduplicate).
    const uint64_t reads = PreadReads() - reads_before;
    EXPECT_GT(reads, 0u) << "threads=" << threads;
    EXPECT_LE(reads, TotalMisses(baseline)) << "threads=" << threads;
  }
}

TEST(BackendDifferentialTest, RStarTreeIdenticalAcrossBackendsAndThreads) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);

  const auto build = [&boxes] {
    auto tree = std::make_unique<RStarTree>();
    for (size_t i = 0; i < boxes.size(); ++i) {
      tree->Insert(boxes[i], static_cast<DataId>(i));
    }
    return tree;
  };
  const std::unique_ptr<RStarTree> store_tree = build();
  const std::unique_ptr<RStarTree> pread_tree = build();
  PackForPread(pread_tree.get(), "diff_rstar");

  const std::vector<QueryOutcome> baseline = RunRStar(*store_tree, queries, 1);
  ASSERT_GT(TotalMisses(baseline), 0u);

  const uint64_t reads_before = PreadReads();
  for (const int threads : {1, 2, 7}) {
    EXPECT_EQ(RunRStar(*store_tree, queries, threads), baseline)
        << "store backend, threads=" << threads;
    EXPECT_EQ(RunRStar(*pread_tree, queries, threads), baseline)
        << "pread snapshot, threads=" << threads;
  }
  EXPECT_EQ(PreadReads() - reads_before, 3 * TotalLoads(baseline));
}

TEST(BackendDifferentialTest, RStarSharedPoolMatchesPrivateBaseline) {
  const std::vector<SegmentRecord> records = MakeRecords();
  const std::vector<STQuery> queries = MakeQueries();
  const std::vector<Box3D> boxes = SegmentsToBoxes(records, 0, kTimeDomain);

  const auto build = [&boxes] {
    auto tree = std::make_unique<RStarTree>();
    for (size_t i = 0; i < boxes.size(); ++i) {
      tree->Insert(boxes[i], static_cast<DataId>(i));
    }
    return tree;
  };
  const std::unique_ptr<RStarTree> store_tree = build();
  const std::unique_ptr<RStarTree> pread_tree = build();
  PackForPread(pread_tree.get(), "diff_rstar_shared");

  const std::vector<QueryOutcome> baseline = RunRStar(*store_tree, queries, 1);
  ASSERT_GT(TotalMisses(baseline), 0u);

  for (const int threads : {1, 2, 7, 16}) {
    EXPECT_EQ(RunRStarShared(*store_tree, queries, threads), baseline)
        << "store backend, threads=" << threads;
    const uint64_t reads_before = PreadReads();
    EXPECT_EQ(RunRStarShared(*pread_tree, queries, threads), baseline)
        << "pread snapshot, threads=" << threads;
    const uint64_t reads = PreadReads() - reads_before;
    EXPECT_GT(reads, 0u) << "threads=" << threads;
    EXPECT_LE(reads, TotalMisses(baseline)) << "threads=" << threads;
  }
}

TEST(BackendDifferentialTest, FileBackendSurvivesReopen) {
  // Write a PPR-tree's node pages straight into a page file — one
  // EncodeAndWrite per node, the checkpoint path — at sparse slots, free
  // a few, then reopen the file: the slot map and every page's bytes
  // must survive, identical to the in-memory reference backend.
  const std::unique_ptr<PprTree> tree = BuildPprTree(MakeRecords());
  std::vector<PageId> slots(tree->NodeCount());
  ASSERT_GT(slots.size(), 4u);
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<PageId>(2 * i + 1);
  }
  MemoryPageBackend reference;
  ASSERT_TRUE(tree->PersistNodesForCheckpoint(&reference, slots).ok());
  const std::string path = ::testing::TempDir() + "/diff_reopen.stpages";
  {
    Result<std::unique_ptr<FilePageBackend>> created =
        FilePageBackend::Create(path);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    FilePageBackend& file = *created.value();
    ASSERT_TRUE(tree->PersistNodesForCheckpoint(&file, slots).ok());
    for (size_t i = 0; i + 1 < slots.size(); i += 4) {
      ASSERT_TRUE(file.Free(slots[i]).ok());
      ASSERT_TRUE(reference.Free(slots[i]).ok());
    }
    ASSERT_TRUE(file.Sync().ok());
  }  // closes the file

  Result<std::unique_ptr<FilePageBackend>> reopened =
      FilePageBackend::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->LivePageCount(), reference.LivePageCount());
  ASSERT_EQ(reopened.value()->SlotCount(), reference.SlotCount());
  for (PageId id = 0; id < reference.SlotCount(); ++id) {
    ASSERT_EQ(reopened.value()->IsAllocated(id), reference.IsAllocated(id))
        << "page " << id;
    if (!reference.IsAllocated(id)) continue;
    uint8_t expected[kPageSize];
    uint8_t buffer[kPageSize];
    ASSERT_TRUE(reference.Read(id, expected).ok());
    ASSERT_TRUE(reopened.value()->Read(id, buffer).ok());
    EXPECT_EQ(std::memcmp(buffer, expected, kPageSize), 0) << "page " << id;
  }
}

// The live-ingestion differential (the Figure 17/18 protocol run through
// the live tier): streaming a dataset through LiveIndex -> WAL ->
// MigrationPipeline must leave a PPR-tree *byte-identical* to batch-
// building one from the very segments the migration produced — same
// answers AND same per-query miss counts, at every thread count. This
// pins the pipeline's ordering claim: watermark-gated event application
// replays exactly the (time, deletes-first, id) sequence BuildPprTree
// uses.
TEST(BackendDifferentialTest, LiveIngestedPprMatchesBatchBuild) {
  RandomDatasetConfig config;
  config.num_objects = 300;
  config.seed = 42;
  config.time_domain = kTimeDomain;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  const std::vector<STQuery> queries = MakeQueries();

  LiveTierOptions options;
  options.index.capacity = 24;
  options.index.buffer = 4000;
  Result<std::unique_ptr<LiveTier>> tier =
      LiveTier::Open(options, std::make_unique<MemoryPageBackend>());
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();

  const std::vector<LiveObservation> stream = MakeObservationStream(objects);
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(tier.value()->Apply(stream[i]).ok());
    if ((i + 1) % 64 == 0) {
      ASSERT_TRUE(tier.value()->Commit().ok());
    }
  }
  ASSERT_TRUE(tier.value()->Finish().ok());

  const std::vector<SegmentRecord>& segments =
      tier.value()->migrated_segments();
  ASSERT_GT(segments.size(), objects.size());
  const std::unique_ptr<PprTree> batch = BuildPprTree(segments);

  // Identical structure, not just identical answers.
  EXPECT_EQ(tier.value()->historical().PageCount(), batch->PageCount());
  EXPECT_EQ(tier.value()->historical().NumRoots(), batch->NumRoots());

  const std::vector<QueryOutcome> baseline = RunPpr(*batch, queries, 1);
  ASSERT_GT(TotalMisses(baseline), 0u);
  for (const int threads : {1, 2, 7}) {
    EXPECT_EQ(RunPpr(tier.value()->historical(), queries, threads), baseline)
        << "live-ingested tree, threads=" << threads;
  }

  // And the tiered query facade agrees with the batch tree at object
  // granularity.
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<ObjectId> want;
    for (const uint64_t id : baseline[q].results) {
      want.push_back(segments[id].object);
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    std::vector<ObjectId> got;
    tier.value()->IntervalQuery(queries[q].area, queries[q].range, &got);
    EXPECT_EQ(got, want) << "query " << q;
  }
}

}  // namespace
}  // namespace stindex
