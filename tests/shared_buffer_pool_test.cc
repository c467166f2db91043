#include "storage/shared_buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "storage/page_store.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace stindex {
namespace {

// Same trivial page/codec pair as storage_test.cc.
class TestPage : public Page {
 public:
  explicit TestPage(int tag) : tag_(tag) {}
  int tag() const { return tag_; }

 private:
  int tag_;
};

class TestCodec : public PageCodec {
 public:
  void Encode(const Page& page, uint8_t* out) const override {
    PageWriter writer = PayloadWriter(out);
    writer.Write<int32_t>(static_cast<const TestPage&>(page).tag());
    SealPage(out, PageKind::kTest);
  }

  Result<std::unique_ptr<Page>> Decode(const uint8_t* page,
                                       PageId id) const override {
    Result<PageReader> payload = OpenPagePayload(page, PageKind::kTest, id);
    if (!payload.ok()) return payload.status();
    PageReader reader = payload.value();
    int32_t tag = 0;
    if (!reader.Read(&tag)) {
      return Status::InvalidArgument("page " + std::to_string(id) +
                                     ": short test page");
    }
    return Result<std::unique_ptr<Page>>(std::make_unique<TestPage>(tag));
  }
};

void FillStore(PageStore* store, size_t pages) {
  for (size_t i = 0; i < pages; ++i) {
    store->Allocate(std::make_unique<TestPage>(static_cast<int>(i)));
  }
}

// The paper's buffer in its simplest form: an LRU of page ids with a
// fixed number of frames. Access() returns whether the id missed.
class LruModel {
 public:
  explicit LruModel(size_t capacity) : capacity_(capacity) {}

  bool Access(PageId id) {
    for (auto it = ids_.begin(); it != ids_.end(); ++it) {
      if (*it == id) {
        ids_.splice(ids_.begin(), ids_, it);
        return false;
      }
    }
    if (ids_.size() == capacity_) ids_.pop_back();
    ids_.push_front(id);
    return true;
  }

  void Reset() { ids_.clear(); }

 private:
  size_t capacity_;
  std::list<PageId> ids_;  // MRU at front
};

TEST(SharedBufferPoolTest, StoreModeHitsAndMisses) {
  PageStore store;
  FillStore(&store, 8);
  SharedBufferPoolOptions options;
  options.capacity = 4;
  options.shards = 1;
  SharedBufferPool pool(&store, options);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.shard_count(), 1u);

  bool missed = false;
  const Page* page = pool.Pin(0, &missed);
  EXPECT_TRUE(missed);
  EXPECT_EQ(static_cast<const TestPage*>(page)->tag(), 0);
  pool.Unpin(0);

  page = pool.Pin(0, &missed);
  EXPECT_FALSE(missed);  // resident now
  pool.Unpin(0);

  const IoStats stats = pool.AggregateStats();
  EXPECT_EQ(stats.accesses, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(pool.CachedPages(), 1u);
  EXPECT_EQ(pool.PinnedPages(), 0u);
}

TEST(SharedBufferPoolTest, CapacityIsTotalAcrossShards) {
  PageStore store;
  FillStore(&store, 64);
  SharedBufferPoolOptions options;
  options.capacity = 10;
  options.shards = 4;
  SharedBufferPool pool(&store, options);
  EXPECT_EQ(pool.shard_count(), 4u);
  bool missed = false;
  for (PageId id = 0; id < 64; ++id) {
    ASSERT_NE(pool.Pin(id, &missed), nullptr);
    pool.Unpin(id);
  }
  // No shard may hold more than its slice: the whole pool never exceeds
  // the requested total.
  EXPECT_LE(pool.CachedPages(), 10u);
  EXPECT_GT(pool.Evictions(), 0u);
}

// The Session's simulated LRU must reproduce a private LRU of the same
// capacity exactly: same accesses, same misses, for an arbitrary access
// stream with periodic protocol resets.
TEST(SharedBufferPoolTest, SessionProtocolMatchesPrivateLru) {
  constexpr size_t kPages = 40;
  constexpr size_t kCapacity = 10;
  PageStore store;
  FillStore(&store, kPages);

  // One fixed pseudo-random access stream, reset every 50 accesses.
  Rng rng(1234);
  std::vector<PageId> accesses;
  for (size_t i = 0; i < 2000; ++i) {
    accesses.push_back(static_cast<PageId>(
        rng.UniformInt(0, static_cast<int64_t>(kPages) - 1)));
  }

  LruModel reference(kCapacity);
  IoStats reference_total;
  for (size_t i = 0; i < accesses.size(); ++i) {
    if (i % 50 == 0) reference.Reset();
    ++reference_total.accesses;
    if (reference.Access(accesses[i])) ++reference_total.misses;
  }
  // Pinned: what a private 10-frame LRU pool counted for this stream.
  EXPECT_EQ(reference_total.accesses, 2000u);
  EXPECT_EQ(reference_total.misses, 1555u);

  SharedBufferPoolOptions options;
  options.capacity = kCapacity;
  SharedBufferPool pool(&store, options);
  SharedBufferPool::Session session(&pool, kCapacity);
  IoStats session_total;
  for (size_t i = 0; i < accesses.size(); ++i) {
    if (i % 50 == 0) {
      session.ResetCache();
      session_total.accesses += session.stats().accesses;
      session_total.misses += session.stats().misses;
      session.ResetStats();
    }
    const PageRef ref = session.FetchPinned(accesses[i]);
    ASSERT_TRUE(static_cast<bool>(ref));
  }
  session_total.accesses += session.stats().accesses;
  session_total.misses += session.stats().misses;

  EXPECT_EQ(session_total.accesses, reference_total.accesses);
  EXPECT_EQ(session_total.misses, reference_total.misses);
  // The shared pool underneath saw every access but deduplicated the
  // loads: real misses cannot exceed the protocol misses.
  EXPECT_EQ(pool.AggregateStats().accesses, accesses.size());
  EXPECT_LE(pool.AggregateStats().misses, session_total.misses);
}

// Satellite: partitioning one query stream across N worker sessions of
// one shared pool must sum to the serial baseline's miss count exactly,
// for every N — the measurement-protocol invariant the old per-worker
// pools only satisfied by accident of their private capacity.
TEST(SharedBufferPoolTest, MissAggregateInvariantAcrossThreadCounts) {
  constexpr size_t kPages = 60;
  constexpr size_t kCapacity = 10;
  constexpr size_t kQueries = 120;
  constexpr size_t kAccessesPerQuery = 30;
  PageStore store;
  FillStore(&store, kPages);

  // Queries are deterministic functions of their index, so any partition
  // replays the same per-query access sequences.
  const auto query_page = [](size_t query, size_t step) {
    Rng rng(Rng::DeriveSeed(777, query));
    PageId id = 0;
    for (size_t s = 0; s <= step; ++s) {
      id = static_cast<PageId>(
          rng.UniformInt(0, static_cast<int64_t>(kPages) - 1));
    }
    return id;
  };

  // Serial baseline through a private LRU, reset per query.
  LruModel reference(kCapacity);
  uint64_t baseline_misses = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    reference.Reset();
    for (size_t s = 0; s < kAccessesPerQuery; ++s) {
      if (reference.Access(query_page(q, s))) ++baseline_misses;
    }
  }
  // Pinned: what a private 10-frame LRU pool counted for these queries.
  EXPECT_EQ(baseline_misses, 3103u);

  for (const int threads : {1, 2, 7, 16}) {
    SharedBufferPoolOptions options;
    options.capacity = kCapacity;
    SharedBufferPool pool(&store, options);
    const size_t chunks =
        ParallelChunks(threads, kQueries);
    std::vector<uint64_t> chunk_misses(chunks, 0);
    ParallelFor(threads, kQueries,
                [&](size_t chunk, size_t begin, size_t end) {
                  SharedBufferPool::Session session(&pool, kCapacity);
                  for (size_t q = begin; q < end; ++q) {
                    session.ResetCache();
                    session.ResetStats();
                    for (size_t s = 0; s < kAccessesPerQuery; ++s) {
                      const PageRef ref =
                          session.FetchPinned(query_page(q, s));
                      ASSERT_TRUE(static_cast<bool>(ref));
                    }
                    chunk_misses[chunk] += session.stats().misses;
                  }
                });
    uint64_t total = 0;
    for (const uint64_t misses : chunk_misses) total += misses;
    EXPECT_EQ(total, baseline_misses) << "threads=" << threads;
    EXPECT_LE(pool.CachedPages(), kCapacity);
  }
}

TEST(SharedBufferPoolTest, PinOverflowGrowsTransientlyAndTrimsBack) {
  PageStore store;
  FillStore(&store, 8);
  SharedBufferPoolOptions options;
  options.capacity = 2;
  options.shards = 1;
  SharedBufferPool pool(&store, options);

  bool missed = false;
  pool.Pin(0, &missed);
  pool.Pin(1, &missed);
  pool.Pin(2, &missed);  // every frame pinned: a transient third frame
  EXPECT_EQ(pool.CachedPages(), 3u);
  pool.Unpin(0);
  // Releasing a pin trims clean overage straight back under the slice —
  // the overflow must not linger until the next miss happens to land in
  // this shard.
  EXPECT_LE(pool.CachedPages(), 2u);
  pool.Unpin(1);
  pool.Unpin(2);
  pool.Pin(3, &missed);
  pool.Unpin(3);
  EXPECT_LE(pool.CachedPages(), 2u);
}

TEST(SharedBufferPoolDeathTest, UnpinOfNonResidentPageAborts) {
  PageStore store;
  FillStore(&store, 2);
  SharedBufferPoolOptions options;
  options.capacity = 2;
  SharedBufferPool pool(&store, options);
  EXPECT_DEATH(pool.Unpin(1), "non-resident");
}

TEST(SharedBufferPoolTest, PublishStatsDoesNotDoubleCount) {
  PageStore store;
  FillStore(&store, 4);
  MetricRegistry& registry = MetricRegistry::Global();
  const std::string scope = "test.shared_publish";
  const uint64_t accesses_before =
      registry.GetCounter("bufferpool." + scope + ".accesses")->Value();
  const uint64_t misses_before =
      registry.GetCounter("bufferpool." + scope + ".misses")->Value();
  {
    SharedBufferPoolOptions options;
    options.capacity = 2;
    options.metric_scope = scope;
    SharedBufferPool pool(&store, options);
    bool missed = false;
    pool.Pin(0, &missed);
    pool.Unpin(0);
    pool.PublishStats();  // mid-run publish, e.g. a stats endpoint
    pool.Pin(0, &missed);
    pool.Unpin(0);
    pool.PublishStats();
    pool.PublishStats();  // idempotent with no new traffic
    pool.Pin(1, &missed);
    pool.Unpin(1);
    // Destruction publishes only the remainder.
  }
  EXPECT_EQ(
      registry.GetCounter("bufferpool." + scope + ".accesses")->Value() -
          accesses_before,
      3u);
  EXPECT_EQ(registry.GetCounter("bufferpool." + scope + ".misses")->Value() -
                misses_before,
            2u);
}

// TSan-targeted stress: >= 8 threads hammer one backend-mode pool with
// session reads, direct pins held across other pins, and the telemetry
// readers a stats endpoint runs concurrently. The assertions are
// deliberately loose — the point is the data-race-free execution under
// ThreadSanitizer and the self-consistency of the counters afterwards.
TEST(SharedBufferPoolTest, ConcurrentStressIsRaceFree) {
  constexpr PageId kPages = 64;
  MemoryPageBackend backend;
  TestCodec codec;
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_TRUE(EncodeAndWrite(codec, TestPage(static_cast<int>(id)), id,
                               &backend)
                    .ok());
  }

  SharedBufferPoolOptions options;
  options.capacity = 12;
  options.shards = 4;
  options.metric_scope = "test.shared_stress";
  SharedBufferPool pool(&backend, &codec, options);

  constexpr int kThreads = 10;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(Rng::DeriveSeed(42, static_cast<uint64_t>(t)));
      SharedBufferPool::Session session(&pool, t % 2 == 0 ? 0 : 10);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int64_t dice = rng.UniformInt(0, 99);
        const PageId id = static_cast<PageId>(
            rng.UniformInt(0, static_cast<int64_t>(kPages) - 1));
        if (dice < 80) {
          // Read a shared page; the decoded tag must match its id.
          const PageRef ref = session.FetchPinned(id);
          ASSERT_TRUE(static_cast<bool>(ref));
          ASSERT_EQ(static_cast<const TestPage*>(ref.get())->tag(),
                    static_cast<int>(id));
        } else if (dice < 95) {
          // Hold a direct pin across a session read: pin pile-ups on one
          // shard overflow it transiently.
          bool missed = false;
          const Page* held = pool.Pin(id, &missed);
          const PageRef ref = session.FetchPinned((id + 1) % kPages);
          ASSERT_EQ(static_cast<const TestPage*>(held)->tag(),
                    static_cast<int>(id));
          pool.Unpin(id);
        } else {
          pool.PublishStats();
          for (const auto& shard : pool.ShardOccupancies()) {
            ASSERT_LE(shard.pinned, shard.cached);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(pool.PinnedPages(), 0u);
  EXPECT_LE(pool.CachedPages(), pool.capacity());
  const IoStats stats = pool.AggregateStats();
  EXPECT_GE(stats.accesses, stats.misses);
  EXPECT_GT(stats.accesses, 0u);
}

}  // namespace
}  // namespace stindex
