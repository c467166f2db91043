#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "storage/page_store.h"
#include "storage/shared_buffer_pool.h"

namespace stindex {
namespace {

// A trivial page type carrying a tag so tests can verify identity.
class TestPage : public Page {
 public:
  explicit TestPage(int tag) : tag_(tag) {}
  int tag() const { return tag_; }

 private:
  int tag_;
};

// Serializes TestPage for the backend-mode page-cache tests below.
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

TEST(PageStoreTest, AllocateAndGet) {
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  const PageId b = store.Allocate(std::make_unique<TestPage>(2));
  EXPECT_NE(a, b);
  EXPECT_EQ(static_cast<TestPage*>(store.Get(a))->tag(), 1);
  EXPECT_EQ(static_cast<TestPage*>(store.Get(b))->tag(), 2);
  EXPECT_EQ(store.PageCount(), 2u);
}

TEST(PageStoreTest, FreeReducesLiveCount) {
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  store.Allocate(std::make_unique<TestPage>(2));
  EXPECT_TRUE(store.IsLive(a));
  store.Free(a);
  EXPECT_FALSE(store.IsLive(a));
  EXPECT_EQ(store.PageCount(), 1u);
  EXPECT_EQ(store.AllocatedCount(), 2u);
}

TEST(PageStoreTest, PeakPageCountTracksHighWaterMark) {
  PageStore store;
  PageId pages[3];
  for (int i = 0; i < 3; ++i) {
    pages[i] = store.Allocate(std::make_unique<TestPage>(i));
  }
  EXPECT_EQ(store.PeakPageCount(), 3u);
  store.Free(pages[0]);
  store.Free(pages[1]);
  EXPECT_EQ(store.PageCount(), 1u);
  EXPECT_EQ(store.PeakPageCount(), 3u);  // the peak never decays
  store.Allocate(std::make_unique<TestPage>(9));
  EXPECT_EQ(store.PageCount(), 2u);
  EXPECT_EQ(store.PeakPageCount(), 3u);
}

TEST(PageStoreTest, FreedSlotsAreReusedLowestFirst) {
  // Regression for the slot leak: Free used to strand the slot forever,
  // so insert/delete workloads grew AllocatedCount() without bound.
  PageStore store;
  PageId pages[4];
  for (int i = 0; i < 4; ++i) {
    pages[i] = store.Allocate(std::make_unique<TestPage>(i));
  }
  EXPECT_EQ(store.AllocatedCount(), 4u);
  store.Free(pages[2]);
  store.Free(pages[0]);
  // Reuse picks the lowest free id first — deterministic for a given
  // operation sequence.
  EXPECT_EQ(store.Allocate(std::make_unique<TestPage>(10)), pages[0]);
  EXPECT_EQ(store.Allocate(std::make_unique<TestPage>(12)), pages[2]);
  EXPECT_EQ(store.AllocatedCount(), 4u);  // the id space did not grow
  EXPECT_EQ(store.PageCount(), 4u);
  EXPECT_EQ(store.TotalAllocations(), 6u);
  // A store with no free slots grows again.
  store.Allocate(std::make_unique<TestPage>(13));
  EXPECT_EQ(store.AllocatedCount(), 5u);
}

TEST(PageStoreTest, AllocatedCountStaysFlatUnderChurn) {
  PageStore store;
  std::vector<PageId> live;
  for (int i = 0; i < 8; ++i) {
    live.push_back(store.Allocate(std::make_unique<TestPage>(i)));
  }
  for (int round = 0; round < 50; ++round) {
    store.Free(live.back());
    live.pop_back();
    live.push_back(store.Allocate(std::make_unique<TestPage>(round)));
  }
  EXPECT_EQ(store.AllocatedCount(), 8u);
  EXPECT_EQ(store.PageCount(), 8u);
  EXPECT_EQ(store.TotalAllocations(), 58u);
}

// The page cache is one SharedBufferPool; with a single shard it is one
// exact LRU over the whole capacity. Pass-through Sessions report the
// pool's own hit/miss outcome for every access.
std::unique_ptr<SharedBufferPool> OneShardPool(const PageStore* store,
                                               size_t capacity) {
  SharedBufferPoolOptions options;
  options.capacity = capacity;
  options.shards = 1;
  return std::make_unique<SharedBufferPool>(store, options);
}

int TagOf(const PageRef& ref) {
  return static_cast<const TestPage*>(ref.get())->tag();
}

TEST(PageCacheTest, ReusedSlotIsNeverServedStale) {
  // A page cached in the pool, freed in the store, and replaced by a new
  // allocation under the same id must be served as the NEW page.
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  auto pool = OneShardPool(&store, 4);
  SharedBufferPool::Session session(pool.get());
  EXPECT_EQ(TagOf(session.FetchPinned(a)), 1);
  store.Free(a);
  const PageId b = store.Allocate(std::make_unique<TestPage>(2));
  ASSERT_EQ(a, b);  // the slot was reused
  EXPECT_EQ(TagOf(session.FetchPinned(a)), 2);
  EXPECT_EQ(session.stats().misses, 1u);  // served from the resident frame
}

TEST(PageCacheDeathTest, FetchOfFreedPageAborts) {
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  auto pool = OneShardPool(&store, 4);
  SharedBufferPool::Session session(pool.get());
  store.Free(a);
  EXPECT_DEATH(session.FetchPinned(a), "freed or out-of-range");
}

TEST(PageCacheDeathTest, FetchOfOutOfRangePageAborts) {
  PageStore store;
  store.Allocate(std::make_unique<TestPage>(1));
  auto pool = OneShardPool(&store, 4);
  SharedBufferPool::Session session(pool.get());
  EXPECT_DEATH(session.FetchPinned(static_cast<PageId>(999)),
               "freed or out-of-range");
  EXPECT_DEATH(session.FetchPinned(kInvalidPage), "freed or out-of-range");
}

TEST(PageCacheDeathTest, StaleCacheEntryForFreedPageAborts) {
  // Even a page already resident in the LRU cache must not be served
  // once the store has freed it.
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  auto pool = OneShardPool(&store, 4);
  SharedBufferPool::Session session(pool.get());
  session.FetchPinned(a);  // now cached
  store.Free(a);
  EXPECT_DEATH(session.FetchPinned(a), "freed or out-of-range");
}

TEST(PageCacheTest, FirstAccessIsMiss) {
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  auto pool = OneShardPool(&store, 4);
  SharedBufferPool::Session session(pool.get());
  session.FetchPinned(a);
  EXPECT_EQ(session.stats().accesses, 1u);
  EXPECT_EQ(session.stats().misses, 1u);
  session.FetchPinned(a);
  EXPECT_EQ(session.stats().accesses, 2u);
  EXPECT_EQ(session.stats().misses, 1u);
  EXPECT_EQ(session.stats().Hits(), 1u);
}

TEST(PageCacheTest, EvictsLeastRecentlyUsed) {
  PageStore store;
  PageId pages[3];
  for (int i = 0; i < 3; ++i) {
    pages[i] = store.Allocate(std::make_unique<TestPage>(i));
  }
  auto pool = OneShardPool(&store, 2);
  SharedBufferPool::Session session(pool.get());
  session.FetchPinned(pages[0]);  // miss, cache {0}
  session.FetchPinned(pages[1]);  // miss, cache {1, 0}
  session.FetchPinned(pages[0]);  // hit, cache {0, 1}
  session.FetchPinned(pages[2]);  // miss, evicts 1, cache {2, 0}
  session.FetchPinned(pages[0]);  // hit
  session.FetchPinned(pages[1]);  // miss again (was evicted)
  EXPECT_EQ(session.stats().misses, 4u);
  EXPECT_EQ(session.stats().accesses, 6u);
}

TEST(PageCacheTest, ProtocolResetCacheForcesMisses) {
  // The paper's protocol resets the 10-page LRU before each query; a
  // protocol Session simulates that LRU, so ResetCache makes the next
  // access a miss even though the page is still resident in the pool.
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  auto pool = OneShardPool(&store, 4);
  SharedBufferPool::Session session(pool.get(), /*protocol_pages=*/4);
  session.FetchPinned(a);
  session.ResetCache();
  session.FetchPinned(a);
  EXPECT_EQ(session.stats().misses, 2u);
  EXPECT_EQ(pool->AggregateStats().misses, 1u);  // one real load
}

TEST(PageCacheTest, ResetStatsKeepsCache) {
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  auto pool = OneShardPool(&store, 4);
  SharedBufferPool::Session session(pool.get());
  session.FetchPinned(a);
  session.ResetStats();
  session.FetchPinned(a);  // still cached: a hit
  EXPECT_EQ(session.stats().accesses, 1u);
  EXPECT_EQ(session.stats().misses, 0u);
}

TEST(PageCacheTest, LifetimeStatsSurviveResetStats) {
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  auto pool = OneShardPool(&store, 4);
  SharedBufferPool::Session session(pool.get());
  session.FetchPinned(a);
  session.ResetStats();
  session.FetchPinned(a);
  EXPECT_EQ(session.stats().accesses, 1u);
  EXPECT_EQ(session.lifetime_stats().accesses, 2u);
  EXPECT_EQ(session.lifetime_stats().misses, 1u);
}

TEST(PageCacheTest, CapacityOneThrashes) {
  PageStore store;
  PageId pages[2];
  for (int i = 0; i < 2; ++i) {
    pages[i] = store.Allocate(std::make_unique<TestPage>(i));
  }
  auto pool = OneShardPool(&store, 1);
  SharedBufferPool::Session session(pool.get());
  for (int round = 0; round < 5; ++round) {
    session.FetchPinned(pages[0]);
    session.FetchPinned(pages[1]);
  }
  EXPECT_EQ(session.stats().misses, 10u);
}

TEST(PageCacheTest, LargeCapacityHoldsWorkingSet) {
  PageStore store;
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) {
    pages.push_back(store.Allocate(std::make_unique<TestPage>(i)));
  }
  auto pool = OneShardPool(&store, 10);
  SharedBufferPool::Session session(pool.get());
  for (int round = 0; round < 3; ++round) {
    for (PageId id : pages) session.FetchPinned(id);
  }
  EXPECT_EQ(session.stats().misses, 8u);  // only cold misses
  EXPECT_EQ(pool->CachedPages(), 8u);
}

TEST(PageCacheTest, EvictionCounter) {
  PageStore store;
  PageId pages[3];
  for (int i = 0; i < 3; ++i) {
    pages[i] = store.Allocate(std::make_unique<TestPage>(i));
  }
  auto pool = OneShardPool(&store, 2);
  SharedBufferPool::Session session(pool.get(), /*protocol_pages=*/2);
  session.FetchPinned(pages[0]);
  session.FetchPinned(pages[1]);
  EXPECT_EQ(pool->Evictions(), 0u);
  session.FetchPinned(pages[2]);  // evicts pages[0]
  EXPECT_EQ(pool->Evictions(), 1u);
  session.ResetCache();  // restarting the protocol LRU evicts nothing
  EXPECT_EQ(pool->Evictions(), 1u);
}

TEST(PageCacheTest, PinBlocksEviction) {
  PageStore store;
  PageId pages[3];
  for (int i = 0; i < 3; ++i) {
    pages[i] = store.Allocate(std::make_unique<TestPage>(i));
  }
  auto pool = OneShardPool(&store, 2);
  SharedBufferPool::Session session(pool.get());
  PageRef pinned = session.FetchPinned(pages[0]);  // LRU position after...
  session.FetchPinned(pages[1]);                   // ...this access
  EXPECT_EQ(pool->PinnedPages(), 1u);
  // Eviction must skip the pinned LRU frame and take pages[1] instead.
  session.FetchPinned(pages[2]);
  session.FetchPinned(pages[0]);  // hit: still resident
  EXPECT_EQ(session.stats().misses, 3u);
  EXPECT_EQ(session.stats().accesses, 4u);
  pinned.Release();
  EXPECT_EQ(pool->PinnedPages(), 0u);
  // pages[0] became MRU with the hit above, so the next miss evicts
  // pages[2]; the formerly pinned frame stays resident on merit.
  session.FetchPinned(pages[1]);  // miss, evicts pages[2]
  session.FetchPinned(pages[0]);  // hit
  EXPECT_EQ(session.stats().misses, 4u);
}

TEST(PageCacheTest, AllPinnedOverflowsThenTrimsBack) {
  // Every frame pinned: the next miss grows the pool past its capacity
  // instead of failing, and releasing the pins trims it back.
  PageStore store;
  PageId pages[3];
  for (int i = 0; i < 3; ++i) {
    pages[i] = store.Allocate(std::make_unique<TestPage>(i));
  }
  auto pool = OneShardPool(&store, 2);
  SharedBufferPool::Session session(pool.get());
  PageRef a = session.FetchPinned(pages[0]);
  PageRef b = session.FetchPinned(pages[1]);
  PageRef c = session.FetchPinned(pages[2]);
  EXPECT_EQ(TagOf(c), 2);
  EXPECT_EQ(pool->CachedPages(), 3u);
  a.Release();
  EXPECT_EQ(pool->CachedPages(), 2u);
  b.Release();
  c.Release();
  EXPECT_EQ(pool->CachedPages(), 2u);
  EXPECT_EQ(pool->PinnedPages(), 0u);
}

TEST(PageCacheTest, PageRefMoveTransfersPin) {
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  auto pool = OneShardPool(&store, 2);
  SharedBufferPool::Session session(pool.get());
  PageRef ref = session.FetchPinned(a);
  EXPECT_EQ(pool->PinnedPages(), 1u);
  PageRef moved = std::move(ref);
  EXPECT_EQ(pool->PinnedPages(), 1u);  // exactly one pin, now in `moved`
  EXPECT_TRUE(static_cast<bool>(moved));
  EXPECT_FALSE(static_cast<bool>(ref));  // NOLINT(bugprone-use-after-move)
  moved.Release();
  EXPECT_EQ(pool->PinnedPages(), 0u);
}

TEST(PageCacheTest, PageRefMoveResetsSourceCompletely) {
  // Regression: the move operations used to leave a stale id_ in the
  // moved-from ref, so it still claimed the old PageId while holding no
  // pin.
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  const PageId b = store.Allocate(std::make_unique<TestPage>(2));
  auto pool = OneShardPool(&store, 2);
  SharedBufferPool::Session session(pool.get());

  PageRef ref = session.FetchPinned(a);
  PageRef moved = std::move(ref);
  EXPECT_EQ(ref.id(), kInvalidPage);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(ref.get(), nullptr);
  EXPECT_FALSE(static_cast<bool>(ref));

  // Move assignment must reset the source the same way (and release the
  // destination's old pin exactly once).
  PageRef target = session.FetchPinned(b);
  EXPECT_EQ(pool->PinnedPages(), 2u);
  target = std::move(moved);
  EXPECT_EQ(pool->PinnedPages(), 1u);
  EXPECT_EQ(target.id(), a);
  EXPECT_EQ(moved.id(), kInvalidPage);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.get(), nullptr);
}

TEST(PageCacheTest, PageRefReleaseIsIdempotentAndMovedFromSafe) {
  PageStore store;
  const PageId a = store.Allocate(std::make_unique<TestPage>(1));
  auto pool = OneShardPool(&store, 2);
  SharedBufferPool::Session session(pool.get());

  PageRef ref = session.FetchPinned(a);
  PageRef moved = std::move(ref);
  // Releasing a moved-from ref must not unpin anything (the pin moved).
  ref.Release();  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(pool->PinnedPages(), 1u);

  moved.Release();
  EXPECT_EQ(pool->PinnedPages(), 0u);
  EXPECT_EQ(moved.id(), kInvalidPage);
  EXPECT_EQ(moved.get(), nullptr);
  // Double release is a no-op, not a double unpin.
  moved.Release();
  EXPECT_EQ(pool->PinnedPages(), 0u);
}

// --- Backend mode: pages written by EncodeAndWrite, read through the pool ---

TEST(PageCacheBackendTest, EncodeAndWriteThenFetchRoundTrip) {
  MemoryPageBackend backend;
  TestCodec codec;
  ASSERT_TRUE(EncodeAndWrite(codec, TestPage(10), 0, &backend).ok());
  ASSERT_TRUE(EncodeAndWrite(codec, TestPage(11), 1, &backend).ok());
  EXPECT_EQ(backend.LivePageCount(), 2u);
  SharedBufferPoolOptions options;
  options.capacity = 4;
  options.shards = 1;
  SharedBufferPool pool(&backend, &codec, options);
  EXPECT_TRUE(pool.backend_mode());
  SharedBufferPool::Session reader(&pool);
  EXPECT_EQ(TagOf(reader.FetchPinned(0)), 10);
  EXPECT_EQ(TagOf(reader.FetchPinned(1)), 11);
  EXPECT_EQ(reader.stats().misses, 2u);
  reader.FetchPinned(0);  // resident: a hit, no backend read
  EXPECT_EQ(reader.stats().misses, 2u);
}

TEST(PageCacheBackendTest, MissCountsMatchStoreModeExactly) {
  // The shared-LRU property the differential suite relies on, in
  // miniature: the same access pattern costs the same misses in both
  // modes.
  PageStore store;
  MemoryPageBackend backend;
  TestCodec codec;
  PageId ids[3];
  for (int i = 0; i < 3; ++i) {
    ids[i] = store.Allocate(std::make_unique<TestPage>(i));
    ASSERT_TRUE(EncodeAndWrite(codec, TestPage(i), ids[i], &backend).ok());
  }
  SharedBufferPoolOptions options;
  options.capacity = 2;
  options.shards = 1;
  SharedBufferPool store_pool(&store, options);
  SharedBufferPool backend_pool(&backend, &codec, options);
  SharedBufferPool::Session store_session(&store_pool);
  SharedBufferPool::Session backend_session(&backend_pool);
  const PageId pattern[] = {ids[0], ids[1], ids[0], ids[2],
                            ids[0], ids[1], ids[2]};
  for (const PageId id : pattern) {
    EXPECT_EQ(TagOf(store_session.FetchPinned(id)),
              TagOf(backend_session.FetchPinned(id)));
  }
  EXPECT_EQ(store_session.stats().accesses, backend_session.stats().accesses);
  EXPECT_EQ(store_session.stats().misses, backend_session.stats().misses);
  EXPECT_EQ(store_pool.Evictions(), backend_pool.Evictions());
}

TEST(PageCacheBackendDeathTest, FetchOfUnwrittenPageAborts) {
  MemoryPageBackend backend;
  TestCodec codec;
  ASSERT_TRUE(EncodeAndWrite(codec, TestPage(1), 0, &backend).ok());
  SharedBufferPoolOptions options;
  options.capacity = 4;
  SharedBufferPool pool(&backend, &codec, options);
  SharedBufferPool::Session session(&pool);
  EXPECT_DEATH(session.FetchPinned(9), "freed or out-of-range");
}

}  // namespace
}  // namespace stindex
