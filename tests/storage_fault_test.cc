// Fault-injection tests for the storage stack: every injected I/O error
// must surface as a Status or a CHECK naming the offending page id —
// never as silent corruption. FaultInjectingBackend wraps a
// MemoryPageBackend, so the faults are deterministic and the tests run
// without touching the filesystem.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pprtree/ppr_tree.h"
#include "rstar/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/fault_backend.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/page_codec.h"
#include "storage/shared_buffer_pool.h"
#include "util/random.h"

namespace stindex {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// One uint64 payload per page; enough to detect corruption and identity.
class TestPage : public Page {
 public:
  explicit TestPage(uint64_t value) : value_(value) {}
  uint64_t value() const { return value_; }

 private:
  uint64_t value_;
};

class TestCodec : public PageCodec {
 public:
  void Encode(const Page& page, uint8_t* out) const override {
    PageWriter writer = PayloadWriter(out);
    writer.Write<uint64_t>(static_cast<const TestPage&>(page).value());
    SealPage(out, PageKind::kTest);
  }

  Result<std::unique_ptr<Page>> Decode(const uint8_t* page,
                                       PageId id) const override {
    Result<PageReader> payload = OpenPagePayload(page, PageKind::kTest, id);
    if (!payload.ok()) return payload.status();
    PageReader reader = payload.value();
    uint64_t value = 0;
    if (!reader.Read(&value)) {
      return Status::InvalidArgument("page " + std::to_string(id) +
                                     ": short test page");
    }
    return Result<std::unique_ptr<Page>>(std::make_unique<TestPage>(value));
  }
};

// Seals a TestPage with `value` into slot `id` of the wrapped backend.
void WriteTestPage(PageBackend* backend, PageId id, uint64_t value) {
  uint8_t buffer[kPageSize];
  TestCodec().Encode(TestPage(value), buffer);
  ASSERT_TRUE(backend->Write(id, buffer).ok());
}

std::unique_ptr<FaultInjectingBackend> MakeFaulty(
    FaultInjectingBackend::Faults faults, int pages = 3) {
  auto memory = std::make_unique<MemoryPageBackend>();
  for (int i = 0; i < pages; ++i) {
    WriteTestPage(memory.get(), static_cast<PageId>(i),
                  1000 + static_cast<uint64_t>(i));
  }
  return std::make_unique<FaultInjectingBackend>(std::move(memory), faults);
}

TEST(FaultBackendTest, FailedReadSurfacesStatusWithPageId) {
  FaultInjectingBackend::Faults faults;
  faults.fail_read_at = 1;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  uint8_t buffer[kPageSize];
  const Status status = backend->Read(2, buffer);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(status.message(), "page 2")) << status.ToString();
  EXPECT_TRUE(Contains(status.message(), "injected read failure"));
}

TEST(FaultBackendTest, FaultsDisarmAfterFiring) {
  FaultInjectingBackend::Faults faults;
  faults.fail_read_at = 1;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  uint8_t buffer[kPageSize];
  EXPECT_FALSE(backend->Read(0, buffer).ok());
  EXPECT_TRUE(backend->Read(0, buffer).ok());  // the fault fired once
  EXPECT_EQ(backend->reads(), 2u);
}

TEST(FaultBackendTest, ShortReadSurfacesStatusWithPageId) {
  FaultInjectingBackend::Faults faults;
  faults.short_read_at = 2;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  uint8_t buffer[kPageSize];
  EXPECT_TRUE(backend->Read(0, buffer).ok());
  const Status status = backend->Read(1, buffer);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(status.message(), "page 1")) << status.ToString();
  EXPECT_TRUE(Contains(status.message(), "short read"));
}

TEST(FaultBackendTest, FailedWriteSurfacesStatusWithPageId) {
  FaultInjectingBackend::Faults faults;
  faults.fail_write_at = 1;
  auto backend = std::make_unique<FaultInjectingBackend>(
      std::make_unique<MemoryPageBackend>(), faults);
  uint8_t buffer[kPageSize];
  TestCodec().Encode(TestPage(7), buffer);
  const Status status = backend->Write(4, buffer);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(status.message(), "page 4")) << status.ToString();
  EXPECT_TRUE(Contains(status.message(), "injected write failure"));
  // Nothing was written, so the slot stays unallocated.
  EXPECT_FALSE(backend->IsAllocated(4));
}

TEST(FaultBackendTest, BitFlipIsSilentAtBackendLevel) {
  // The corrupting fault reports success — only the checksum layer can
  // catch it, which the page-cache death test below proves it does.
  FaultInjectingBackend::Faults faults;
  faults.corrupt_read_at = 1;
  faults.corrupt_bit = (kPageEnvelopeBytes + 3) * 8 + 5;  // payload byte
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  uint8_t corrupt[kPageSize];
  uint8_t clean[kPageSize];
  ASSERT_TRUE(backend->Read(0, corrupt).ok());
  ASSERT_TRUE(backend->Read(0, clean).ok());
  EXPECT_NE(std::memcmp(corrupt, clean, kPageSize), 0);
  EXPECT_FALSE(OpenPagePayload(corrupt, PageKind::kTest, 0).ok());
  EXPECT_TRUE(OpenPagePayload(clean, PageKind::kTest, 0).ok());
}

// A one-shard page cache over `backend`, read through a Session: the
// query path every index uses.
class FaultyCache {
 public:
  explicit FaultyCache(PageBackend* backend) {
    SharedBufferPoolOptions options;
    options.capacity = 4;
    options.shards = 1;
    pool_ = std::make_unique<SharedBufferPool>(backend, &codec_, options);
    session_ = std::make_unique<SharedBufferPool::Session>(pool_.get());
  }

  PageRef Fetch(PageId id) { return session_->FetchPinned(id); }

 private:
  TestCodec codec_;
  std::unique_ptr<SharedBufferPool> pool_;
  std::unique_ptr<SharedBufferPool::Session> session_;
};

TEST(FaultPoolDeathTest, FetchDiesOnInjectedReadFailureNamingPage) {
  FaultInjectingBackend::Faults faults;
  faults.fail_read_at = 1;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  FaultyCache cache(backend.get());
  EXPECT_DEATH(cache.Fetch(2), "read of page 2 failed.*injected read failure");
}

TEST(FaultPoolDeathTest, FetchDiesOnShortReadNamingPage) {
  FaultInjectingBackend::Faults faults;
  faults.short_read_at = 1;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  FaultyCache cache(backend.get());
  EXPECT_DEATH(cache.Fetch(1), "read of page 1 failed.*short read");
}

TEST(FaultPoolDeathTest, FetchDiesOnBitFlipViaChecksum) {
  // The backend reports success for the corrupted page; the codec's
  // envelope checksum must reject it before a garbage node is served.
  FaultInjectingBackend::Faults faults;
  faults.corrupt_read_at = 1;
  faults.corrupt_bit = (kPageEnvelopeBytes + 1) * 8;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  FaultyCache cache(backend.get());
  EXPECT_DEATH(cache.Fetch(0), "decode of page 0 failed.*checksum mismatch");
}

// --- Write faults while an index persists its nodes ---------------------

// A small PPR-tree with a few dozen nodes.
std::unique_ptr<PprTree> SmallPprTree() {
  Rng rng(5);
  std::vector<SegmentRecord> records;
  for (size_t i = 0; i < 400; ++i) {
    SegmentRecord record;
    record.object = static_cast<ObjectId>(i);
    const Time start = rng.UniformInt(0, 150);
    const double x = rng.UniformDouble(0, 0.95);
    const double y = rng.UniformDouble(0, 0.95);
    record.box.rect = Rect2D(x, y, x + 0.03, y + 0.03);
    record.box.interval = TimeInterval(start, start + rng.UniformInt(1, 40));
    records.push_back(record);
  }
  return BuildPprTree(records);
}

std::vector<PprDataId> Snapshot(const PprTree& tree, Time t) {
  std::vector<PprDataId> out;
  tree.SnapshotQuery(Rect2D(0.2, 0.2, 0.7, 0.7), t, &out);
  std::sort(out.begin(), out.end());
  return out;
}

bool SamePage(const PageBackend& a, const PageBackend& b, PageId id) {
  uint8_t left[kPageSize];
  uint8_t right[kPageSize];
  return a.Read(id, left).ok() && b.Read(id, right).ok() &&
         std::memcmp(left, right, kPageSize) == 0;
}

// Protocol misses of one serial snapshot query (the paper's metric).
uint64_t SnapshotMisses(const PprTree& tree, Time t) {
  tree.ResetQueryState();
  Snapshot(tree, t);
  return tree.stats().misses;
}

// A snapshot path under a directory that does not exist: the pack fails
// when it creates the file, after the in-memory id remap.
std::string MissingDirSnapshotPath(const std::string& name) {
  return ::testing::TempDir() + "/missing_dir_" + name + "/tree.stsnap";
}

TEST(FaultPersistTest, PprPackSnapshotFailureKeepsTree) {
  std::unique_ptr<PprTree> tree = SmallPprTree();
  ASSERT_GT(tree->PageCount(), 5u);
  const std::vector<PprDataId> before = Snapshot(*tree, 80);
  const uint64_t misses = SnapshotMisses(*tree, 80);
  const Status status = tree->PackSnapshot(MissingDirSnapshotPath("ppr"));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(status.message(), "missing_dir_ppr"))
      << status.ToString();
  // No abort, and the tree is still whole in memory: not packed, same
  // answers and misses, valid structure, and a second pack succeeds.
  EXPECT_EQ(tree->backend(), nullptr);
  EXPECT_EQ(Snapshot(*tree, 80), before);
  EXPECT_EQ(SnapshotMisses(*tree, 80), misses);
  tree->CheckInvariants();
  ASSERT_TRUE(
      tree->PackSnapshot(::testing::TempDir() + "/fault_ppr_retry.stsnap")
          .ok());
  ASSERT_NE(tree->backend(), nullptr);
  EXPECT_EQ(Snapshot(*tree, 80), before);
  EXPECT_EQ(SnapshotMisses(*tree, 80), misses);
}

TEST(FaultPersistTest, RStarPackSnapshotFailureKeepsTree) {
  RStarTree tree;
  Rng rng(9);
  std::vector<Box3D> boxes;
  for (DataId i = 0; i < 600; ++i) {
    const double x = rng.UniformDouble(0, 0.9);
    const double y = rng.UniformDouble(0, 0.9);
    const double t = rng.UniformDouble(0, 0.9);
    boxes.emplace_back(x, y, t, x + 0.05, y + 0.05, t + 0.05);
    tree.Insert(boxes.back(), i);
  }
  // Deletes free nodes, so the failed pack's remap compacts holes.
  for (DataId i = 0; i < 600; i += 3) {
    ASSERT_TRUE(tree.Delete(boxes[i], i));
  }
  ASSERT_GT(tree.PageCount(), 4u);
  const Box3D query(0.2, 0.2, 0.2, 0.7, 0.7, 0.7);
  const auto search = [&tree, &query] {
    std::vector<DataId> out;
    tree.Search(query, &out);
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<DataId> before = search();
  ASSERT_FALSE(before.empty());
  const Status status = tree.PackSnapshot(MissingDirSnapshotPath("rstar"));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(status.message(), "missing_dir_rstar"))
      << status.ToString();
  EXPECT_EQ(tree.backend(), nullptr);
  EXPECT_EQ(search(), before);
  tree.CheckInvariants();
  ASSERT_TRUE(
      tree.PackSnapshot(::testing::TempDir() + "/fault_rstar_retry.stsnap")
          .ok());
  ASSERT_NE(tree.backend(), nullptr);
  EXPECT_EQ(search(), before);
}

TEST(FaultPersistTest, CheckpointWriteFailureNamesSlotAndRetrySucceeds) {
  std::unique_ptr<PprTree> tree = SmallPprTree();
  std::vector<PageId> slots(tree->NodeCount());
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<PageId>(100 + i);
  }
  FaultInjectingBackend::Faults faults;
  faults.fail_write_at = 2;
  FaultInjectingBackend backend(std::make_unique<MemoryPageBackend>(), faults);
  const Status status = tree->PersistNodesForCheckpoint(&backend, slots);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(status.message(), "write of page 101"))
      << status.ToString();
  EXPECT_TRUE(Contains(status.message(), "injected write failure"));
  EXPECT_TRUE(backend.IsAllocated(100));
  EXPECT_FALSE(backend.IsAllocated(101));

  // The fault disarmed: the retry writes every slot, each byte-identical
  // to a fault-free run.
  ASSERT_TRUE(tree->PersistNodesForCheckpoint(&backend, slots).ok());
  EXPECT_EQ(backend.writes(), 2 + slots.size());
  MemoryPageBackend reference;
  ASSERT_TRUE(tree->PersistNodesForCheckpoint(&reference, slots).ok());
  for (const PageId slot : slots) {
    EXPECT_TRUE(SamePage(backend, reference, slot)) << "page " << slot;
  }
}

TEST(FaultPersistTest, CheckpointWriteFaultLeavesOtherPagesIntact) {
  std::unique_ptr<PprTree> tree = SmallPprTree();
  const size_t nodes = tree->NodeCount();
  // The previous checkpoint's pages occupy slots [0, nodes); the new one
  // shadow-writes into [nodes, 2 * nodes).
  std::vector<PageId> old_slots(nodes);
  std::vector<PageId> new_slots(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    old_slots[i] = static_cast<PageId>(i);
    new_slots[i] = static_cast<PageId>(nodes + i);
  }
  MemoryPageBackend reference;
  ASSERT_TRUE(tree->PersistNodesForCheckpoint(&reference, old_slots).ok());
  ASSERT_TRUE(tree->PersistNodesForCheckpoint(&reference, new_slots).ok());

  FaultInjectingBackend::Faults faults;
  faults.fail_write_at = nodes + 3;  // the third shadow write
  FaultInjectingBackend backend(std::make_unique<MemoryPageBackend>(), faults);
  ASSERT_TRUE(tree->PersistNodesForCheckpoint(&backend, old_slots).ok());
  const Status status = tree->PersistNodesForCheckpoint(&backend, new_slots);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(status.message(),
                       "write of page " + std::to_string(new_slots[2])))
      << status.ToString();
  // Every old page, and every shadow page written before the fault, is
  // byte-identical to the fault-free run; nothing after it was written.
  for (const PageId id : old_slots) {
    EXPECT_TRUE(SamePage(backend, reference, id)) << "page " << id;
  }
  EXPECT_TRUE(SamePage(backend, reference, new_slots[0]));
  EXPECT_TRUE(SamePage(backend, reference, new_slots[1]));
  for (size_t i = 2; i < nodes; ++i) {
    EXPECT_FALSE(backend.IsAllocated(new_slots[i])) << "slot " << i;
  }
}

TEST(FaultBackendTest, CrashTriggerFiresAtNthMutationAndLatches) {
  FaultInjectingBackend::Faults faults;
  faults.crash_at_write = 3;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  uint8_t buffer[kPageSize];
  TestCodec().Encode(TestPage(7), buffer);

  // Write, Sync and Free share the mutation counter.
  EXPECT_TRUE(backend->Write(5, buffer).ok());  // mutation 1
  EXPECT_TRUE(backend->Sync().ok());            // mutation 2
  EXPECT_FALSE(backend->crashed());
  const Status crash = backend->Free(0);        // mutation 3: the crash
  EXPECT_EQ(crash.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(crash.message(), "injected crash point (mutation 3)"))
      << crash.ToString();
  EXPECT_TRUE(backend->crashed());
  EXPECT_EQ(backend->mutations(), 3u);

  // The backend is dead: every later call fails, reads included, and the
  // mutation counter stops advancing.
  EXPECT_EQ(backend->Write(6, buffer).code(), StatusCode::kIoError);
  EXPECT_EQ(backend->Sync().code(), StatusCode::kIoError);
  EXPECT_EQ(backend->Free(1).code(), StatusCode::kIoError);
  const Status read = backend->Read(0, buffer);
  EXPECT_EQ(read.code(), StatusCode::kIoError);
  EXPECT_TRUE(Contains(read.message(), "after injected crash"))
      << read.ToString();
  EXPECT_EQ(backend->mutations(), 3u);

  // State from before the crash survives in the wrapped backend (it is
  // what a recovery re-open would see); the doomed free never happened.
  EXPECT_TRUE(backend->wrapped()->IsAllocated(5));
  EXPECT_TRUE(backend->wrapped()->IsAllocated(0));
}

TEST(FaultBackendTest, CrashOnFirstMutationKillsEverything) {
  FaultInjectingBackend::Faults faults;
  faults.crash_at_write = 1;
  std::unique_ptr<FaultInjectingBackend> backend = MakeFaulty(faults);
  EXPECT_EQ(backend->Sync().code(), StatusCode::kIoError);
  EXPECT_TRUE(backend->crashed());
  uint8_t buffer[kPageSize];
  EXPECT_EQ(backend->Read(0, buffer).code(), StatusCode::kIoError);
}

TEST(FaultBackendTest, AbandonedFileKeepsOnlySyncedState) {
  const std::string path =
      ::testing::TempDir() + "/fault_abandon.stpages";
  Result<std::unique_ptr<FilePageBackend>> created =
      FilePageBackend::Create(path);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<FilePageBackend> file = std::move(created).value();

  uint8_t buffer[kPageSize];
  TestCodec().Encode(TestPage(1), buffer);
  ASSERT_TRUE(file->Write(0, buffer).ok());
  ASSERT_TRUE(file->Sync().ok());  // page 0 and its bitmap are durable
  TestCodec().Encode(TestPage(2), buffer);
  ASSERT_TRUE(file->Write(1, buffer).ok());  // never synced

  // Abandon closes the fd without the destructor's sync backstop — the
  // file now holds exactly what a killed process left behind — and every
  // later call must fail instead of quietly reviving the backend.
  file->Abandon();
  EXPECT_EQ(file->Write(2, buffer).code(), StatusCode::kIoError);
  EXPECT_EQ(file->Sync().code(), StatusCode::kIoError);
  EXPECT_EQ(file->Read(0, buffer).code(), StatusCode::kIoError);
  file.reset();

  // Reopen: the synced page is visible; the unsynced write is not
  // allocated because its bitmap update died with the process.
  Result<std::unique_ptr<FilePageBackend>> reopened =
      FilePageBackend::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->IsAllocated(0));
  EXPECT_FALSE(reopened.value()->IsAllocated(1));
  ASSERT_TRUE(reopened.value()->Read(0, buffer).ok());
  Result<std::unique_ptr<Page>> decoded = TestCodec().Decode(buffer, 0);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(static_cast<const TestPage*>(decoded.value().get())->value(), 1u);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace stindex
