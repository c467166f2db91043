// Persistence of a PPR-tree through the formats that remain: the
// checkpoint page images a live tier journals (one sealed node page per
// node plus the root-journal meta), and the page/snapshot files whose
// absence must read as NotFound rather than as an I/O failure. Packed
// snapshots are covered in snapshot_backend_test and
// backend_differential_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "pprtree/ppr_tree.h"
#include "storage/file_backend.h"
#include "storage/page_backend.h"
#include "storage/snapshot_file.h"
#include "util/bytes.h"
#include "util/random.h"

namespace stindex {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<SegmentRecord> RandomRecords(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<SegmentRecord> records;
  for (size_t i = 0; i < count; ++i) {
    SegmentRecord record;
    record.object = static_cast<ObjectId>(i);
    const Time life = rng.UniformInt(1, 40);
    const Time start = rng.UniformInt(0, 200 - life);
    const double x = rng.UniformDouble(0, 0.95);
    const double y = rng.UniformDouble(0, 0.95);
    record.box.rect = Rect2D(x, y, x + rng.UniformDouble(0.005, 0.05),
                             y + rng.UniformDouble(0.005, 0.05));
    record.box.interval = TimeInterval(start, start + life);
    records.push_back(record);
  }
  return records;
}

// Round-trips `tree` through its checkpoint form: node pages written to
// a page backend, then installed with the meta into a fresh tree.
std::unique_ptr<PprTree> CheckpointRoundTrip(const PprTree& tree) {
  MemoryPageBackend backend;
  std::vector<PageId> slots(tree.NodeCount());
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<PageId>(i);
  }
  EXPECT_TRUE(tree.PersistNodesForCheckpoint(&backend, slots).ok());
  ByteSink meta;
  tree.EncodeCheckpointMeta(&meta);

  auto restored = std::make_unique<PprTree>();
  ByteSource source(meta.bytes().data(), meta.size());
  EXPECT_TRUE(restored->DecodeCheckpointMeta(&source).ok());
  for (const PageId slot : slots) {
    uint8_t page[kPageSize];
    EXPECT_TRUE(backend.Read(slot, page).ok());
    EXPECT_TRUE(restored->InstallCheckpointNode(slot, page).ok());
  }
  return restored;
}

TEST(PprPersistenceTest, CheckpointRoundTripAnswersIdentically) {
  const std::vector<SegmentRecord> records = RandomRecords(11, 600);
  std::unique_ptr<PprTree> original = BuildPprTree(records);
  std::unique_ptr<PprTree> restored = CheckpointRoundTrip(*original);
  restored->CheckInvariants();
  EXPECT_EQ(restored->Size(), original->Size());
  EXPECT_EQ(restored->PageCount(), original->PageCount());
  EXPECT_EQ(restored->NumRoots(), original->NumRoots());
  EXPECT_EQ(restored->AliveCount(), original->AliveCount());

  Rng rng(12);
  std::vector<PprDataId> a, b;
  for (int q = 0; q < 40; ++q) {
    const double x = rng.UniformDouble(0, 0.8);
    const double y = rng.UniformDouble(0, 0.8);
    const Rect2D area(x, y, x + 0.15, y + 0.15);
    const Time t = rng.UniformInt(0, 199);
    original->ResetQueryState();
    restored->ResetQueryState();
    original->SnapshotQuery(area, t, &a);
    restored->SnapshotQuery(area, t, &b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    // Same node ids, same traversal: the same protocol misses.
    EXPECT_EQ(restored->stats().misses, original->stats().misses);
    const TimeInterval range(t, std::min<Time>(200, t + 15));
    original->IntervalQuery(area, range, &a);
    restored->IntervalQuery(area, range, &b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(PprPersistenceTest, RestoredTreeAcceptsFurtherUpdates) {
  PprTree tree;
  for (PprDataId i = 0; i < 120; ++i) {
    tree.Insert(Rect2D(0.01 * static_cast<double>(i % 50), 0.1,
                       0.01 * static_cast<double>(i % 50) + 0.02, 0.15),
                static_cast<Time>(i / 4), i);
  }
  std::unique_ptr<PprTree> restored = CheckpointRoundTrip(tree);

  // Continue the evolution where the original left off.
  restored->Insert(Rect2D(0.5, 0.5, 0.55, 0.55), 100, 1000);
  restored->Delete(0, 101);
  restored->CheckInvariants();
  std::vector<PprDataId> results;
  restored->SnapshotQuery(Rect2D(0.45, 0.45, 0.6, 0.6), 150, &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 1000u);
}

TEST(PprPersistenceTest, MissingSnapshotIsNotFound) {
  Result<std::unique_ptr<SnapshotFile>> file =
      SnapshotFile::Open(TempPath("absent.stsnap"));
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kNotFound)
      << file.status().ToString();
  Result<std::unique_ptr<MmapSnapshotBackend>> backend =
      MmapSnapshotBackend::Open(TempPath("absent.stsnap"));
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kNotFound);
}

TEST(PprPersistenceTest, MissingPageFileIsNotFound) {
  Result<std::unique_ptr<FilePageBackend>> backend =
      FilePageBackend::Open(TempPath("absent.stpages"));
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kNotFound)
      << backend.status().ToString();
}

}  // namespace
}  // namespace stindex
