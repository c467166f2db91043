#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "storage/crc32_internal.h"
#include "storage/file_backend.h"
#include "storage/page_codec.h"

namespace stindex {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(PageCodecTest, RoundTripMixedTypes) {
  std::array<uint8_t, kPageSize> page{};
  PageWriter writer(page.data(), kPageSize);
  writer.Write<int32_t>(-7);
  writer.Write<uint64_t>(0xdeadbeefcafeULL);
  writer.Write(3.14159);
  const char blob[5] = {'a', 'b', 'c', 'd', 'e'};
  writer.WriteBytes(blob, sizeof(blob));
  EXPECT_EQ(writer.used(), 4u + 8u + 8u + 5u);

  PageReader reader(page.data(), kPageSize);
  int32_t i = 0;
  uint64_t u = 0;
  double d = 0.0;
  char out[5];
  EXPECT_TRUE(reader.Read(&i));
  EXPECT_TRUE(reader.Read(&u));
  EXPECT_TRUE(reader.Read(&d));
  EXPECT_TRUE(reader.ReadBytes(out, sizeof(out)));
  EXPECT_EQ(i, -7);
  EXPECT_EQ(u, 0xdeadbeefcafeULL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_EQ(std::memcmp(out, blob, 5), 0);
}

TEST(PageCodecTest, ReaderStopsAtEnd) {
  std::array<uint8_t, 16> tiny{};
  PageReader reader(tiny.data(), tiny.size());
  uint64_t a = 0, b = 0, c = 0;
  EXPECT_TRUE(reader.Read(&a));
  EXPECT_TRUE(reader.Read(&b));
  EXPECT_FALSE(reader.Read(&c));  // out of bytes
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(PageCodecTest, WriterTracksRemaining) {
  std::array<uint8_t, 32> buffer{};
  PageWriter writer(buffer.data(), buffer.size());
  writer.Write<uint64_t>(1);
  EXPECT_EQ(writer.remaining(), 24u);
  writer.Write<uint64_t>(2);
  writer.Write<uint64_t>(3);
  writer.Write<uint64_t>(4);
  EXPECT_EQ(writer.remaining(), 0u);
}

TEST(PageCodecDeathTest, OverflowAborts) {
  std::array<uint8_t, 8> buffer{};
  PageWriter writer(buffer.data(), buffer.size());
  writer.Write<uint64_t>(1);
  EXPECT_DEATH(writer.Write<uint8_t>(2), "page overflow");
}

TEST(PageCodecTest, NodeFitsInPage) {
  // The serialized PPR node layout: 4 (level) + 8 + 8 (times) + 8 (count)
  // + 50 entries x (32 rect + 16 lifetime + 4 child + 8 data).
  const size_t node_bytes = 4 + 8 + 8 + 8 + 50 * (32 + 16 + 4 + 8);
  EXPECT_LE(node_bytes, kPageSize);
}

// --- Page envelope (checksum / kind / version) ---

std::array<uint8_t, kPageSize> SealedTestPage(uint64_t value) {
  std::array<uint8_t, kPageSize> page{};
  PageWriter writer = PayloadWriter(page.data());
  writer.Write(value);
  SealPage(page.data(), PageKind::kTest);
  return page;
}

TEST(PageEnvelopeTest, SealAndOpenRoundTrip) {
  std::array<uint8_t, kPageSize> page = SealedTestPage(0xfeedface);
  Result<PageReader> payload =
      OpenPagePayload(page.data(), PageKind::kTest, /*id=*/9);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  uint64_t value = 0;
  PageReader reader = payload.value();
  ASSERT_TRUE(reader.Read(&value));
  EXPECT_EQ(value, 0xfeedfaceu);
}

TEST(PageEnvelopeTest, FlippedPayloadByteFailsChecksum) {
  std::array<uint8_t, kPageSize> page = SealedTestPage(1);
  page[kPageEnvelopeBytes + 100] ^= 0x40;  // one bit, deep in the payload
  const Result<PageReader> payload =
      OpenPagePayload(page.data(), PageKind::kTest, /*id=*/7);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(payload.status().message(), "page 7"))
      << payload.status().ToString();
  EXPECT_TRUE(Contains(payload.status().message(), "checksum mismatch"));
}

TEST(PageEnvelopeTest, FlippedChecksumByteFailsChecksum) {
  std::array<uint8_t, kPageSize> page = SealedTestPage(1);
  page[0] ^= 0x01;  // corrupt the stored CRC itself
  EXPECT_FALSE(OpenPagePayload(page.data(), PageKind::kTest, 0).ok());
}

TEST(PageEnvelopeTest, WrongKindRejected) {
  std::array<uint8_t, kPageSize> page = SealedTestPage(1);
  const Result<PageReader> payload =
      OpenPagePayload(page.data(), PageKind::kRStarNode, /*id=*/3);
  ASSERT_FALSE(payload.ok());
  EXPECT_TRUE(Contains(payload.status().message(), "page 3"))
      << payload.status().ToString();
  EXPECT_TRUE(Contains(payload.status().message(), "kind mismatch"));
}

TEST(PageEnvelopeTest, VersionSkewRejected) {
  std::array<uint8_t, kPageSize> page = SealedTestPage(1);
  // Stamp a future codec version and re-seal so only the version check
  // (not the checksum) can reject the page.
  page[6] = 99;
  page[7] = 0;
  const uint32_t crc = Crc32(page.data() + 4, kPageSize - 4);
  page[0] = static_cast<uint8_t>(crc);
  page[1] = static_cast<uint8_t>(crc >> 8);
  page[2] = static_cast<uint8_t>(crc >> 16);
  page[3] = static_cast<uint8_t>(crc >> 24);
  const Result<PageReader> payload =
      OpenPagePayload(page.data(), PageKind::kTest, /*id=*/5);
  ASSERT_FALSE(payload.ok());
  EXPECT_TRUE(Contains(payload.status().message(), "page 5"))
      << payload.status().ToString();
  EXPECT_TRUE(Contains(payload.status().message(), "unsupported codec version"));
}

TEST(PageEnvelopeTest, Crc32MatchesKnownVector) {
  // The standard check value for CRC-32/IEEE over "123456789".
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);
}

TEST(PageEnvelopeTest, SealedPageChecksumIsPinned) {
  // A fixed payload sealed by the byte-at-a-time CRC the format was
  // defined with. Any kernel change that moves these bytes changes the
  // on-disk format.
  std::array<uint8_t, kPageSize> page{};
  PageWriter writer = PayloadWriter(page.data());
  for (uint32_t i = 0; i < 1000; ++i) writer.Write<uint32_t>(i * 2654435761u);
  SealPage(page.data(), PageKind::kTest);
  const uint32_t stored = static_cast<uint32_t>(page[0]) |
                          (static_cast<uint32_t>(page[1]) << 8) |
                          (static_cast<uint32_t>(page[2]) << 16) |
                          (static_cast<uint32_t>(page[3]) << 24);
  EXPECT_EQ(stored, 0xaf05718eu);
  EXPECT_EQ(Crc32(page.data(), kPageSize), 0x7ed397e6u);
}

// --- CRC-32 kernels against a byte-at-a-time reference ---

// The textbook table-driven CRC-32 (reflected 0xEDB88320, init and final
// XOR 0xFFFFFFFF): one table lookup per byte.
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

using Crc32Kernel = uint32_t (*)(const uint8_t*, size_t);

// Every offset 0-15 (so 16-byte loads straddle every alignment) times
// every length 0-700 (every tail length, zero to ten 64-byte blocks),
// plus page-sized and odd large inputs.
void ExpectMatchesReference(Crc32Kernel kernel) {
  std::vector<uint8_t> buffer(8191 + 16);
  uint32_t state = 0x12345678u;
  for (uint8_t& byte : buffer) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<uint8_t>(state >> 24);
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    const uint8_t* data = buffer.data() + offset;
    for (size_t size = 0; size <= 700; ++size) {
      ASSERT_EQ(kernel(data, size), ReferenceCrc32(data, size))
          << "offset " << offset << " size " << size;
    }
    for (size_t size : {size_t{4092}, size_t{4096}, size_t{8191}}) {
      ASSERT_EQ(kernel(data, size), ReferenceCrc32(data, size))
          << "offset " << offset << " size " << size;
    }
  }
}

// The standard check value. Nine bytes is under the fast kernel's 64-byte
// minimum, so through Crc32Clmul this checks its hand-off to the portable
// kernel; the reference sweep above covers its folding.
void ExpectCheckValue(Crc32Kernel kernel) {
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(kernel(data, sizeof(data)), 0xCBF43926u);
}

TEST(Crc32KernelTest, PortableMatchesReference) {
  ExpectMatchesReference(crc32_internal::Crc32Portable);
}

TEST(Crc32KernelTest, PortableCheckValue) {
  ExpectCheckValue(crc32_internal::Crc32Portable);
}

TEST(Crc32KernelTest, ClmulMatchesReference) {
  if (!crc32_internal::ClmulAvailable()) {
    GTEST_SKIP() << "no PCLMULQDQ/SSE4.1 on this CPU or build";
  }
  ExpectMatchesReference(crc32_internal::Crc32Clmul);
}

TEST(Crc32KernelTest, ClmulCheckValue) {
  if (!crc32_internal::ClmulAvailable()) {
    GTEST_SKIP() << "no PCLMULQDQ/SSE4.1 on this CPU or build";
  }
  ExpectCheckValue(crc32_internal::Crc32Clmul);
}

TEST(Crc32KernelTest, DispatchedMatchesReference) {
  ExpectMatchesReference(Crc32);
}

// --- FilePageBackend open-time validation ---

class FileBackendValidationTest : public ::testing::Test {
 protected:
  // A valid two-page file to corrupt, created fresh per test.
  void SetUp() override {
    path_ = ::testing::TempDir() + "/codec_validation.stpages";
    Result<std::unique_ptr<FilePageBackend>> backend =
        FilePageBackend::Create(path_);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    for (PageId id = 0; id < 2; ++id) {
      const std::array<uint8_t, kPageSize> page = SealedTestPage(id);
      ASSERT_TRUE(backend.value()->Write(id, page.data()).ok());
    }
    ASSERT_TRUE(backend.value()->Sync().ok());
  }

  // Overwrites `count` bytes at `offset` in the page file.
  void Poke(long offset, const void* bytes, size_t count) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, count, f), count);
    ASSERT_EQ(std::fclose(f), 0);
  }

  Status OpenStatus() {
    Result<std::unique_ptr<FilePageBackend>> backend =
        FilePageBackend::Open(path_);
    return backend.ok() ? Status::OK() : backend.status();
  }

  std::string path_;
};

TEST_F(FileBackendValidationTest, RoundTripReopens) {
  const Status status = OpenStatus();
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(FileBackendValidationTest, WrongMagicRejected) {
  const uint64_t garbage = 0x1122334455667788ull;
  Poke(kPageEnvelopeBytes, &garbage, sizeof(garbage));
  const Status status = OpenStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(status.message(), "not a stindex page file"))
      << status.ToString();
}

TEST_F(FileBackendValidationTest, FlippedHeaderByteRejectedByChecksum) {
  // Past the magic, inside the sealed header payload.
  const uint8_t garbage = 0xa5;
  Poke(kPageEnvelopeBytes + 16, &garbage, 1);
  const Status status = OpenStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(status.message(), "corrupt header"))
      << status.ToString();
}

TEST_F(FileBackendValidationTest, VersionSkewRejected) {
  // Rewrite the header with a bumped format version and a valid seal, so
  // the version check itself must fire.
  std::array<uint8_t, kPageSize> header{};
  PageWriter writer = PayloadWriter(header.data());
  writer.Write(kFilePageMagic);
  writer.Write<uint32_t>(kFileFormatVersion + 1);
  writer.Write<uint64_t>(kPageSize);
  writer.Write<uint64_t>(4);  // bitmap_pages
  writer.Write<uint64_t>(2);  // slot_count
  writer.Write<uint64_t>(2);  // live_count
  SealPage(header.data(), PageKind::kFileHeader);
  Poke(0, header.data(), header.size());
  const Status status = OpenStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(status.message(), "unsupported format version"))
      << status.ToString();
}

TEST_F(FileBackendValidationTest, TruncatedFileRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long full = std::ftell(f);
  ASSERT_EQ(std::fclose(f), 0);
  // Chop off the last data page; the header still promises two slots.
  ASSERT_EQ(::truncate(path_.c_str(), full - static_cast<long>(kPageSize)), 0);
  const Status status = OpenStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(status.message(), "truncated page file"))
      << status.ToString();
}

TEST_F(FileBackendValidationTest, FileShorterThanHeaderRejected) {
  ASSERT_EQ(::truncate(path_.c_str(), 100), 0);
  const Status status = OpenStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Contains(status.message(), "truncated page file"))
      << status.ToString();
}

TEST_F(FileBackendValidationTest, CorruptDataPageRejectedAtRead) {
  // Data-page corruption is not an Open error (Open only validates
  // metadata); it must surface when the page is decoded.
  const uint8_t garbage = 0xff;
  Poke(static_cast<long>((1 + 4 + 1) * kPageSize) + 200, &garbage, 1);
  Result<std::unique_ptr<FilePageBackend>> backend =
      FilePageBackend::Open(path_);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  uint8_t buffer[kPageSize];
  ASSERT_TRUE(backend.value()->Read(1, buffer).ok());
  const Result<PageReader> payload =
      OpenPagePayload(buffer, PageKind::kTest, /*id=*/1);
  ASSERT_FALSE(payload.ok());
  EXPECT_TRUE(Contains(payload.status().message(), "checksum mismatch"))
      << payload.status().ToString();
}

}  // namespace
}  // namespace stindex
