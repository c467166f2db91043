#include "live/checkpoint.h"

#include <algorithm>
#include <string>

#include "storage/page_codec.h"
#include "util/check.h"

namespace stindex {
namespace {

// kCheckpointPage payload: a chain link plus its slice of the metadata
// byte stream.
//   u64 checkpoint_seq   (guards against mixing chains)
//   u32 page_index       (0-based position in the chain)
//   u32 next_slot        (kInvalidPage on the last page)
//   u32 byte_count
//   bytes...
constexpr size_t kMetaPageHeaderBytes =
    sizeof(uint64_t) + 3 * sizeof(uint32_t);
constexpr size_t kMetaBytesPerPage = kPagePayloadBytes - kMetaPageHeaderBytes;

}  // namespace

CheckpointHeader ReadLatestCheckpointHeader(const PageBackend& backend) {
  CheckpointHeader best;
  uint8_t page[kPageSize];
  for (PageId slot = 0; slot < kWalFirstDataSlot; ++slot) {
    if (static_cast<size_t>(slot) >= backend.SlotCount() ||
        !backend.IsAllocated(slot)) {
      continue;
    }
    if (!backend.Read(slot, page).ok()) continue;
    Result<PageReader> payload =
        OpenPagePayload(page, PageKind::kCheckpointHeader, slot);
    if (!payload.ok()) continue;  // torn or foreign: the other slot decides
    PageReader reader = payload.value();
    CheckpointHeader header;
    if (!reader.Read(&header.checkpoint_seq) ||
        !reader.Read(&header.wal_start_seq) || !reader.Read(&header.meta_head) ||
        !reader.Read(&header.meta_pages) || !reader.Read(&header.meta_bytes)) {
      continue;
    }
    if (header.checkpoint_seq > best.checkpoint_seq) best = header;
  }
  return best;
}

Status WriteCheckpointHeader(PageBackend* backend,
                             const CheckpointHeader& header) {
  STINDEX_CHECK(header.checkpoint_seq > 0);
  const PageId slot = static_cast<PageId>(header.checkpoint_seq % 2);
  uint8_t page[kPageSize];
  PageWriter writer = PayloadWriter(page);
  writer.Write(header.checkpoint_seq);
  writer.Write(header.wal_start_seq);
  writer.Write(header.meta_head);
  writer.Write(header.meta_pages);
  writer.Write(header.meta_bytes);
  SealPage(page, PageKind::kCheckpointHeader);
  return backend->Write(slot, page);
}

Status WriteCheckpointMeta(PageBackend* backend, WalSlotAllocator* allocator,
                           uint64_t checkpoint_seq,
                           const std::vector<uint8_t>& bytes,
                           CheckpointHeader* header,
                           std::vector<PageId>* slots) {
  const size_t pages =
      bytes.empty() ? 1 : (bytes.size() + kMetaBytesPerPage - 1) /
                              kMetaBytesPerPage;
  std::vector<PageId> chain(pages);
  for (size_t i = 0; i < pages; ++i) chain[i] = allocator->Acquire();

  uint8_t page[kPageSize];
  size_t offset = 0;
  for (size_t i = 0; i < pages; ++i) {
    const size_t count = std::min(kMetaBytesPerPage, bytes.size() - offset);
    PageWriter writer = PayloadWriter(page);
    writer.Write(checkpoint_seq);
    writer.Write(static_cast<uint32_t>(i));
    writer.Write(i + 1 < pages ? chain[i + 1] : kInvalidPage);
    writer.Write(static_cast<uint32_t>(count));
    writer.WriteBytes(bytes.data() + offset, count);
    SealPage(page, PageKind::kCheckpointPage);
    Status status = backend->Write(chain[i], page);
    if (!status.ok()) return status;
    offset += count;
  }
  STINDEX_CHECK(offset == bytes.size());

  header->meta_head = chain[0];
  header->meta_pages = static_cast<uint32_t>(pages);
  header->meta_bytes = bytes.size();
  slots->insert(slots->end(), chain.begin(), chain.end());
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadCheckpointMeta(const PageBackend& backend,
                                                const CheckpointHeader& header,
                                                std::vector<PageId>* slots) {
  // The chain cannot hold more than meta_pages full pages; a larger size
  // is a corrupt header, not an allocation size.
  if (header.meta_bytes >
      static_cast<uint64_t>(header.meta_pages) * kMetaBytesPerPage) {
    return Status::InvalidArgument(
        "checkpoint " + std::to_string(header.checkpoint_seq) +
        ": header says " + std::to_string(header.meta_bytes) +
        " metadata bytes in " + std::to_string(header.meta_pages) + " pages");
  }
  std::vector<uint8_t> bytes;
  bytes.reserve(header.meta_bytes);
  uint8_t page[kPageSize];
  PageId slot = header.meta_head;
  for (uint32_t i = 0; i < header.meta_pages; ++i) {
    if (slot == kInvalidPage || static_cast<size_t>(slot) >= backend.SlotCount() ||
        !backend.IsAllocated(slot)) {
      return Status::InvalidArgument(
          "checkpoint " + std::to_string(header.checkpoint_seq) +
          ": metadata chain broken at page " + std::to_string(i));
    }
    Status status = backend.Read(slot, page);
    if (!status.ok()) return status;
    Result<PageReader> payload =
        OpenPagePayload(page, PageKind::kCheckpointPage, slot);
    if (!payload.ok()) return payload.status();
    PageReader reader = payload.value();
    uint64_t seq = 0;
    uint32_t index = 0;
    PageId next = kInvalidPage;
    uint32_t count = 0;
    if (!reader.Read(&seq) || !reader.Read(&index) || !reader.Read(&next) ||
        !reader.Read(&count) || seq != header.checkpoint_seq || index != i ||
        count > reader.remaining()) {
      return Status::InvalidArgument(
          "checkpoint " + std::to_string(header.checkpoint_seq) +
          ": corrupt metadata page " + std::to_string(slot));
    }
    const size_t offset = bytes.size();
    bytes.resize(offset + count);
    if (!reader.ReadBytes(bytes.data() + offset, count)) {
      return Status::InvalidArgument(
          "checkpoint " + std::to_string(header.checkpoint_seq) +
          ": truncated metadata page " + std::to_string(slot));
    }
    slots->push_back(slot);
    slot = next;
  }
  if (bytes.size() != header.meta_bytes) {
    return Status::InvalidArgument(
        "checkpoint " + std::to_string(header.checkpoint_seq) +
        ": metadata is " + std::to_string(bytes.size()) + " bytes, header says " +
        std::to_string(header.meta_bytes));
  }
  return bytes;
}

}  // namespace stindex
