#include "storage/page_backend.h"

#include <cstring>

namespace stindex {

Status EncodeAndWrite(const PageCodec& codec, const Page& page, PageId id,
                      PageBackend* backend) {
  uint8_t buffer[kPageSize];
  codec.Encode(page, buffer);
  Status status = backend->Write(id, buffer);
  if (!status.ok()) {
    return Status(status.code(), "write of page " + std::to_string(id) +
                                     " failed: " + status.message());
  }
  return Status::OK();
}

Status MemoryPageBackend::Read(PageId id, uint8_t* out) const {
  if (id >= slots_.size() || slots_[id] == nullptr) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": read of unallocated page");
  }
  std::memcpy(out, slots_[id].get(), kPageSize);
  return Status::OK();
}

Status MemoryPageBackend::Write(PageId id, const uint8_t* data) {
  if (id == kInvalidPage) {
    return Status::InvalidArgument("write to kInvalidPage");
  }
  if (id >= slots_.size()) slots_.resize(id + 1);
  if (slots_[id] == nullptr) {
    slots_[id] = std::make_unique<uint8_t[]>(kPageSize);
    ++live_count_;
  }
  std::memcpy(slots_[id].get(), data, kPageSize);
  return Status::OK();
}

Status MemoryPageBackend::Free(PageId id) {
  if (id >= slots_.size() || slots_[id] == nullptr) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": free of unallocated page");
  }
  slots_[id].reset();
  --live_count_;
  return Status::OK();
}

bool MemoryPageBackend::IsAllocated(PageId id) const {
  return id < slots_.size() && slots_[id] != nullptr;
}

}  // namespace stindex
