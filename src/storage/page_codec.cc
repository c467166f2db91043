#include "storage/page_codec.h"

#include <string>

namespace stindex {
namespace {

uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void StoreU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v & 0xff);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v & 0xff);
  p[1] = static_cast<uint8_t>((v >> 8) & 0xff);
  p[2] = static_cast<uint8_t>((v >> 16) & 0xff);
  p[3] = static_cast<uint8_t>((v >> 24) & 0xff);
}

}  // namespace

void SealPage(uint8_t* page, PageKind kind) {
  StoreU16(page + 4, static_cast<uint16_t>(kind));
  StoreU16(page + 6, kPageCodecVersion);
  StoreU32(page, Crc32(page + 4, kPageSize - 4));
}

Result<PageReader> OpenPagePayload(const uint8_t* page, PageKind kind,
                                   PageId id) {
  const uint32_t stored_crc = LoadU32(page);
  const uint32_t actual_crc = Crc32(page + 4, kPageSize - 4);
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   ": checksum mismatch (corrupt page)");
  }
  const uint16_t stored_kind = LoadU16(page + 4);
  if (stored_kind != static_cast<uint16_t>(kind)) {
    return Status::InvalidArgument(
        "page " + std::to_string(id) + ": kind mismatch (got " +
        std::to_string(stored_kind) + ", want " +
        std::to_string(static_cast<uint16_t>(kind)) + ")");
  }
  const uint16_t version = LoadU16(page + 6);
  if (version != kPageCodecVersion) {
    return Status::InvalidArgument(
        "page " + std::to_string(id) + ": unsupported codec version " +
        std::to_string(version) + " (supported: " +
        std::to_string(kPageCodecVersion) + ")");
  }
  return PageReader(page + kPageEnvelopeBytes, kPagePayloadBytes);
}

}  // namespace stindex
