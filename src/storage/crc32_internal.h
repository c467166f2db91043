#ifndef STINDEX_STORAGE_CRC32_INTERNAL_H_
#define STINDEX_STORAGE_CRC32_INTERNAL_H_

// The two CRC-32 kernels behind Crc32 (storage/page_codec.h), exposed so
// tests can run each one on its own whatever CPU they run on. Library
// code calls Crc32, which picks a kernel once.
//
// Both compute the same CRC-32: IEEE polynomial 0xEDB88320, reflected,
// initial value and final XOR 0xFFFFFFFF.

#include <cstddef>
#include <cstdint>

namespace stindex::crc32_internal {

// Portable kernel: slicing-by-8 over eight 256-entry tables, eight bytes
// per step, byte at a time for the last under-8 bytes.
uint32_t Crc32Portable(const uint8_t* data, size_t size);

// True when this is an x86-64 build running on a CPU with PCLMULQDQ and
// SSE4.1, i.e. when Crc32Clmul may be called.
bool ClmulAvailable();

// Fast kernel: PCLMULQDQ folding of the longest 16-byte multiple prefix
// (four 128-bit lanes, 64 bytes per step), Barrett-reduced to 32 bits;
// the portable kernel finishes the under-16-byte tail. Inputs under 64
// bytes go to the portable kernel whole. Requires ClmulAvailable().
uint32_t Crc32Clmul(const uint8_t* data, size_t size);

}  // namespace stindex::crc32_internal

#endif  // STINDEX_STORAGE_CRC32_INTERNAL_H_
