#ifndef COPYDETECT_SNAPSHOT_FRAMING_H_
#define COPYDETECT_SNAPSHOT_FRAMING_H_

/// \file
/// Internal file-framing primitives shared by snapshot_io.cc (the
/// writer and the streaming reader) and mmap_reader.cc (the mapped
/// reader): the checksum, the fixed header/table geometry, and the
/// parsed form of one section-table entry. Byte-level layout lives in
/// docs/FORMATS.md; nothing here is public API.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/flat_hash.h"

namespace copydetect {
namespace snapshot_internal {

// ---------------------------------------------------------------------
// Checksum: 8-byte little-endian words folded through Mix64, the final
// partial word zero-padded, seeded with an FNV-style length mix. Not
// cryptographic — it detects corruption, not tampering. Specified in
// docs/FORMATS.md so independent readers can verify files.

/// std::byteswap is C++23; the repo builds as C++20.
inline uint64_t ByteSwap64(uint64_t v) {
  v = ((v & 0x00ff00ff00ff00ffULL) << 8) |
      ((v >> 8) & 0x00ff00ff00ff00ffULL);
  v = ((v & 0x0000ffff0000ffffULL) << 16) |
      ((v >> 16) & 0x0000ffff0000ffffULL);
  return (v << 32) | (v >> 32);
}

/// Hash64 over bytes that arrive in pieces (the streaming writer
/// hashes each payload as it goes to disk). The total size seeds the
/// hash, so it must be known up front; Update may be called with any
/// split of the bytes and Finish gives what Hash64 gives on the whole.
class Hasher64 {
 public:
  explicit Hasher64(uint64_t size)
      : h_(0xcbf29ce484222325ULL ^ (size * 0x100000001b3ULL)) {}

  void Update(const uint8_t* data, size_t size) {
    // Top up a word left partial by the previous piece.
    while (fill_ != 0 && size != 0) {
      partial_ |= static_cast<uint64_t>(*data++) << (8 * fill_);
      --size;
      if (++fill_ == 8) {
        h_ = Mix64(h_ ^ partial_);
        partial_ = 0;
        fill_ = 0;
      }
    }
    for (; size >= 8; data += 8, size -= 8) {
      uint64_t word;
      std::memcpy(&word, data, 8);
      if constexpr (std::endian::native == std::endian::big) {
        word = ByteSwap64(word);
      }
      h_ = Mix64(h_ ^ word);
    }
    for (; size != 0; --size) {
      partial_ |= static_cast<uint64_t>(*data++) << (8 * fill_++);
    }
  }

  /// The final partial word is zero-padded.
  uint64_t Finish() const {
    return fill_ != 0 ? Mix64(h_ ^ partial_) : h_;
  }

 private:
  uint64_t h_;
  uint64_t partial_ = 0;
  unsigned fill_ = 0;  ///< bytes held in partial_
};

inline uint64_t Hash64(const uint8_t* data, size_t size) {
  Hasher64 h(size);
  h.Update(data, size);
  return h.Finish();
}

// ---------------------------------------------------------------------
// Fixed geometry. Layout (all integers little-endian):
//
//   [0,  8)  magic "CDSNAP\r\n"
//   [8, 12)  u32 format version
//   [12,16)  u32 flags (0 in versions 1 and 2)
//   [16,24)  u64 generation (save-time Dataset::generation())
//   [24,28)  u32 section count
//   [28,32)  u32 reserved (0)
//   then     section table: count x 32-byte entries
//            { u32 id, u32 reserved, u64 offset, u64 size, u64 checksum }
//   then     u64 meta checksum over bytes [0, table end)
//   then     section payloads at their recorded offsets (version 2
//            pads every payload's start offset to 8 bytes; the gap
//            bytes are zero and excluded from the recorded size)

inline constexpr size_t kHeaderSize = 32;
inline constexpr size_t kTableEntrySize = 32;
inline constexpr uint32_t kMaxSections = 64;

struct TableEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

}  // namespace snapshot_internal
}  // namespace copydetect

#endif  // COPYDETECT_SNAPSHOT_FRAMING_H_
