// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// trailer of the snapshot container (src/io/snapshot.h).  Header-only and
// dependency-free on purpose: snapshots must be checkable by anything that
// can read bytes, and the checksum has to catch the truncations and bit
// flips the corruption tests inject before a payload reaches Deserialize.
#ifndef L1HH_UTIL_CRC32_H_
#define L1HH_UTIL_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace l1hh {

namespace internal {

/// Slicing-by-8 tables: table[0] is the classic byte table, and
/// table[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
inline const std::array<std::array<uint32_t, 256>, 8>& Crc32Tables() {
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace internal

/// Continues a CRC computation: pass the previous return value as `crc` to
/// checksum data arriving in chunks; start from 0.
inline uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto& t = internal::Crc32Tables();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; len >= 8; len -= 8, p += 8) {
    const uint32_t lo = c ^ (static_cast<uint32_t>(p[0]) |
                             static_cast<uint32_t>(p[1]) << 8 |
                             static_cast<uint32_t>(p[2]) << 16 |
                             static_cast<uint32_t>(p[3]) << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; len > 0; --len, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte range.
inline uint32_t Crc32(const void* data, size_t len) {
  return Crc32Update(0, data, len);
}

}  // namespace l1hh

#endif  // L1HH_UTIL_CRC32_H_
