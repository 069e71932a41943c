// Bit-exact serialization streams.
//
// The communication games of Section 4 measure Alice's message in bits: a
// sketch Serialize()s itself into a BitWriter and the message size is the
// exact number of bits written.  Every sketch in this library round-trips
// through these streams, and the snapshot subsystem (src/io/) persists the
// same bit streams to disk behind a self-describing container.
#ifndef L1HH_UTIL_BIT_STREAM_H_
#define L1HH_UTIL_BIT_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bit_util.h"
#include "util/status.h"

namespace l1hh {

class BitWriter {
 public:
  /// Appends the low `nbits` bits of `value` (LSB first). nbits in [0, 64].
  void WriteBits(uint64_t value, int nbits);

  /// Elias gamma code for v >= 1.
  void WriteGamma(uint64_t v);

  /// Gamma code shifted to cover v >= 0.
  void WriteCounter(uint64_t v) { WriteGamma(v + 1); }

  void WriteU64(uint64_t v) { WriteBits(v, 64); }
  void WriteU32(uint32_t v) { WriteBits(v, 32); }
  void WriteBool(bool b) { WriteBits(b ? 1 : 0, 1); }

  /// Fixed-width write of a double (bit pattern).
  void WriteDouble(double d);

  /// Drops every bit from position `nbits` on; nbits <= size_bits().
  void Truncate(size_t nbits);

  /// Overwrites the 64 bits written at position `at` (at + 64 <=
  /// size_bits()): a length field patched in once what follows is known.
  void PatchU64(size_t at, uint64_t v);

  size_t size_bits() const { return nbits_; }
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  std::vector<uint64_t> words_;
  size_t nbits_ = 0;
};

class BitReader {
 public:
  /// The writer must not be written to while this reader is live: the
  /// reader borrows the writer's word buffer, and a write that grows it
  /// may reallocate out from under the reader.
  explicit BitReader(const BitWriter& writer)
      : words_(writer.words().data()), limit_bits_(writer.size_bits()) {}

  /// Reads an external word buffer (e.g. a snapshot file unpacked into
  /// little-endian u64 words).  `limit_bits` must be covered by the
  /// buffer; an inconsistent caller value is clamped so no read can go
  /// past `word_count * 64` bits.
  BitReader(const uint64_t* words, size_t word_count, size_t limit_bits)
      : words_(words),
        limit_bits_(limit_bits > word_count * 64 ? word_count * 64
                                                 : limit_bits) {}

  /// Reads `nbits` bits (LSB first).  Reading past the end returns zeros and
  /// sets overflow(); the first out-of-bounds position is kept for status().
  uint64_t ReadBits(int nbits);

  /// Elias gamma code, read with one 64-bit peek when the whole code is
  /// in it.  A run of 64 zeros (no valid code has more than 63) marks
  /// overflow after the 64th zero; a code cut off by the end of the
  /// stream marks it where the cut falls.
  uint64_t ReadGamma();
  uint64_t ReadCounter() { return ReadGamma() - 1; }
  uint64_t ReadU64() { return ReadBits(64); }
  uint32_t ReadU32() { return static_cast<uint32_t>(ReadBits(32)); }
  bool ReadBool() { return ReadBits(1) != 0; }
  double ReadDouble();

  size_t position_bits() const { return pos_; }
  size_t remaining_bits() const { return limit_bits_ - pos_; }
  bool overflow() const { return overflow_; }

  /// Bit position of the first out-of-bounds read (only meaningful when
  /// overflow() is true).
  size_t overflow_position() const { return overflow_pos_; }

  /// Ok while every read stayed in bounds; otherwise a Corruption status
  /// naming the first offending bit position — the error a deserializer
  /// should propagate instead of trusting zero-filled reads.
  Status status() const;

  /// Sanity bound for a count field about to drive an allocation: a
  /// well-formed message cannot contain more elements than it has bits.
  /// Returns `count` if plausible, else marks overflow and returns 0.
  uint64_t CheckedCount(uint64_t count) {
    if (count > remaining_bits() + 64) {
      MarkOverflow();
      return 0;
    }
    return count;
  }

 private:
  /// The next min(64, remaining_bits()) bits, zero above them; no move.
  uint64_t Peek64() const;

  void MarkOverflow() {
    if (!overflow_) overflow_pos_ = pos_;
    overflow_ = true;
  }

  const uint64_t* words_;
  size_t limit_bits_;
  size_t pos_ = 0;
  size_t overflow_pos_ = 0;
  bool overflow_ = false;
};

}  // namespace l1hh

#endif  // L1HH_UTIL_BIT_STREAM_H_
