#include "util/bit_stream.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

namespace l1hh {

void BitWriter::WriteBits(uint64_t value, int nbits) {
  if (nbits == 0) return;
  if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
  const size_t word_index = nbits_ >> 6;
  const int bit_offset = static_cast<int>(nbits_ & 63);
  if (word_index >= words_.size()) words_.push_back(0);
  words_[word_index] |= value << bit_offset;
  const int spill = bit_offset + nbits - 64;
  if (spill > 0) {
    words_.push_back(value >> (nbits - spill));
  }
  nbits_ += static_cast<size_t>(nbits);
}

void BitWriter::WriteGamma(uint64_t v) {
  // v >= 1: floor(log2 v) zeros, then v's bits from MSB.
  const int len = FloorLog2(v);
  WriteBits(0, len);
  WriteBits(1, 1);
  // Low `len` bits of v (below the leading one), LSB-first is fine as long
  // as the reader agrees.
  WriteBits(v - (uint64_t{1} << len), len);
}

void BitWriter::Truncate(size_t nbits) {
  words_.resize((nbits + 63) / 64);
  if ((nbits & 63) != 0) words_.back() &= (uint64_t{1} << (nbits & 63)) - 1;
  nbits_ = nbits;
}

void BitWriter::PatchU64(size_t at, uint64_t v) {
  const size_t word_index = at >> 6;
  const int bit_offset = static_cast<int>(at & 63);
  if (bit_offset == 0) {
    words_[word_index] = v;
    return;
  }
  const uint64_t below = (uint64_t{1} << bit_offset) - 1;
  words_[word_index] = (words_[word_index] & below) | (v << bit_offset);
  words_[word_index + 1] =
      (words_[word_index + 1] & ~below) | (v >> (64 - bit_offset));
}

void BitWriter::WriteDouble(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  WriteU64(bits);
}

uint64_t BitReader::ReadBits(int nbits) {
  if (nbits == 0) return 0;
  if (pos_ + static_cast<size_t>(nbits) > limit_bits_) {
    MarkOverflow();
    pos_ = limit_bits_;
    return 0;
  }
  const size_t word_index = pos_ >> 6;
  const int bit_offset = static_cast<int>(pos_ & 63);
  uint64_t value = words_[word_index] >> bit_offset;
  const int taken = 64 - bit_offset;
  if (taken < nbits) {
    value |= words_[word_index + 1] << taken;
  }
  if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
  pos_ += static_cast<size_t>(nbits);
  return value;
}

uint64_t BitReader::Peek64() const {
  const size_t left = limit_bits_ - pos_;
  if (left == 0) return 0;
  const size_t word_index = pos_ >> 6;
  const int bit_offset = static_cast<int>(pos_ & 63);
  uint64_t value = words_[word_index] >> bit_offset;
  // The next word exists whenever the limit reaches into it.
  if (bit_offset != 0 && (word_index + 1) * 64 < limit_bits_) {
    value |= words_[word_index + 1] << (64 - bit_offset);
  }
  if (left < 64) value &= (uint64_t{1} << left) - 1;
  return value;
}

uint64_t BitReader::ReadGamma() {
  if (overflow_) return 1;
  const uint64_t peek = Peek64();
  if (peek == 0) {
    // No one-bit within reach: a prefix of 64 zeros (a valid code has at
    // most 63; reading on would shift past the word, UB on hostile
    // input), or a stream that ends inside the prefix.  Either way the
    // reader stops where a bit-by-bit walk would: after the 64th zero,
    // or at the limit.
    pos_ += std::min<size_t>(limit_bits_ - pos_, 64);
    MarkOverflow();
    return 1;
  }
  const int len = std::countr_zero(peek);
  const int code_bits = 2 * len + 1;
  if (code_bits <= 64 &&
      static_cast<size_t>(code_bits) <= limit_bits_ - pos_) {
    pos_ += static_cast<size_t>(code_bits);  // the whole code was peeked
    return (uint64_t{1} << len) |
           ((peek >> (len + 1)) & ((uint64_t{1} << len) - 1));
  }
  // A long code (v >= 2^32) or one cut off by the end of the stream.
  pos_ += static_cast<size_t>(len) + 1;  // the prefix and its one-bit
  const uint64_t low = ReadBits(len);      // marks a truncated tail
  return (uint64_t{1} << len) + low;
}

double BitReader::ReadDouble() {
  const uint64_t bits = ReadU64();
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Status BitReader::status() const {
  if (!overflow_) return Status::Ok();
  return Status::Corruption(
      "bit stream overflow: read past the end at bit " +
      std::to_string(overflow_pos_) + " of " + std::to_string(limit_bits_));
}

}  // namespace l1hh
