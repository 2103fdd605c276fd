// Bit packing / varint primitives shared by the column encoders.
#ifndef STRATICA_COMMON_BITUTIL_H_
#define STRATICA_COMMON_BITUTIL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace stratica {

/// Number of bits required to represent v (0 needs 0 bits).
inline int BitsRequired(uint64_t v) {
  int bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

/// ZigZag mapping of signed to unsigned so small-magnitude deltas are small.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Append a LEB128 varint to out.
inline void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Parse a LEB128 varint from data at *offset. Returns false on overrun.
inline bool GetVarint64(const std::string& data, size_t* offset, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*offset < data.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(data[*offset]);
    ++*offset;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Fixed-width little-endian scalar I/O.
template <typename T>
void PutFixed(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
bool GetFixed(const std::string& data, size_t* offset, T* v) {
  if (*offset + sizeof(T) > data.size()) return false;
  std::memcpy(v, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

/// \brief Writes values using a fixed bit width, LSB-first within bytes.
class BitPacker {
 public:
  explicit BitPacker(int bit_width) : bit_width_(bit_width) {}

  void Append(uint64_t v) {
    // Split wide values so the 64-bit accumulation buffer never overflows.
    if (bit_width_ > 32) {
      AppendBits(v & 0xffffffffULL, 32);
      AppendBits(v >> 32, bit_width_ - 32);
    } else {
      AppendBits(v, bit_width_);
    }
  }

  /// Flush pending bits and return the packed bytes.
  std::string Finish() {
    if (bits_in_buffer_ > 0) {
      bytes_.push_back(static_cast<char>(buffer_ & 0xff));
      buffer_ = 0;
      bits_in_buffer_ = 0;
    }
    return std::move(bytes_);
  }

 private:
  void AppendBits(uint64_t v, int width) {
    uint64_t mask = width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    buffer_ |= (v & mask) << bits_in_buffer_;
    bits_in_buffer_ += width;
    while (bits_in_buffer_ >= 8) {
      bytes_.push_back(static_cast<char>(buffer_ & 0xff));
      buffer_ >>= 8;
      bits_in_buffer_ -= 8;
    }
  }
  int bit_width_;
  uint64_t buffer_ = 0;
  int bits_in_buffer_ = 0;
  std::string bytes_;
};

/// Bytes a BitPacker emits for `count` values of `width` bits.
inline size_t PackedBytes(size_t count, int width) {
  return (count * static_cast<size_t>(width) + 7) / 8;
}

/// Random-access read of the value at bit offset `bit_off` in a BitPacker
/// stream (LSB-first within bytes) — the one reader of BitPacker output.
/// `base` points at the first packed byte and `size` bytes from it are
/// readable; the caller guarantees bit_off + width <= 8 * size. Values wider
/// than 32 bits are stored by BitPacker as (low 32, high rest), which is
/// bit-identical to one contiguous LSB-first field, so a single read
/// suffices for any width up to 64. LSB-first bytes are a little-endian
/// word, so a value that fits one 8-byte load is read with one.
inline uint64_t ReadPackedBits(const char* base, size_t size, size_t bit_off, int width) {
  size_t byte = bit_off >> 3;
  int skip = static_cast<int>(bit_off & 7);
  uint64_t result = 0;
  if (width <= 56 && byte + 8 <= size) {
    std::memcpy(&result, base + byte, sizeof(result));
    result >>= skip;
  } else {
    int got = 0;
    while (got < width) {
      uint64_t b = static_cast<uint8_t>(base[byte]) >> skip;
      result |= b << got;
      got += 8 - skip;
      ++byte;
      skip = 0;
    }
  }
  if (width < 64) result &= (1ULL << width) - 1;
  return result;
}

}  // namespace stratica

#endif  // STRATICA_COMMON_BITUTIL_H_
