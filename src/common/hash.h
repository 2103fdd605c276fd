// 64-bit hashing used for projection segmentation (the ring over 2^64 of
// Section 3.6), hash joins, and hash aggregation.
#ifndef STRATICA_COMMON_HASH_H_
#define STRATICA_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>

namespace stratica {

/// Finalizer from MurmurHash3 / splitmix64: full-avalanche mix of a 64-bit
/// value. Adequate for ring segmentation where only the high bits matter.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Hash a byte string (FNV-1a 64 followed by a finalizer mix).
inline uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

inline uint64_t HashString(std::string_view s) { return HashBytes(s.data(), s.size()); }

inline uint64_t HashInt64(int64_t v) { return Mix64(static_cast<uint64_t>(v)); }

inline uint64_t HashDouble(double d) {
  // Values CompareDoubles calls equal hash equally: -0.0 folds to +0.0 and
  // every NaN to one quiet-NaN pattern, as the normalized sort keys do.
  if (d == 0.0) d = 0.0;
  if (d != d) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

/// Combine two hashes (boost::hash_combine style, widened to 64 bits).
inline uint64_t HashCombine(uint64_t seed, uint64_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

/// Hash value of a NULL entry (shared by scalar HashEntry and the batched
/// HashColumn/HashRows loops so every hashing path agrees on NULLs).
inline constexpr uint64_t kNullHash = 0x5ca1ab1e;

/// Seed for key hashing in group-by tables, their grace partitions and
/// hash-join builds.
inline constexpr uint64_t kGroupKeySeed = 0x6b7d;
/// Seed for SIP key hashing (join build side and scan-side filtering must
/// agree bit-for-bit).
inline constexpr uint64_t kSipSeed = 0x9b97;

}  // namespace stratica

#endif  // STRATICA_COMMON_HASH_H_
