#include "storage/sort_util.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace stratica {

namespace {

/// Order-preserving transform of an int64: flip the sign bit so the
/// unsigned/byte order equals the signed order.
inline uint64_t NormalizeInt64(int64_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}

/// Order-preserving transform of a double under CompareDoubles: -0.0
/// canonicalizes to +0.0 and every NaN to one quiet-NaN pattern (which
/// encodes above +inf), so values the comparator calls equal encode equally.
inline uint64_t NormalizeDouble(double d) {
  if (d == 0) d = 0;  // -0.0 == 0.0 folds both to +0.0
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  // Negative: complement everything (reverses magnitude order). Positive:
  // set the sign bit so positives sort above negatives.
  return (u >> 63) ? ~u : (u | (uint64_t{1} << 63));
}

inline void PutBigEndian64(uint64_t u, bool invert, std::vector<uint8_t>* out) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    uint8_t b = static_cast<uint8_t>(u >> shift);
    out->push_back(invert ? static_cast<uint8_t>(~b) : b);
  }
}

inline void StoreBigEndian64(uint64_t u, bool invert, uint8_t* dst) {
  if (invert) u = ~u;
#if defined(__GNUC__) || defined(__clang__)
  u = __builtin_bswap64(u);
#else
  u = ((u & 0x00000000000000ffULL) << 56) | ((u & 0x000000000000ff00ULL) << 40) |
      ((u & 0x0000000000ff0000ULL) << 24) | ((u & 0x00000000ff000000ULL) << 8) |
      ((u & 0x000000ff00000000ULL) >> 8) | ((u & 0x0000ff0000000000ULL) >> 24) |
      ((u & 0x00ff000000000000ULL) >> 40) | ((u & 0xff00000000000000ULL) >> 56);
#endif
  std::memcpy(dst, &u, 8);
}

/// Append one column's key bytes for one row. `emit_marker` controls the
/// NULL marker byte (elidable only when the whole sort knows no NULLs can
/// appear in the column). DESC complements every emitted byte.
inline void AppendColumnKey(const ColumnVector& col, size_t row, bool descending,
                            bool emit_marker, std::vector<uint8_t>* out) {
  bool is_null = col.IsNull(row);
  if (emit_marker) {
    uint8_t marker = is_null ? 0x00 : 0x01;
    out->push_back(descending ? static_cast<uint8_t>(~marker) : marker);
  }
  // Dict-coded columns materialize the value through the dictionary — this
  // path feeds cross-block comparisons where codes are meaningless.
  const ColumnVector& v = col.IsDictCoded() ? *col.dict : col;
  const size_t p =
      col.IsDictCoded() ? (is_null ? 0 : static_cast<size_t>(col.ints[row])) : row;
  switch (StorageClassOf(col.type)) {
    case StorageClass::kInt64: {
      uint64_t u = is_null ? 0 : NormalizeInt64(v.ints[p]);
      PutBigEndian64(u, descending, out);
      break;
    }
    case StorageClass::kFloat64: {
      uint64_t u = is_null ? 0 : NormalizeDouble(v.doubles[p]);
      PutBigEndian64(u, descending, out);
      break;
    }
    case StorageClass::kString: {
      // Variable width: escape embedded 0x00 as {0x00, 0xFF} and terminate
      // with {0x00, 0x00} so shorter strings sort before their extensions
      // and later key columns never bleed into the comparison.
      if (!is_null) {
        const std::string& s = v.strings[p];
        for (char ch : s) {
          uint8_t b = static_cast<uint8_t>(ch);
          if (b == 0) {
            out->push_back(descending ? 0xFF : 0x00);
            out->push_back(descending ? 0x00 : 0xFF);
          } else {
            out->push_back(descending ? static_cast<uint8_t>(~b) : b);
          }
        }
        out->push_back(descending ? 0xFF : 0x00);
        out->push_back(descending ? 0xFF : 0x00);
      }
      break;
    }
  }
}

}  // namespace

int CompareRowsDirected(const RowBlock& a, size_t ia, const RowBlock& b, size_t ib,
                        const std::vector<SortKey>& keys) {
  for (const auto& key : keys) {
    int c = ColumnVector::CompareEntries(a.columns[key.column], ia,
                                         b.columns[key.column], ib);
    if (c != 0) return key.descending ? -c : c;
  }
  return 0;
}

void BuildNormalizedKeys(const RowBlock& block, const std::vector<SortKey>& keys,
                         NormalizedKeys* out, bool allow_dict_codes) {
  size_t n = block.NumRows();
  out->bytes.clear();
  out->offsets.clear();
  out->rows = n;
  out->fixed_width = 0;
  // Resolve each key column once: a sorted-dict column may contribute its
  // codes directly (block-local callers only — code order == value order by
  // the dict_sorted contract); other dict columns materialize values into
  // scratch. `as_codes` columns encode as 9-byte ints whatever their value
  // type, so a sorted-dict string key keeps the whole key fixed-width.
  std::vector<ColumnVector> scratch;
  scratch.reserve(keys.size());
  std::vector<const ColumnVector*> cols(keys.size());
  std::vector<char> as_codes(keys.size(), 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    const ColumnVector& col = block.columns[keys[i].column];
    if (col.IsDictCoded()) {
      if (allow_dict_codes && col.dict_sorted) {
        cols[i] = &col;
        as_codes[i] = 1;
      } else {
        scratch.push_back(col.Decoded());
        cols[i] = &scratch.back();
      }
    } else {
      cols[i] = &col;
    }
  }
  bool fixed = true;
  size_t width = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!as_codes[i] && StorageClassOf(cols[i]->type) == StorageClass::kString) {
      fixed = false;
      break;
    }
    width += 9;  // marker + 8 payload bytes
  }
  if (fixed) {
    // Keys must compare across blocks (the merge kernel interleaves them),
    // so the NULL marker is always emitted even for all-valid columns.
    // Column-major fill: one type dispatch per (key, block) instead of per
    // (key, row), writing payloads with a single byteswapped store.
    out->fixed_width = width;
    out->bytes.resize(n * width);
    uint8_t* base = out->bytes.data();
    size_t key_off = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      const SortKey& key = keys[i];
      const ColumnVector& col = *cols[i];
      const bool desc = key.descending;
      const uint8_t valid_marker = desc ? static_cast<uint8_t>(~0x01) : 0x01;
      const uint8_t null_marker = desc ? static_cast<uint8_t>(~0x00) : 0x00;
      // A code column reads like an int column: the codes live in `ints`.
      const bool is_float =
          !as_codes[i] && StorageClassOf(col.type) == StorageClass::kFloat64;
      uint8_t* dst = base + key_off;
      if (col.nulls.empty()) {
        if (is_float) {
          for (size_t r = 0; r < n; ++r, dst += width) {
            dst[0] = valid_marker;
            StoreBigEndian64(NormalizeDouble(col.doubles[r]), desc, dst + 1);
          }
        } else {
          for (size_t r = 0; r < n; ++r, dst += width) {
            dst[0] = valid_marker;
            StoreBigEndian64(NormalizeInt64(col.ints[r]), desc, dst + 1);
          }
        }
      } else {
        for (size_t r = 0; r < n; ++r, dst += width) {
          if (col.nulls[r] != 0) {
            dst[0] = null_marker;
            StoreBigEndian64(0, desc, dst + 1);
          } else {
            dst[0] = valid_marker;
            uint64_t u = is_float ? NormalizeDouble(col.doubles[r])
                                  : NormalizeInt64(col.ints[r]);
            StoreBigEndian64(u, desc, dst + 1);
          }
        }
      }
      key_off += 9;
    }
    return;
  }
  out->offsets.reserve(n + 1);
  out->offsets.push_back(0);
  out->bytes.reserve(n * (keys.size() * 9 + 8));
  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (as_codes[i]) {
        // Sorted-dict key in a variable-width composite: 9-byte code key.
        const ColumnVector& col = *cols[i];
        bool is_null = col.IsNull(r);
        uint8_t marker = is_null ? 0x00 : 0x01;
        out->bytes.push_back(keys[i].descending ? static_cast<uint8_t>(~marker)
                                                : marker);
        uint64_t u = is_null ? 0 : NormalizeInt64(col.ints[r]);
        PutBigEndian64(u, keys[i].descending, &out->bytes);
        continue;
      }
      AppendColumnKey(*cols[i], r, keys[i].descending,
                      /*emit_marker=*/true, &out->bytes);
    }
    out->offsets.push_back(out->bytes.size());
  }
}

void AppendNormalizedKey(const RowBlock& block, size_t row,
                         const std::vector<SortKey>& keys,
                         std::vector<uint8_t>* out) {
  for (const auto& key : keys) {
    AppendColumnKey(block.columns[key.column], row, key.descending,
                    /*emit_marker=*/true, out);
  }
}

namespace {

/// Stable LSD radix sort of fixed-width keys: one counting pass per key
/// byte, least-significant first, skipping bytes that are uniform across
/// the block (NULL markers of all-valid columns, high-order bytes of
/// small-domain ints — most of a composite key in practice). Equal keys
/// keep their input order, so the result matches a stable comparator sort.
std::vector<uint32_t> RadixSortPermutation(const NormalizedKeys& nk, size_t n) {
  const size_t w = nk.fixed_width;
  std::vector<uint32_t> perm(n), tmp(n);
  std::iota(perm.begin(), perm.end(), 0);
  if (w == 0 || n < 2) return perm;
  // 16-bit digits taken from the key tail (a leftover leading byte becomes
  // an 8-bit digit): half the scatter passes of byte-wise LSD, and uniform
  // digits — NULL markers of all-valid columns, high-order bytes of
  // small-domain ints — skip their pass entirely after the counting sweep.
  std::vector<uint32_t> counts(size_t{1} << 16);
  const uint8_t* bytes = nk.bytes.data();
  size_t pos = w;
  while (pos > 0) {
    const size_t dsize = pos >= 2 ? 2 : 1;
    const size_t dpos = pos - dsize;
    const size_t nbuckets = dsize == 2 ? (size_t{1} << 16) : 256;
    const uint8_t* col = bytes + dpos;
    std::fill(counts.begin(), counts.begin() + nbuckets, 0);
    if (dsize == 2) {
      for (size_t r = 0; r < n; ++r) {
        const uint8_t* p = col + r * w;
        ++counts[(static_cast<size_t>(p[0]) << 8) | p[1]];
      }
    } else {
      for (size_t r = 0; r < n; ++r) ++counts[col[r * w]];
    }
    size_t first =
        dsize == 2 ? (static_cast<size_t>(col[0]) << 8) | col[1] : col[0];
    pos = dpos;
    if (counts[first] == n) continue;  // uniform digit: nothing to reorder
    uint32_t sum = 0;
    for (size_t b = 0; b < nbuckets; ++b) {
      uint32_t c = counts[b];
      counts[b] = sum;
      sum += c;
    }
    if (dsize == 2) {
      for (size_t r = 0; r < n; ++r) {
        uint32_t row = perm[r];
        const uint8_t* p = col + static_cast<size_t>(row) * w;
        tmp[counts[(static_cast<size_t>(p[0]) << 8) | p[1]]++] = row;
      }
    } else {
      for (size_t r = 0; r < n; ++r) {
        uint32_t row = perm[r];
        tmp[counts[col[static_cast<size_t>(row) * w]]++] = row;
      }
    }
    perm.swap(tmp);
  }
  return perm;
}

}  // namespace

std::vector<uint32_t> ComputeSortPermutationDirected(const RowBlock& block,
                                                     const std::vector<SortKey>& keys) {
  std::vector<uint32_t> perm(block.NumRows());
  std::iota(perm.begin(), perm.end(), 0);
  NormalizedKeys nk;
  // Block-local sort: sorted-dict key columns may sort by code directly.
  BuildNormalizedKeys(block, keys, &nk, /*allow_dict_codes=*/true);
  // Threshold balances the per-pass 65536-entry histogram against the
  // comparison sort's n·log n memcmps — below it the fills dominate.
  if (nk.offsets.empty() && perm.size() >= 4096) {
    return RadixSortPermutation(nk, perm.size());
  }
  if (!nk.offsets.empty()) {
    // Variable-width keys: sort fat items carrying an inline 8-byte key
    // prefix. Most comparisons resolve on the prefix with one contiguous
    // load; only prefix ties touch the key arena.
    struct Item {
      uint64_t prefix;
      uint32_t offset;
      uint32_t len;
      uint32_t idx;
    };
    std::vector<Item> items(perm.size());
    for (size_t r = 0; r < items.size(); ++r) {
      const uint8_t* p = nk.Data(r);
      size_t len = nk.Length(r);
      uint8_t buf[8] = {0};
      std::memcpy(buf, p, len < 8 ? len : 8);
      uint64_t prefix = 0;
      for (int i = 0; i < 8; ++i) prefix = (prefix << 8) | buf[i];
      items[r] = {prefix, static_cast<uint32_t>(nk.offsets[r]),
                  static_cast<uint32_t>(len), static_cast<uint32_t>(r)};
    }
    const uint8_t* bytes = nk.bytes.data();
    std::sort(items.begin(), items.end(), [bytes](const Item& a, const Item& b) {
      if (a.prefix != b.prefix) return a.prefix < b.prefix;
      if (a.len > 8 || b.len > 8) {
        int c = NormalizedKeys::CompareSlices(bytes + a.offset, a.len,
                                              bytes + b.offset, b.len);
        if (c != 0) return c < 0;
      }
      return a.idx < b.idx;  // index tie-break keeps the sort stable
    });
    for (size_t r = 0; r < items.size(); ++r) perm[r] = items[r].idx;
    return perm;
  }
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    int c = nk.Compare(a, b);
    if (c != 0) return c < 0;
    return a < b;  // index tie-break keeps the sort stable
  });
  return perm;
}

std::vector<uint32_t> ComputeSortPermutation(const RowBlock& block,
                                             const std::vector<uint32_t>& key_columns) {
  std::vector<SortKey> keys;
  keys.reserve(key_columns.size());
  for (uint32_t k : key_columns) keys.push_back({k, false});
  return ComputeSortPermutationDirected(block, keys);
}

RowBlock ApplyPermutation(const RowBlock& block, const std::vector<uint32_t>& perm) {
  RowBlock out;
  out.columns.reserve(block.NumColumns());
  for (const auto& col : block.columns) {
    ColumnVector oc(col.type);
    oc.AppendGather(col, perm);
    out.columns.push_back(std::move(oc));
  }
  return out;
}

int CompareRows(const RowBlock& a, size_t ia, const RowBlock& b, size_t ib,
                const std::vector<uint32_t>& keys_a,
                const std::vector<uint32_t>& keys_b) {
  for (size_t k = 0; k < keys_a.size(); ++k) {
    int c = ColumnVector::CompareEntries(a.columns[keys_a[k]], ia, b.columns[keys_b[k]],
                                         ib);
    if (c != 0) return c;
  }
  return 0;
}

bool IsSorted(const RowBlock& block, const std::vector<uint32_t>& key_columns) {
  size_t n = block.NumRows();
  for (size_t i = 1; i < n; ++i) {
    if (CompareRows(block, i - 1, block, i, key_columns, key_columns) > 0) return false;
  }
  return true;
}

}  // namespace stratica
