// Sorting utilities shared by the load path, the tuple mover and the
// execution engine's Sort operator.
//
// The hot paths run on *normalized keys* (DESIGN.md §8): each row's
// composite sort key is encoded into a byte string whose memcmp order
// equals the row comparison order — order-preserving transforms for
// int64/double/string, a NULL marker byte per key column (NULL first),
// and DESC handled by complementing the column's bytes. Sorting and
// merging then reduce to memcmp (or plain integer compares when the
// composite key packs into 8 bytes) instead of a per-row type switch.
#ifndef STRATICA_STORAGE_SORT_UTIL_H_
#define STRATICA_STORAGE_SORT_UTIL_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/row_block.h"

namespace stratica {

/// Sort key with direction (shared by the Sort operator, the merge kernel
/// and the tuple mover; plain column lists mean ascending).
struct SortKey {
  uint32_t column;
  bool descending = false;
};

/// Compare rows under directed sort keys (NULL first under ASC, doubles in
/// the CompareDoubles total order). Memcmp of normalized keys agrees with it
/// exactly; the two-way merge compares rows with it directly.
int CompareRowsDirected(const RowBlock& a, size_t ia, const RowBlock& b, size_t ib,
                        const std::vector<SortKey>& keys);

/// \brief Packed, byte-comparable composite keys for one block.
///
/// Row i's key occupies bytes [offsets[i], offsets[i+1]). When every key
/// column is fixed-width (no strings), `fixed_width` is set and `offsets`
/// stays empty — row i's key is bytes[i * fixed_width, (i+1) * fixed_width).
struct NormalizedKeys {
  std::vector<uint8_t> bytes;
  std::vector<uint64_t> offsets;  ///< rows + 1 entries; empty when fixed-width
  size_t fixed_width = 0;         ///< bytes per key when no string columns
  size_t rows = 0;

  const uint8_t* Data(size_t i) const {
    return bytes.data() + (offsets.empty() ? i * fixed_width : offsets[i]);
  }
  size_t Length(size_t i) const {
    return offsets.empty() ? fixed_width : offsets[i + 1] - offsets[i];
  }
  /// memcmp semantics: <0, 0, >0.
  int Compare(size_t a, size_t b) const {
    return CompareSlices(Data(a), Length(a), Data(b), Length(b));
  }
  /// Compare row a of *this against row b of `other`.
  int CompareWith(size_t a, const NormalizedKeys& other, size_t b) const {
    return CompareSlices(Data(a), Length(a), other.Data(b), other.Length(b));
  }

  static int CompareSlices(const uint8_t* a, size_t alen, const uint8_t* b,
                           size_t blen) {
    size_t n = alen < blen ? alen : blen;
    int c = n == 0 ? 0 : std::memcmp(a, b, n);
    if (c != 0) return c;
    return alen < blen ? -1 : (alen > blen ? 1 : 0);
  }
};

/// Encode the composite sort key of every row of a flat block. The encoding
/// is order-preserving: memcmp of two keys == CompareRowsDirected of the
/// rows.
///
/// Dict-coded key columns are handled either way: with `allow_dict_codes`
/// set, a sorted-dictionary column contributes its codes as a fixed 9-byte
/// int key — skipping value materialization entirely, and turning string
/// keys fixed-width (DESIGN.md §13). Codes from different dictionaries never
/// compare, so only block-local sorts (ComputeSortPermutationDirected) may
/// pass true; cross-block users (merges) must leave it false, which
/// materializes dictionary values instead.
void BuildNormalizedKeys(const RowBlock& block, const std::vector<SortKey>& keys,
                         NormalizedKeys* out, bool allow_dict_codes = false);

/// Append row `row`'s encoded key to *out — the single-row variant of
/// BuildNormalizedKeys (property tests lock the two to the same bytes).
void AppendNormalizedKey(const RowBlock& block, size_t row,
                         const std::vector<SortKey>& keys,
                         std::vector<uint8_t>* out);

/// Stable sort permutation of `block`'s rows under directed keys, via
/// normalized keys (radix sort when fixed-width, else memcmp sort).
std::vector<uint32_t> ComputeSortPermutationDirected(const RowBlock& block,
                                                     const std::vector<SortKey>& keys);

/// Stable sort permutation of `block`'s rows by the given key columns
/// (ascending, NULL first). The block must be flat (no RLE columns).
std::vector<uint32_t> ComputeSortPermutation(const RowBlock& block,
                                             const std::vector<uint32_t>& key_columns);

/// Gather rows `perm` of a flat block column at a time, in `perm`'s order.
/// `perm` may be a permutation or any subset of row indexes.
RowBlock ApplyPermutation(const RowBlock& block, const std::vector<uint32_t>& perm);

/// Lexicographic comparison of row `ia` of `a` vs row `ib` of `b` over
/// parallel key column lists.
int CompareRows(const RowBlock& a, size_t ia, const RowBlock& b, size_t ib,
                const std::vector<uint32_t>& keys_a, const std::vector<uint32_t>& keys_b);

/// True if the flat block is sorted by the key columns.
bool IsSorted(const RowBlock& block, const std::vector<uint32_t>& key_columns);

}  // namespace stratica

#endif  // STRATICA_STORAGE_SORT_UTIL_H_
