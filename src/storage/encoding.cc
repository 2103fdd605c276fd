#include "storage/encoding.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/bitutil.h"
#include "storage/huffman.h"

namespace stratica {

const char* EncodingName(EncodingId id) {
  switch (id) {
    case EncodingId::kAuto: return "AUTO";
    case EncodingId::kPlain: return "PLAIN";
    case EncodingId::kRle: return "RLE";
    case EncodingId::kDeltaValue: return "DELTAVAL";
    case EncodingId::kBlockDict: return "BLOCK_DICT";
    case EncodingId::kCompressedDeltaRange: return "DELTARANGE_COMP";
    case EncodingId::kCompressedCommonDelta: return "COMMONDELTA_COMP";
  }
  return "UNKNOWN";
}

Result<EncodingId> EncodingFromName(const std::string& name) {
  std::string up;
  for (char c : name) up.push_back(static_cast<char>(std::toupper(c)));
  if (up == "AUTO") return EncodingId::kAuto;
  if (up == "PLAIN" || up == "NONE") return EncodingId::kPlain;
  if (up == "RLE") return EncodingId::kRle;
  if (up == "DELTAVAL") return EncodingId::kDeltaValue;
  if (up == "BLOCK_DICT" || up == "BLOCKDICT") return EncodingId::kBlockDict;
  if (up == "DELTARANGE_COMP" || up == "DELTARANGE")
    return EncodingId::kCompressedDeltaRange;
  if (up == "COMMONDELTA_COMP" || up == "COMMONDELTA")
    return EncodingId::kCompressedCommonDelta;
  return Status::AnalysisError("unknown encoding: ", name);
}

bool EncodingSupports(EncodingId enc, StorageClass sc) {
  switch (enc) {
    case EncodingId::kAuto:
    case EncodingId::kPlain:
    case EncodingId::kRle:
    case EncodingId::kBlockDict:
      return true;
    case EncodingId::kDeltaValue:
    case EncodingId::kCompressedCommonDelta:
      return sc == StorageClass::kInt64;
    case EncodingId::kCompressedDeltaRange:
      return sc != StorageClass::kString;
  }
  return false;
}

namespace {

// Order-preserving bijection between doubles and uint64 (sign-flip
// transform); lets delta encodings treat sorted doubles as sorted ints.
uint64_t DoubleToOrderedKey(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return (bits & 0x8000000000000000ULL) ? ~bits : bits | 0x8000000000000000ULL;
}
double OrderedKeyToDouble(uint64_t key) {
  uint64_t bits = (key & 0x8000000000000000ULL) ? key & 0x7fffffffffffffffULL : ~key;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void AppendNullSection(std::string* out, const ColumnVector& col, size_t start,
                       size_t count) {
  bool any = false;
  for (size_t i = 0; i < count && !any; ++i) any = col.IsNull(start + i);
  out->push_back(any ? 1 : 0);
  if (!any) return;
  size_t bytes = (count + 7) / 8;
  size_t base = out->size();
  out->append(bytes, '\0');
  for (size_t i = 0; i < count; ++i) {
    if (col.IsNull(start + i)) (*out)[base + i / 8] |= static_cast<char>(1 << (i % 8));
  }
}

Status ReadNullSection(const std::string& data, size_t* offset, size_t count,
                       std::vector<uint8_t>* nulls) {
  if (*offset >= data.size()) return Status::Corruption("block: missing null flag");
  uint8_t any = static_cast<uint8_t>(data[(*offset)++]);
  nulls->clear();
  if (!any) return Status::OK();
  size_t bytes = (count + 7) / 8;
  if (*offset + bytes > data.size()) return Status::Corruption("block: truncated nulls");
  nulls->resize(count);
  for (size_t i = 0; i < count; ++i)
    (*nulls)[i] = (data[*offset + i / 8] >> (i % 8)) & 1;
  *offset += bytes;
  return Status::OK();
}

// --- per-storage-class scalar serializers ---------------------------------
void PutScalar(std::string* out, const ColumnVector& col, size_t i) {
  switch (StorageClassOf(col.type)) {
    case StorageClass::kInt64: PutVarint64(out, ZigZagEncode(col.ints[i])); break;
    case StorageClass::kFloat64: PutFixed(out, col.doubles[i]); break;
    case StorageClass::kString:
      PutVarint64(out, col.strings[i].size());
      out->append(col.strings[i]);
      break;
  }
}

Status GetScalar(const std::string& data, size_t* offset, ColumnVector* out) {
  switch (StorageClassOf(out->type)) {
    case StorageClass::kInt64: {
      uint64_t zz;
      if (!GetVarint64(data, offset, &zz)) return Status::Corruption("bad int scalar");
      out->ints.push_back(ZigZagDecode(zz));
      return Status::OK();
    }
    case StorageClass::kFloat64: {
      double d;
      if (!GetFixed(data, offset, &d)) return Status::Corruption("bad float scalar");
      out->doubles.push_back(d);
      return Status::OK();
    }
    case StorageClass::kString: {
      uint64_t len;
      if (!GetVarint64(data, offset, &len) || *offset + len > data.size())
        return Status::Corruption("bad string scalar");
      out->strings.emplace_back(data, *offset, len);
      *offset += len;
      return Status::OK();
    }
  }
  return Status::Internal("bad storage class");
}

// --- encoders ---------------------------------------------------------------

Status EncodePlain(const ColumnVector& col, size_t start, size_t count,
                   std::string* out) {
  switch (StorageClassOf(col.type)) {
    case StorageClass::kInt64:
      out->append(reinterpret_cast<const char*>(col.ints.data() + start),
                  count * sizeof(int64_t));
      break;
    case StorageClass::kFloat64:
      out->append(reinterpret_cast<const char*>(col.doubles.data() + start),
                  count * sizeof(double));
      break;
    case StorageClass::kString:
      for (size_t i = 0; i < count; ++i) {
        PutVarint64(out, col.strings[start + i].size());
        out->append(col.strings[start + i]);
      }
      break;
  }
  return Status::OK();
}

Status EncodeRle(const ColumnVector& col, size_t start, size_t count, std::string* out) {
  // Count runs of equal adjacent values (nulls already normalized to 0/"").
  std::string body;
  uint64_t num_runs = 0;
  size_t i = 0;
  while (i < count) {
    size_t j = i + 1;
    while (j < count &&
           ColumnVector::CompareEntries(col, start + i, col, start + j) == 0 &&
           col.IsNull(start + i) == col.IsNull(start + j)) {
      ++j;
    }
    PutScalar(&body, col, start + i);
    PutVarint64(&body, j - i);
    ++num_runs;
    i = j;
  }
  PutVarint64(out, num_runs);
  out->append(body);
  return Status::OK();
}

Status EncodeDeltaValue(const ColumnVector& col, size_t start, size_t count,
                        std::string* out) {
  int64_t min = col.ints[start];
  uint64_t max_delta = 0;
  for (size_t i = 0; i < count; ++i) min = std::min(min, col.ints[start + i]);
  // Deltas computed in uint64 (mod 2^64) to avoid signed overflow on
  // full-range data.
  for (size_t i = 0; i < count; ++i) {
    uint64_t d = static_cast<uint64_t>(col.ints[start + i]) - static_cast<uint64_t>(min);
    max_delta = std::max(max_delta, d);
  }
  int width = BitsRequired(max_delta);
  PutVarint64(out, ZigZagEncode(min));
  out->push_back(static_cast<char>(width));
  if (width > 0) {
    BitPacker packer(width);
    for (size_t i = 0; i < count; ++i)
      packer.Append(static_cast<uint64_t>(col.ints[start + i]) -
                    static_cast<uint64_t>(min));
    out->append(packer.Finish());
  }
  return Status::OK();
}

// Dictionary keys are distinct under CompareEntries: for doubles every NaN
// is one entry (std::equal_to would give each NaN row its own code).
template <typename T>
struct DictKey {
  using Hash = std::hash<T>;
  using Eq = std::equal_to<T>;
};
template <>
struct DictKey<double> {
  struct Hash {
    size_t operator()(double d) const { return HashDouble(d); }
  };
  struct Eq {
    bool operator()(double a, double b) const { return CompareDoubles(a, b) == 0; }
  };
};

// Dictionary build shared by BlockDict encode and the Auto chooser's
// cardinality guard. Returns false if distinct count exceeds `limit`.
template <typename T>
bool BuildDict(const std::vector<T>& values, size_t start, size_t count, size_t limit,
               std::vector<T>* dict, std::vector<uint32_t>* indexes) {
  std::unordered_map<T, uint32_t, typename DictKey<T>::Hash, typename DictKey<T>::Eq> map;
  map.reserve(std::min(count, limit * 2));
  indexes->resize(count);
  for (size_t i = 0; i < count; ++i) {
    auto [it, inserted] = map.emplace(values[start + i], static_cast<uint32_t>(dict->size()));
    if (inserted) {
      dict->push_back(values[start + i]);
      if (dict->size() > limit) return false;
    }
    (*indexes)[i] = it->second;
  }
  return true;
}

constexpr size_t kDictLimit = 16384;

// Sort a freshly built dictionary and remap the per-row indexes so stored
// code order == value order. Paying the d·log d once at encode time lets
// every EncodedBlockView reader skip its own sort + full code remap
// (DESIGN.md §13); the on-disk format is unchanged (readers that expand
// never cared about dictionary order).
template <typename T>
bool DictLess(const T& a, const T& b) {
  return a < b;
}
// Doubles need a total order (std::sort on raw NaNs is undefined).
inline bool DictLess(double a, double b) { return CompareDoubles(a, b) < 0; }

template <typename T>
void SortDictAndRemap(std::vector<T>* dict, std::vector<uint32_t>* indexes) {
  size_t d = dict->size();
  std::vector<uint32_t> perm(d);
  for (size_t i = 0; i < d; ++i) perm[i] = static_cast<uint32_t>(i);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return DictLess((*dict)[a], (*dict)[b]);
  });
  std::vector<T> sorted;
  sorted.reserve(d);
  std::vector<uint32_t> rank(d);
  for (size_t i = 0; i < d; ++i) {
    rank[perm[i]] = static_cast<uint32_t>(i);
    sorted.push_back(std::move((*dict)[perm[i]]));
  }
  *dict = std::move(sorted);
  for (auto& idx : *indexes) idx = rank[idx];
}

Status EncodeBlockDict(const ColumnVector& col, size_t start, size_t count,
                       std::string* out, bool* feasible) {
  std::vector<uint32_t> indexes;
  std::string dict_body;
  uint64_t dict_size = 0;
  *feasible = true;
  switch (StorageClassOf(col.type)) {
    case StorageClass::kInt64: {
      std::vector<int64_t> dict;
      if (!BuildDict(col.ints, start, count, kDictLimit, &dict, &indexes)) {
        *feasible = false;
        return Status::OK();
      }
      SortDictAndRemap(&dict, &indexes);
      dict_size = dict.size();
      for (int64_t v : dict) PutVarint64(&dict_body, ZigZagEncode(v));
      break;
    }
    case StorageClass::kFloat64: {
      std::vector<double> dict;
      if (!BuildDict(col.doubles, start, count, kDictLimit, &dict, &indexes)) {
        *feasible = false;
        return Status::OK();
      }
      SortDictAndRemap(&dict, &indexes);
      dict_size = dict.size();
      for (double v : dict) PutFixed(&dict_body, v);
      break;
    }
    case StorageClass::kString: {
      std::vector<std::string> dict;
      if (!BuildDict(col.strings, start, count, kDictLimit, &dict, &indexes)) {
        *feasible = false;
        return Status::OK();
      }
      SortDictAndRemap(&dict, &indexes);
      dict_size = dict.size();
      for (const auto& v : dict) {
        PutVarint64(&dict_body, v.size());
        dict_body.append(v);
      }
      break;
    }
  }
  PutVarint64(out, dict_size);
  out->append(dict_body);
  int width = BitsRequired(dict_size > 0 ? dict_size - 1 : 0);
  out->push_back(static_cast<char>(width));
  if (width > 0) {
    BitPacker packer(width);
    for (uint32_t idx : indexes) packer.Append(idx);
    out->append(packer.Finish());
  }
  return Status::OK();
}

Status EncodeDeltaRange(const ColumnVector& col, size_t start, size_t count,
                        std::string* out) {
  if (StorageClassOf(col.type) == StorageClass::kInt64) {
    PutVarint64(out, ZigZagEncode(col.ints[start]));
    for (size_t i = 1; i < count; ++i) {
      // Mod-2^64 delta avoids signed overflow on full-range data.
      uint64_t d = static_cast<uint64_t>(col.ints[start + i]) -
                   static_cast<uint64_t>(col.ints[start + i - 1]);
      PutVarint64(out, ZigZagEncode(static_cast<int64_t>(d)));
    }
  } else {
    uint64_t prev = DoubleToOrderedKey(col.doubles[start]);
    PutFixed(out, prev);
    for (size_t i = 1; i < count; ++i) {
      uint64_t key = DoubleToOrderedKey(col.doubles[start + i]);
      PutVarint64(out, ZigZagEncode(static_cast<int64_t>(key - prev)));
      prev = key;
    }
  }
  return Status::OK();
}

Status EncodeCommonDelta(const ColumnVector& col, size_t start, size_t count,
                         std::string* out, bool* feasible) {
  *feasible = true;
  PutVarint64(out, ZigZagEncode(col.ints[start]));
  if (count <= 1) {
    PutVarint64(out, 0);  // empty delta dictionary
    return Status::OK();
  }
  // Dictionary of distinct deltas.
  std::unordered_map<int64_t, uint32_t> map;
  std::vector<int64_t> dict;
  std::vector<uint32_t> symbols(count - 1);
  for (size_t i = 1; i < count; ++i) {
    int64_t d = static_cast<int64_t>(static_cast<uint64_t>(col.ints[start + i]) -
                                     static_cast<uint64_t>(col.ints[start + i - 1]));
    auto [it, inserted] = map.emplace(d, static_cast<uint32_t>(dict.size()));
    if (inserted) {
      dict.push_back(d);
      if (dict.size() > kDictLimit) {
        *feasible = false;
        return Status::OK();
      }
    }
    symbols[i - 1] = it->second;
  }
  PutVarint64(out, dict.size());
  for (int64_t d : dict) PutVarint64(out, ZigZagEncode(d));
  return HuffmanEncode(symbols, static_cast<uint32_t>(dict.size()), out);
}

// --- decoders (one per encoding, DESIGN.md §7) ------------------------------
//
// Each decoder appends the rows of one block payload to `out`. A non-null
// `sel` (one entry per row) keeps only the rows with sel[i] != 0; a null
// `sel` keeps every row. Sequentially-dependent encodings (delta chains)
// still walk the stream, but stop doing arithmetic after the last selected
// position and never append dead values; positionally-addressable encodings
// (plain scalars, bit-packed slots) touch only the selected slots. Every
// decoder checks its reads against the block's bytes and row count.

/// Advance past one LEB128 varint without decoding it.
bool SkipVarint(const std::string& data, size_t* offset) {
  while (*offset < data.size()) {
    bool more = (static_cast<uint8_t>(data[*offset]) & 0x80) != 0;
    ++*offset;
    if (!more) return true;
  }
  return false;
}

/// Rows among the first `n` that `sel` keeps (all `n` for a null selection).
size_t CountSelected(const uint8_t* sel, size_t n) {
  if (sel == nullptr) return n;
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) k += sel[i] != 0;
  return k;
}

/// One past the last row of `count` that `sel` keeps (0 when none is kept).
size_t SelectedEnd(const uint8_t* sel, size_t count) {
  if (sel == nullptr) return count;
  while (count > 0 && !sel[count - 1]) --count;
  return count;
}

/// True if `count` values of `width` bits fit in the bytes after `offset`.
bool PackedFits(const std::string& data, size_t offset, size_t count, int width) {
  return count <= (data.size() - offset) * 8 / static_cast<size_t>(width);
}

template <typename T>
Status DecodeFixed(const std::string& data, size_t* offset, size_t count,
                   const uint8_t* sel, std::vector<T>* out) {
  if (count > (data.size() - *offset) / sizeof(T))
    return Status::Corruption("plain: truncated");
  const char* base = data.data() + *offset;
  if (sel == nullptr) {  // every row: one bulk copy
    size_t old = out->size();
    out->resize(old + count);
    if (count > 0) std::memcpy(out->data() + old, base, count * sizeof(T));
  } else {
    for (size_t i = 0; i < count; ++i) {
      if (!sel[i]) continue;
      T v;
      std::memcpy(&v, base + i * sizeof(T), sizeof(T));
      out->push_back(v);
    }
  }
  *offset += count * sizeof(T);
  return Status::OK();
}

Status DecodePlainSelected(const std::string& data, size_t* offset, size_t count,
                           const uint8_t* sel, ColumnVector* out) {
  switch (StorageClassOf(out->type)) {
    case StorageClass::kInt64: return DecodeFixed(data, offset, count, sel, &out->ints);
    case StorageClass::kFloat64:
      return DecodeFixed(data, offset, count, sel, &out->doubles);
    case StorageClass::kString:
      // Unselected strings are skipped by length — their bytes are never
      // copied out of the block buffer.
      for (size_t i = 0; i < count; ++i) {
        uint64_t len;
        if (!GetVarint64(data, offset, &len) || len > data.size() - *offset)
          return Status::Corruption("plain: bad string");
        if (!sel || sel[i]) out->strings.emplace_back(data, *offset, len);
        *offset += len;
      }
      return Status::OK();
  }
  return Status::Internal("bad storage class");
}

/// One RLE run length; the runs of a block must not overrun its row count.
Status GetRunLength(const std::string& data, size_t* offset, size_t rows_left,
                    uint64_t* run_len) {
  if (!GetVarint64(data, offset, run_len)) return Status::Corruption("rle: bad run");
  if (*run_len > rows_left) return Status::Corruption("rle: run overflows block");
  return Status::OK();
}

Status DecodeRleSelected(const std::string& data, size_t* offset, size_t count,
                         const uint8_t* sel, ColumnVector* out) {
  uint64_t num_runs;
  if (!GetVarint64(data, offset, &num_runs)) return Status::Corruption("rle: bad header");
  StorageClass sc = StorageClassOf(out->type);
  size_t pos = 0;
  for (uint64_t r = 0; r < num_runs; ++r) {
    // Read the run value lazily: strings are only constructed when at least
    // one row of the run survives.
    int64_t iv = 0;
    double dv = 0;
    size_t str_at = 0;
    uint64_t str_len = 0;
    switch (sc) {
      case StorageClass::kInt64: {
        uint64_t zz;
        if (!GetVarint64(data, offset, &zz)) return Status::Corruption("rle: bad value");
        iv = ZigZagDecode(zz);
        break;
      }
      case StorageClass::kFloat64:
        if (!GetFixed(data, offset, &dv)) return Status::Corruption("rle: bad value");
        break;
      case StorageClass::kString:
        if (!GetVarint64(data, offset, &str_len) || str_len > data.size() - *offset)
          return Status::Corruption("rle: bad value");
        str_at = *offset;
        *offset += str_len;
        break;
    }
    uint64_t run_len = 0;
    STRATICA_RETURN_NOT_OK(GetRunLength(data, offset, count - pos, &run_len));
    size_t take = CountSelected(sel ? sel + pos : nullptr, run_len);
    if (take > 0) {  // dead runs are skipped wholesale
      switch (sc) {
        case StorageClass::kInt64: out->ints.insert(out->ints.end(), take, iv); break;
        case StorageClass::kFloat64:
          out->doubles.insert(out->doubles.end(), take, dv);
          break;
        case StorageClass::kString:
          for (size_t k = 0; k < take; ++k) out->strings.emplace_back(data, str_at, str_len);
          break;
      }
    }
    pos += run_len;
  }
  if (pos != count) return Status::Corruption("rle: row count mismatch");
  return Status::OK();
}

// The view's RLE form: one physical entry per run (`out` must be fresh).
Status DecodeRle(const std::string& data, size_t* offset, size_t count,
                 ColumnVector* out) {
  uint64_t num_runs;
  if (!GetVarint64(data, offset, &num_runs)) return Status::Corruption("rle: bad header");
  size_t pos = 0;
  for (uint64_t r = 0; r < num_runs; ++r) {
    STRATICA_RETURN_NOT_OK(GetScalar(data, offset, out));
    uint64_t run_len = 0;
    STRATICA_RETURN_NOT_OK(GetRunLength(data, offset, count - pos, &run_len));
    out->runs.push_back(static_cast<uint32_t>(run_len));
    pos += run_len;
  }
  if (pos != count) return Status::Corruption("rle: row count mismatch");
  return Status::OK();
}

Status DecodeDeltaValueSelected(const std::string& data, size_t* offset, size_t count,
                                const uint8_t* sel, ColumnVector* out) {
  uint64_t zz;
  if (!GetVarint64(data, offset, &zz)) return Status::Corruption("deltaval: bad min");
  int64_t min = ZigZagDecode(zz);
  if (*offset >= data.size()) return Status::Corruption("deltaval: bad width");
  int width = static_cast<uint8_t>(data[(*offset)++]);
  if (width > 64) return Status::Corruption("deltaval: bad width");
  if (width == 0) {
    out->ints.insert(out->ints.end(), CountSelected(sel, count), min);
    return Status::OK();
  }
  if (!PackedFits(data, *offset, count, width))
    return Status::Corruption("deltaval: truncated");
  const char* base = data.data() + *offset;
  size_t avail = data.size() - *offset;
  for (size_t i = 0; i < count; ++i) {  // bit-unpacks only the selected slots
    if (sel && !sel[i]) continue;
    out->ints.push_back(static_cast<int64_t>(
        static_cast<uint64_t>(min) +
        ReadPackedBits(base, avail, i * static_cast<size_t>(width), width)));
  }
  *offset += PackedBytes(count, width);
  return Status::OK();
}

// BlockDict header parse (dictionary + index bit width), shared by the row
// decoder and the view's code form.
Status ParseDictHeader(const std::string& data, size_t* offset, ColumnVector* dict,
                       uint64_t* dict_size, int* width) {
  if (!GetVarint64(data, offset, dict_size)) return Status::Corruption("dict: bad size");
  for (uint64_t i = 0; i < *dict_size; ++i)
    STRATICA_RETURN_NOT_OK(GetScalar(data, offset, dict));
  if (*offset >= data.size()) return Status::Corruption("dict: bad width");
  *width = static_cast<uint8_t>(data[(*offset)++]);
  if (*width > 64) return Status::Corruption("dict: bad width");
  return Status::OK();
}

Status EmitDictEntry(const ColumnVector& dict, uint64_t idx, ColumnVector* out) {
  if (idx >= dict.PhysicalSize()) return Status::Corruption("dict: index out of range");
  switch (StorageClassOf(out->type)) {
    case StorageClass::kInt64: out->ints.push_back(dict.ints[idx]); break;
    case StorageClass::kFloat64: out->doubles.push_back(dict.doubles[idx]); break;
    case StorageClass::kString: out->strings.push_back(dict.strings[idx]); break;
  }
  return Status::OK();
}

Status DecodeBlockDictSelected(const std::string& data, size_t* offset, size_t count,
                               const uint8_t* sel, ColumnVector* out) {
  uint64_t dict_size;
  ColumnVector dict(out->type);
  int width;
  STRATICA_RETURN_NOT_OK(ParseDictHeader(data, offset, &dict, &dict_size, &width));
  if (width == 0) {
    for (size_t k = CountSelected(sel, count); k > 0; --k)
      STRATICA_RETURN_NOT_OK(EmitDictEntry(dict, 0, out));
    return Status::OK();
  }
  if (!PackedFits(data, *offset, count, width)) return Status::Corruption("dict: truncated");
  const char* base = data.data() + *offset;
  size_t avail = data.size() - *offset;
  for (size_t i = 0; i < count; ++i) {  // materializes only selected codes
    if (sel && !sel[i]) continue;
    STRATICA_RETURN_NOT_OK(EmitDictEntry(
        dict, ReadPackedBits(base, avail, i * static_cast<size_t>(width), width), out));
  }
  *offset += PackedBytes(count, width);
  return Status::OK();
}

Status DecodeDeltaRangeSelected(const std::string& data, size_t* offset, size_t count,
                                const uint8_t* sel, ColumnVector* out) {
  size_t end = SelectedEnd(sel, count);
  size_t i = 1;
  if (StorageClassOf(out->type) == StorageClass::kInt64) {
    uint64_t zz;
    if (!GetVarint64(data, offset, &zz)) return Status::Corruption("deltarange: bad first");
    int64_t prev = ZigZagDecode(zz);
    if (count > 0 && (!sel || sel[0])) out->ints.push_back(prev);
    for (; i < end; ++i) {
      if (!GetVarint64(data, offset, &zz))
        return Status::Corruption("deltarange: bad delta");
      prev = static_cast<int64_t>(static_cast<uint64_t>(prev) +
                                  static_cast<uint64_t>(ZigZagDecode(zz)));
      if (!sel || sel[i]) out->ints.push_back(prev);
    }
  } else {
    uint64_t prev;
    if (!GetFixed(data, offset, &prev)) return Status::Corruption("deltarange: bad first");
    if (count > 0 && (!sel || sel[0])) out->doubles.push_back(OrderedKeyToDouble(prev));
    for (; i < end; ++i) {
      uint64_t zz;
      if (!GetVarint64(data, offset, &zz))
        return Status::Corruption("deltarange: bad delta");
      prev += static_cast<uint64_t>(ZigZagDecode(zz));
      if (!sel || sel[i]) out->doubles.push_back(OrderedKeyToDouble(prev));
    }
  }
  // Past the last selected position the deltas are dead weight: skip their
  // varint bytes without zigzag/accumulate work.
  for (; i < count; ++i) {
    if (!SkipVarint(data, offset)) return Status::Corruption("deltarange: bad delta");
  }
  return Status::OK();
}

Status DecodeCommonDeltaSelected(const std::string& data, size_t* offset, size_t count,
                                 const uint8_t* sel, ColumnVector* out) {
  uint64_t zz;
  if (!GetVarint64(data, offset, &zz)) return Status::Corruption("commondelta: bad first");
  int64_t value = ZigZagDecode(zz);
  if (count > 0 && (!sel || sel[0])) out->ints.push_back(value);
  uint64_t dict_size;
  if (!GetVarint64(data, offset, &dict_size))
    return Status::Corruption("commondelta: bad dict");
  if (count <= 1) return Status::OK();
  if (dict_size > data.size() - *offset)  // each entry takes at least one byte
    return Status::Corruption("commondelta: bad dict");
  std::vector<int64_t> dict(dict_size);
  for (auto& d : dict) {
    if (!GetVarint64(data, offset, &zz))
      return Status::Corruption("commondelta: bad dict entry");
    d = ZigZagDecode(zz);
  }
  // The entropy stream must be decoded in full (prefix codes have no random
  // access), but accumulation stops after the last selected row.
  std::vector<uint32_t> symbols;
  STRATICA_RETURN_NOT_OK(HuffmanDecode(data, offset, &symbols));
  if (symbols.size() != count - 1) return Status::Corruption("commondelta: count mismatch");
  size_t end = SelectedEnd(sel, count);
  for (size_t r = 1; r < end; ++r) {
    uint32_t s = symbols[r - 1];
    if (s >= dict.size()) return Status::Corruption("commondelta: bad symbol");
    value = static_cast<int64_t>(static_cast<uint64_t>(value) +
                                 static_cast<uint64_t>(dict[s]));
    if (!sel || sel[r]) out->ints.push_back(value);
  }
  return Status::OK();
}

Status EncodeWith(EncodingId enc, const ColumnVector& col, size_t start, size_t count,
                  std::string* out, bool* feasible) {
  *feasible = true;
  switch (enc) {
    case EncodingId::kPlain: return EncodePlain(col, start, count, out);
    case EncodingId::kRle: return EncodeRle(col, start, count, out);
    case EncodingId::kDeltaValue: return EncodeDeltaValue(col, start, count, out);
    case EncodingId::kBlockDict: return EncodeBlockDict(col, start, count, out, feasible);
    case EncodingId::kCompressedDeltaRange:
      return EncodeDeltaRange(col, start, count, out);
    case EncodingId::kCompressedCommonDelta:
      return EncodeCommonDelta(col, start, count, out, feasible);
    case EncodingId::kAuto: return Status::Internal("kAuto must be resolved by caller");
  }
  return Status::Internal("unknown encoding");
}

}  // namespace

Status EncodeBlock(EncodingId enc, const ColumnVector& col, size_t start, size_t count,
                   std::string* out) {
  if (!col.IsFlat()) return Status::Internal("EncodeBlock requires a flat column");
  std::string header;
  PutVarint64(&header, count);
  AppendNullSection(&header, col, start, count);

  if (count == 0) {
    out->push_back(static_cast<char>(EncodingId::kPlain));
    out->append(header);
    return Status::OK();
  }

  if (enc != EncodingId::kAuto) {
    bool feasible = true;
    std::string payload;
    STRATICA_RETURN_NOT_OK(EncodeWith(enc, col, start, count, &payload, &feasible));
    if (!feasible) {
      // Cardinality guard tripped: fall back to plain rather than exploding.
      payload.clear();
      enc = EncodingId::kPlain;
      STRATICA_RETURN_NOT_OK(EncodeWith(enc, col, start, count, &payload, &feasible));
    }
    out->push_back(static_cast<char>(enc));
    out->append(header);
    out->append(payload);
    return Status::OK();
  }

  // Auto: try every supported encoding, keep the smallest (the paper's DBD
  // performs the same empirical selection during storage optimization).
  static const EncodingId kCandidates[] = {
      EncodingId::kRle,
      EncodingId::kDeltaValue,
      EncodingId::kBlockDict,
      EncodingId::kCompressedDeltaRange,
      EncodingId::kCompressedCommonDelta,
      EncodingId::kPlain,
  };
  std::string best;
  EncodingId best_enc = EncodingId::kPlain;
  for (EncodingId cand : kCandidates) {
    if (!EncodingSupports(cand, StorageClassOf(col.type))) continue;
    std::string payload;
    bool feasible = true;
    STRATICA_RETURN_NOT_OK(EncodeWith(cand, col, start, count, &payload, &feasible));
    if (!feasible) continue;
    if (best.empty() || payload.size() < best.size()) {
      best = std::move(payload);
      best_enc = cand;
    }
  }
  out->push_back(static_cast<char>(best_enc));
  out->append(header);
  out->append(best);
  return Status::OK();
}

namespace {
// The frame every block shares: [EncodingId u8][count varint][null section].
struct BlockFrame {
  EncodingId encoding = EncodingId::kPlain;
  uint64_t count = 0;
  std::vector<uint8_t> nulls;  ///< one flag per row; empty when no row is NULL
};

Status ReadBlockFrame(const std::string& data, size_t* offset, BlockFrame* frame) {
  if (*offset >= data.size()) return Status::Corruption("block: empty");
  frame->encoding = static_cast<EncodingId>(data[(*offset)++]);
  if (!GetVarint64(data, offset, &frame->count))
    return Status::Corruption("block: bad count");
  return ReadNullSection(data, offset, frame->count, &frame->nulls);
}

Status DecodePayload(const std::string& data, size_t* offset, const BlockFrame& frame,
                     const uint8_t* sel, ColumnVector* out) {
  size_t count = frame.count;
  switch (frame.encoding) {
    case EncodingId::kPlain: return DecodePlainSelected(data, offset, count, sel, out);
    case EncodingId::kRle: return DecodeRleSelected(data, offset, count, sel, out);
    case EncodingId::kDeltaValue:
      return DecodeDeltaValueSelected(data, offset, count, sel, out);
    case EncodingId::kBlockDict:
      return DecodeBlockDictSelected(data, offset, count, sel, out);
    case EncodingId::kCompressedDeltaRange:
      return DecodeDeltaRangeSelected(data, offset, count, sel, out);
    case EncodingId::kCompressedCommonDelta:
      return DecodeCommonDeltaSelected(data, offset, count, sel, out);
    case EncodingId::kAuto: break;
  }
  return Status::Corruption("block: bad encoding");
}

// Appends the rows `sel` keeps (every row when null) and their null flags.
Status DecodeRows(const std::string& data, size_t* offset, TypeId type,
                  const BlockFrame& frame, const uint8_t* sel, ColumnVector* out) {
  out->type = type;
  size_t phys_before = out->PhysicalSize();
  STRATICA_RETURN_NOT_OK(DecodePayload(data, offset, frame, sel, out));
  if (!frame.nulls.empty()) {
    if (out->nulls.empty()) out->nulls.assign(phys_before, 0);
    for (size_t i = 0; i < frame.count; ++i) {
      if (!sel || sel[i]) out->nulls.push_back(frame.nulls[i]);
    }
  } else if (!out->nulls.empty()) {
    out->nulls.resize(out->PhysicalSize(), 0);
  }
  return Status::OK();
}
}  // namespace

Status DecodeBlock(const std::string& data, size_t* offset, TypeId type,
                   ColumnVector* out, const std::vector<uint8_t>* sel) {
  BlockFrame frame;
  STRATICA_RETURN_NOT_OK(ReadBlockFrame(data, offset, &frame));
  if (sel != nullptr && sel->size() != frame.count)
    return Status::InvalidArgument("selection size != block row count");
  return DecodeRows(data, offset, type, frame, sel ? sel->data() : nullptr, out);
}

Status DecodeBlockView(const std::string& data, size_t* offset, TypeId type,
                       EncodedBlockView* out) {
  out->column = ColumnVector(type);
  BlockFrame frame;
  STRATICA_RETURN_NOT_OK(ReadBlockFrame(data, offset, &frame));
  out->encoding = frame.encoding;
  ColumnVector& col = out->column;
  // RLE keeps one entry per run, BlockDict keeps per-row codes plus the
  // dictionary. Runs survive only without NULLs (the common case for
  // sort-key columns, which is where the RLE fast paths matter): the stored
  // null section is row-parallel, not run-parallel.
  if (frame.encoding == EncodingId::kRle && frame.nulls.empty())
    return DecodeRle(data, offset, frame.count, &col);
  if (frame.encoding != EncodingId::kBlockDict)
    return DecodeRows(data, offset, type, frame, nullptr, &col);

  size_t count = frame.count;
  ColumnVector raw_dict(type);
  uint64_t dict_size;
  int width;
  STRATICA_RETURN_NOT_OK(ParseDictHeader(data, offset, &raw_dict, &dict_size, &width));
  if (width == 0) {
    if (count > 0 && dict_size == 0) return Status::Corruption("dict: empty");
    col.ints.assign(count, 0);
  } else {
    if (!PackedFits(data, *offset, count, width))
      return Status::Corruption("dict: truncated");
    col.ints.reserve(count);
    const char* base = data.data() + *offset;
    size_t avail = data.size() - *offset;
    for (size_t i = 0; i < count; ++i) {
      uint64_t code = ReadPackedBits(base, avail, i * static_cast<size_t>(width), width);
      if (code >= dict_size) return Status::Corruption("dict: index out of range");
      col.ints.push_back(static_cast<int64_t>(code));
    }
    *offset += PackedBytes(count, width);
  }
  col.nulls = std::move(frame.nulls);

  // Code order must equal value order. Blocks written since the encoder
  // started sorting dictionaries (and remapping codes) at encode time pass
  // the O(d) check below and skip the work entirely; older blocks (or other
  // writers) pay one sort + remap per view.
  size_t d = raw_dict.PhysicalSize();
  bool presorted = true;
  for (size_t i = 1; presorted && i < d; ++i) {
    presorted = ColumnVector::CompareEntries(raw_dict, i - 1, raw_dict, i) < 0;
  }
  if (presorted) {
    col.dict = std::make_shared<const ColumnVector>(std::move(raw_dict));
    col.dict_sorted = true;
    return Status::OK();
  }
  std::vector<uint32_t> perm(d);
  for (size_t i = 0; i < d; ++i) perm[i] = static_cast<uint32_t>(i);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return ColumnVector::CompareEntries(raw_dict, a, raw_dict, b) < 0;
  });
  std::vector<int64_t> rank(d);
  ColumnVector sorted(type);
  sorted.Reserve(d);
  for (size_t i = 0; i < d; ++i) {
    rank[perm[i]] = static_cast<int64_t>(i);
    sorted.AppendFrom(raw_dict, perm[i]);
  }
  for (auto& c : col.ints) c = rank[static_cast<size_t>(c)];
  col.dict = std::make_shared<const ColumnVector>(std::move(sorted));
  col.dict_sorted = true;
  return Status::OK();
}

Result<EncodingId> PeekBlockEncoding(const std::string& data, size_t offset) {
  if (offset >= data.size()) return Status::Corruption("block: empty");
  return static_cast<EncodingId>(data[offset]);
}

void EncodeValue(std::string* out, const Value& v) {
  out->push_back(v.is_null() ? 1 : 0);
  if (v.is_null()) return;
  switch (StorageClassOf(v.type())) {
    case StorageClass::kInt64: PutVarint64(out, ZigZagEncode(v.i64())); break;
    case StorageClass::kFloat64: PutFixed(out, v.f64()); break;
    case StorageClass::kString:
      PutVarint64(out, v.str().size());
      out->append(v.str());
      break;
  }
}

Status DecodeValue(const std::string& data, size_t* offset, TypeId type, Value* out) {
  if (*offset >= data.size()) return Status::Corruption("value: truncated");
  bool null = data[(*offset)++] != 0;
  if (null) {
    *out = Value::Null(type);
    return Status::OK();
  }
  switch (StorageClassOf(type)) {
    case StorageClass::kInt64: {
      uint64_t zz;
      if (!GetVarint64(data, offset, &zz)) return Status::Corruption("value: bad int");
      *out = Value::OfInt(type, ZigZagDecode(zz));
      return Status::OK();
    }
    case StorageClass::kFloat64: {
      double d;
      if (!GetFixed(data, offset, &d)) return Status::Corruption("value: bad float");
      *out = Value::Float64(d);
      return Status::OK();
    }
    case StorageClass::kString: {
      uint64_t len;
      if (!GetVarint64(data, offset, &len) || *offset + len > data.size())
        return Status::Corruption("value: bad string");
      *out = Value::String(std::string(data, *offset, len));
      *offset += len;
      return Status::OK();
    }
  }
  return Status::Internal("bad storage class");
}

}  // namespace stratica
