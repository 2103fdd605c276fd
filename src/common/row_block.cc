#include "common/row_block.h"

#include <sstream>

#include "common/hash.h"

namespace stratica {

void ColumnVector::Reserve(size_t n) {
  switch (StorageClassOf(type)) {
    case StorageClass::kInt64: ints.reserve(n); break;
    case StorageClass::kFloat64: doubles.reserve(n); break;
    case StorageClass::kString: strings.reserve(n); break;
  }
}

void ColumnVector::Clear() {
  ints.clear();
  doubles.clear();
  strings.clear();
  nulls.clear();
  runs.clear();
  dict.reset();
  dict_sorted = false;
}

void ColumnVector::Append(const Value& v) {
  if (IsDictCoded()) *this = Decoded();  // appenders produce flat values
  size_t before = PhysicalSize();
  switch (StorageClassOf(type)) {
    case StorageClass::kInt64: ints.push_back(v.is_null() ? 0 : v.i64()); break;
    case StorageClass::kFloat64: doubles.push_back(v.is_null() ? 0 : v.f64()); break;
    case StorageClass::kString: strings.push_back(v.is_null() ? "" : v.str()); break;
  }
  if (v.is_null() || !nulls.empty()) {
    if (nulls.empty()) nulls.assign(before, 0);
    nulls.push_back(v.is_null() ? 1 : 0);
  }
  if (!runs.empty()) runs.push_back(1);
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t phys) {
  AppendRunFrom(src, phys, 1);
}

void ColumnVector::AppendRunFrom(const ColumnVector& src, size_t phys, uint32_t n) {
  if (IsDictCoded()) *this = Decoded();
  bool src_null = src.IsNull(phys);
  size_t before = PhysicalSize();
  if (src.IsDictCoded()) {
    // Materialize the value through the dictionary (NULL rows carry an
    // unspecified in-range code; emit a zero value under the null flag).
    const ColumnVector& d = *src.dict;
    size_t code = static_cast<size_t>(src.ints[phys]);
    switch (StorageClassOf(type)) {
      case StorageClass::kInt64: ints.push_back(src_null ? 0 : d.ints[code]); break;
      case StorageClass::kFloat64:
        doubles.push_back(src_null ? 0 : d.doubles[code]);
        break;
      case StorageClass::kString:
        strings.push_back(src_null ? std::string() : d.strings[code]);
        break;
    }
  } else {
    switch (StorageClassOf(type)) {
      case StorageClass::kInt64: ints.push_back(src.ints[phys]); break;
      case StorageClass::kFloat64: doubles.push_back(src.doubles[phys]); break;
      case StorageClass::kString: strings.push_back(src.strings[phys]); break;
    }
  }
  if (src_null || !nulls.empty()) {
    if (nulls.empty()) nulls.assign(before, 0);
    nulls.push_back(src_null ? 1 : 0);
  }
  if (n != 1 && runs.empty()) runs.assign(before, 1);
  if (!runs.empty()) runs.push_back(n);
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t start, size_t count) {
  if (count == 0) return;
  if (IsDictCoded()) *this = Decoded();
  if (src.IsDictCoded()) {
    for (size_t i = 0; i < count; ++i) AppendFrom(src, start + i);
    return;
  }
  size_t before = PhysicalSize();
  switch (StorageClassOf(type)) {
    case StorageClass::kInt64:
      ints.insert(ints.end(), src.ints.begin() + start, src.ints.begin() + start + count);
      break;
    case StorageClass::kFloat64:
      doubles.insert(doubles.end(), src.doubles.begin() + start,
                     src.doubles.begin() + start + count);
      break;
    case StorageClass::kString:
      strings.insert(strings.end(), src.strings.begin() + start,
                     src.strings.begin() + start + count);
      break;
  }
  if (!src.nulls.empty() || !nulls.empty()) {
    if (nulls.empty()) nulls.assign(before, 0);
    if (src.nulls.empty()) {
      nulls.resize(before + count, 0);
    } else {
      nulls.insert(nulls.end(), src.nulls.begin() + start,
                   src.nulls.begin() + start + count);
    }
  }
  if (!runs.empty()) runs.resize(runs.size() + count, 1);
}

Value ColumnVector::GetValue(size_t phys) const {
  if (IsNull(phys)) return Value::Null(type);
  if (IsDictCoded()) return dict->GetValue(static_cast<size_t>(ints[phys]));
  switch (StorageClassOf(type)) {
    case StorageClass::kInt64: return Value::OfInt(type, ints[phys]);
    case StorageClass::kFloat64: return Value::Float64(doubles[phys]);
    case StorageClass::kString: return Value::String(strings[phys]);
  }
  return Value::Null(type);
}

ColumnVector ColumnVector::Decoded() const {
  if (IsDictCoded()) {
    ColumnVector out(type);
    size_t n = ints.size();
    out.Reserve(n);
    const ColumnVector& d = *dict;
    switch (StorageClassOf(type)) {
      case StorageClass::kInt64:
        for (size_t i = 0; i < n; ++i)
          out.ints.push_back(IsNull(i) ? 0 : d.ints[static_cast<size_t>(ints[i])]);
        break;
      case StorageClass::kFloat64:
        for (size_t i = 0; i < n; ++i)
          out.doubles.push_back(IsNull(i) ? 0 : d.doubles[static_cast<size_t>(ints[i])]);
        break;
      case StorageClass::kString:
        for (size_t i = 0; i < n; ++i)
          out.strings.push_back(IsNull(i) ? std::string()
                                          : d.strings[static_cast<size_t>(ints[i])]);
        break;
    }
    out.nulls = nulls;
    return out;
  }
  if (!IsRle()) return *this;
  ColumnVector out(type);
  size_t total = Size();
  out.Reserve(total);
  if (!nulls.empty()) out.nulls.reserve(total);
  for (size_t i = 0; i < PhysicalSize(); ++i) {
    for (uint32_t r = 0; r < runs[i]; ++r) {
      switch (StorageClassOf(type)) {
        case StorageClass::kInt64: out.ints.push_back(ints[i]); break;
        case StorageClass::kFloat64: out.doubles.push_back(doubles[i]); break;
        case StorageClass::kString: out.strings.push_back(strings[i]); break;
      }
      if (!nulls.empty()) out.nulls.push_back(nulls[i]);
    }
  }
  return out;
}

namespace {

// Compacts physical entries in place, keeping entry i when kept(i) > 0 —
// its surviving row count, which becomes the new run length of an RLE
// vector. `nulls` and `runs` are either empty or parallel to `vals`.
template <typename T, typename Kept>
void CompactEntries(std::vector<T>* vals, std::vector<uint8_t>* nulls,
                    std::vector<uint32_t>* runs, Kept kept) {
  size_t out = 0;
  for (size_t i = 0; i < vals->size(); ++i) {
    uint32_t k = kept(i);
    if (k == 0) continue;
    if (out != i) {
      (*vals)[out] = std::move((*vals)[i]);
      if (!nulls->empty()) (*nulls)[out] = (*nulls)[i];
    }
    if (!runs->empty()) (*runs)[out] = k;
    ++out;
  }
  vals->resize(out);
  if (!nulls->empty()) nulls->resize(out);
  if (!runs->empty()) runs->resize(out);
}

}  // namespace

void ColumnVector::Filter(const std::vector<uint8_t>& sel) {
  auto compact = [&](auto* vals) {
    if (runs.empty()) {
      CompactEntries(vals, &nulls, &runs,
                     [&](size_t i) -> uint32_t { return sel[i] != 0; });
      return;
    }
    size_t row = 0;
    CompactEntries(vals, &nulls, &runs, [&](size_t i) {
      uint32_t k = 0;
      for (uint32_t r = 0; r < runs[i]; ++r) k += sel[row++] != 0;
      return k;
    });
  };
  // Dict codes live in `ints` whatever the value type; the dictionary is
  // shared and untouched.
  if (dict) {
    compact(&ints);
    return;
  }
  switch (StorageClassOf(type)) {
    case StorageClass::kInt64: compact(&ints); break;
    case StorageClass::kFloat64: compact(&doubles); break;
    case StorageClass::kString: compact(&strings); break;
  }
}

void ColumnVector::AppendGather(const ColumnVector& src,
                                const std::vector<uint32_t>& indices) {
  if (IsDictCoded()) *this = Decoded();
  if (src.IsDictCoded()) {
    // Adopt the dictionary when gathering into an empty vector (keeps sorts
    // and join materialization dict-coded); otherwise materialize values.
    if (PhysicalSize() == 0 && nulls.empty()) {
      dict = src.dict;
      dict_sorted = src.dict_sorted;
      ints.reserve(indices.size());
      for (uint32_t i : indices) ints.push_back(src.ints[i]);
      if (!src.nulls.empty()) {
        nulls.reserve(indices.size());
        for (uint32_t i : indices) nulls.push_back(src.nulls[i]);
      }
    } else {
      for (uint32_t i : indices) AppendFrom(src, i);
    }
    return;
  }
  size_t before = PhysicalSize();
  switch (StorageClassOf(type)) {
    case StorageClass::kInt64:
      ints.reserve(before + indices.size());
      for (uint32_t i : indices) ints.push_back(src.ints[i]);
      break;
    case StorageClass::kFloat64:
      doubles.reserve(before + indices.size());
      for (uint32_t i : indices) doubles.push_back(src.doubles[i]);
      break;
    case StorageClass::kString:
      strings.reserve(before + indices.size());
      for (uint32_t i : indices) strings.push_back(src.strings[i]);
      break;
  }
  if (!src.nulls.empty() || !nulls.empty()) {
    if (nulls.empty()) nulls.assign(before, 0);
    nulls.reserve(before + indices.size());
    for (uint32_t i : indices) nulls.push_back(src.IsNull(i) ? 1 : 0);
  }
}

size_t ColumnVector::MemoryBytes() const {
  size_t n = ints.capacity() * sizeof(int64_t) + doubles.capacity() * sizeof(double) +
             nulls.capacity() + runs.capacity() * sizeof(uint32_t);
  for (const auto& s : strings) n += s.capacity() + sizeof(std::string);
  if (dict) n += dict->MemoryBytes();  // shared, but charge every holder
  return n;
}

uint64_t ColumnVector::HashEntry(size_t phys) const {
  if (IsNull(phys)) return kNullHash;
  if (IsDictCoded()) return dict->HashEntry(static_cast<size_t>(ints[phys]));
  switch (StorageClassOf(type)) {
    case StorageClass::kInt64: return HashInt64(ints[phys]);
    case StorageClass::kFloat64: return HashDouble(doubles[phys]);
    case StorageClass::kString: return HashString(strings[phys]);
  }
  return 0;
}

namespace {

// Core of the batched hashers: one tight loop per (storage class, nullness,
// emit-mode, masked-vs-full) combination. Emit modes: kWrite stores the
// entry hash, kCombine folds it into the running key hash, kWriteSeeded
// stores HashCombine(seed, h) — the first column of a masked multi-column
// key, avoiding a separate seed-fill pass. `sel` (when kMasked) skips rows
// already filtered out so selective consumers (SIP after range pruning)
// never pay for dead rows.
enum class HashEmit { kWrite, kCombine, kWriteSeeded };

template <HashEmit kEmit, bool kMasked, typename Data, typename HashFn>
void HashLoop(const Data* data, const uint8_t* nulls, const uint8_t* sel, size_t n,
              uint64_t seed, uint64_t* out, HashFn hash_fn) {
  auto emit = [&](size_t i, uint64_t h) {
    if (kEmit == HashEmit::kWrite) {
      out[i] = h;
    } else if (kEmit == HashEmit::kCombine) {
      out[i] = HashCombine(out[i], h);
    } else {
      out[i] = HashCombine(seed, h);
    }
  };
  if (nulls == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (kMasked && !sel[i]) continue;
      emit(i, hash_fn(data[i]));
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (kMasked && !sel[i]) continue;
      emit(i, nulls[i] ? kNullHash : hash_fn(data[i]));
    }
  }
}

template <HashEmit kEmit, bool kMasked>
void HashColumnImpl(const ColumnVector& col, const uint8_t* sel, uint64_t seed,
                    uint64_t* out) {
  size_t n = col.PhysicalSize();
  const uint8_t* nulls = col.nulls.empty() ? nullptr : col.nulls.data();
  if (col.IsDictCoded()) {
    // Hash each dictionary entry once, then resolve rows by code lookup —
    // bit-identical to hashing the materialized values (NULL rows still map
    // to kNullHash via the null branch of HashLoop).
    std::vector<uint64_t> entry_hash(col.dict->PhysicalSize());
    for (size_t i = 0; i < entry_hash.size(); ++i)
      entry_hash[i] = col.dict->HashEntry(i);
    HashLoop<kEmit, kMasked>(col.ints.data(), nulls, sel, n, seed, out,
                             [&](int64_t code) {
                               return entry_hash[static_cast<size_t>(code)];
                             });
    return;
  }
  switch (StorageClassOf(col.type)) {
    case StorageClass::kInt64:
      HashLoop<kEmit, kMasked>(col.ints.data(), nulls, sel, n, seed, out,
                               [](int64_t v) { return HashInt64(v); });
      break;
    case StorageClass::kFloat64:
      HashLoop<kEmit, kMasked>(col.doubles.data(), nulls, sel, n, seed, out,
                               [](double v) { return HashDouble(v); });
      break;
    case StorageClass::kString:
      HashLoop<kEmit, kMasked>(col.strings.data(), nulls, sel, n, seed, out,
                               [](const std::string& v) { return HashString(v); });
      break;
  }
}

}  // namespace

void HashColumn(const ColumnVector& col, uint64_t* out) {
  HashColumnImpl<HashEmit::kWrite, false>(col, nullptr, 0, out);
}

void HashColumnCombine(const ColumnVector& col, uint64_t* out) {
  HashColumnImpl<HashEmit::kCombine, false>(col, nullptr, 0, out);
}

void HashRows(const RowBlock& block, const std::vector<uint32_t>& cols, uint64_t seed,
              std::vector<uint64_t>* out) {
  size_t n = block.NumRows();
  if (cols.empty()) {
    out->assign(n, seed);
    return;
  }
  out->resize(n);
  for (size_t ci = 0; ci < cols.size(); ++ci) {
    const ColumnVector& col = block.columns[cols[ci]];
    if (ci == 0) {
      HashColumnImpl<HashEmit::kWriteSeeded, false>(col, nullptr, seed, out->data());
    } else {
      HashColumnImpl<HashEmit::kCombine, false>(col, nullptr, 0, out->data());
    }
  }
}

void NullKeyMask(const RowBlock& block, const std::vector<uint32_t>& cols,
                 std::vector<uint8_t>* out) {
  size_t n = block.NumRows();
  out->assign(n, 0);
  for (uint32_t c : cols) {
    const auto& nulls = block.columns[c].nulls;
    if (nulls.empty()) continue;
    for (size_t i = 0; i < n; ++i) (*out)[i] |= nulls[i];
  }
}

void HashRowsMasked(const RowBlock& block, const std::vector<uint32_t>& cols,
                    uint64_t seed, const uint8_t* sel, std::vector<uint64_t>* out) {
  size_t n = block.NumRows();
  out->resize(n);  // unselected rows are left unwritten; callers must not read them
  if (cols.empty()) return;
  for (size_t ci = 0; ci < cols.size(); ++ci) {
    const ColumnVector& col = block.columns[cols[ci]];
    if (ci == 0) {
      HashColumnImpl<HashEmit::kWriteSeeded, true>(col, sel, seed, out->data());
    } else {
      HashColumnImpl<HashEmit::kCombine, true>(col, sel, 0, out->data());
    }
  }
}

int ColumnVector::CompareEntries(const ColumnVector& a, size_t ia, const ColumnVector& b,
                                 size_t ib) {
  bool an = a.IsNull(ia), bn = b.IsNull(ib);
  if (an || bn) return an && bn ? 0 : (an ? -1 : 1);
  if (a.IsDictCoded() || b.IsDictCoded()) {
    if (a.dict != nullptr && a.dict == b.dict && a.dict_sorted) {
      int64_t x = a.ints[ia], y = b.ints[ib];  // shared sorted dict: compare codes
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const ColumnVector& av = a.IsDictCoded() ? *a.dict : a;
    size_t ap = a.IsDictCoded() ? static_cast<size_t>(a.ints[ia]) : ia;
    const ColumnVector& bv = b.IsDictCoded() ? *b.dict : b;
    size_t bp = b.IsDictCoded() ? static_cast<size_t>(b.ints[ib]) : ib;
    return CompareEntries(av, ap, bv, bp);
  }
  switch (StorageClassOf(a.type)) {
    case StorageClass::kInt64: {
      int64_t x = a.ints[ia], y = b.ints[ib];
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case StorageClass::kFloat64:
      return CompareDoubles(a.doubles[ia], b.doubles[ib]);
    case StorageClass::kString: {
      int c = a.strings[ia].compare(b.strings[ib]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

std::string RowBlock::ToString(size_t max_rows) const {
  std::ostringstream ss;
  RowBlock flat = *this;
  flat.DecodeAll();
  size_t rows = flat.NumRows();
  for (size_t r = 0; r < rows && r < max_rows; ++r) {
    for (size_t c = 0; c < flat.columns.size(); ++c) {
      if (c) ss << " | ";
      ss << flat.columns[c].GetValue(r).ToString();
    }
    ss << "\n";
  }
  if (rows > max_rows) ss << "... (" << rows << " rows)\n";
  return ss.str();
}

}  // namespace stratica
