#include "exec/hash_table.h"

namespace stratica {

namespace {

inline size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// FlatHashTable

void FlatHashTable::Clear() {
  for (auto& s : slots_) s.head = kNone;
  entry_hash_.clear();
  next_.clear();
  used_slots_ = 0;
}

void FlatHashTable::Reserve(size_t n) {
  size_t want = NextPow2(n + n / 4 + kMinSlots);
  if (want > slots_.size()) Rehash(want);
  entry_hash_.reserve(n);
  next_.reserve(n);
}

void FlatHashTable::Link(uint32_t id, uint64_t h) {
  size_t idx = static_cast<size_t>(h) & mask_;
  for (;;) {
    Slot& s = slots_[idx];
    if (s.head == kNone) {
      s.hash = h;
      s.head = id;
      next_[id] = kNone;
      ++used_slots_;
      return;
    }
    if (s.hash == h) {  // push onto the equal-hash chain (LIFO)
      next_[id] = s.head;
      s.head = id;
      return;
    }
    idx = (idx + 1) & mask_;
  }
}

void FlatHashTable::Rehash(size_t new_slots) {
  slots_.assign(new_slots, Slot{});
  mask_ = new_slots - 1;
  used_slots_ = 0;
  for (uint32_t id = 0; id < next_.size(); ++id) Link(id, entry_hash_[id]);
}

uint32_t FlatHashTable::Insert(uint64_t hash) {
  GrowIfNeeded();
  uint32_t id = static_cast<uint32_t>(next_.size());
  entry_hash_.push_back(hash);
  next_.push_back(kNone);
  Link(id, hash);
  return id;
}

void FlatHashTable::ProbeBatch(const uint64_t* hashes, size_t n,
                               uint32_t* out_heads) const {
  constexpr size_t kPrefetchDistance = 8;
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) Prefetch(hashes[i + kPrefetchDistance]);
    out_heads[i] = Probe(hashes[i]);
  }
}

// ---------------------------------------------------------------------------
// FlatHashSet

void FlatHashSet::Clear() {
  for (auto& s : slots_) s = 0;
  size_ = 0;
  has_zero_ = false;
}

void FlatHashSet::Reserve(size_t n) {
  size_t want = 1;
  while (want < n + n / 4 + kMinSlots) want <<= 1;
  if (want <= slots_.size()) return;
  Rehash(want);
}

void FlatHashSet::Rehash(size_t new_slots) {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(new_slots, 0);
  mask_ = new_slots - 1;
  size_ = 0;
  for (uint64_t v : old) {
    if (v != 0) Insert(v);
  }
}

void FlatHashSet::Insert(uint64_t value) {
  if (value == 0) {
    has_zero_ = true;
    return;
  }
  if ((size_ + 1) * 8 > slots_.size() * 7) Rehash(slots_.size() * 2);
  size_t idx = static_cast<size_t>(value) & mask_;
  for (;;) {
    uint64_t s = slots_[idx];
    if (s == value) return;  // already present
    if (s == 0) {
      slots_[idx] = value;
      ++size_;
      return;
    }
    idx = (idx + 1) & mask_;
  }
}

void FlatHashSet::ContainsBatch(const uint64_t* values, size_t n, uint8_t* out) const {
  constexpr size_t kPrefetchDistance = 8;
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      __builtin_prefetch(
          &slots_[static_cast<size_t>(values[i + kPrefetchDistance]) & mask_]);
    }
    out[i] = Contains(values[i]) ? 1 : 0;
  }
}

}  // namespace stratica
