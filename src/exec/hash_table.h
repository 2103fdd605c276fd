// Flat open-addressing hash structures for the vectorized execution engine.
//
// The hash-heavy operators (hash group-by, hash join, SIP filtering) used to
// go through std::unordered_multimap / std::unordered_set, paying a
// per-lookup allocation-heavy bucket walk. These tables store (hash, payload)
// in flat arrays with linear probing over a power-of-two slot directory, so a
// probe is one cache line in the common case and the batched entry points
// keep the inner loops free of per-row type dispatch (see DESIGN.md §5).
//
// FlatHashTable keys entries by their full 64-bit hash and chains payloads
// that share one hash (multimap semantics, needed by the join build side and
// by group-by hash collisions). Key *equality* stays with the caller: the
// chain yields candidate payload ids and the operator verifies them against
// its own key storage.
#ifndef STRATICA_EXEC_HASH_TABLE_H_
#define STRATICA_EXEC_HASH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace stratica {

/// \brief Linear-probing multimap from 64-bit hash to dense payload ids.
///
/// Payload ids are assigned densely in insertion order (entry N of the table
/// has id N), which matches how consumers store their row-wise payloads:
/// group-by keys row g, a join build shard's row map entry e. Entries
/// sharing an exact 64-bit hash form an intrusive chain walked via Next().
/// Growth rebuilds the slot directory only; ids are stable and there are no
/// tombstones (the engine never deletes individual keys — tables are built,
/// probed, and dropped).
class FlatHashTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  FlatHashTable() { Rehash(kMinSlots); }

  /// Drop all entries but keep the allocated directory.
  void Clear();

  size_t NumEntries() const { return next_.size(); }
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) + entry_hash_.capacity() * sizeof(uint64_t) +
           next_.capacity() * sizeof(uint32_t);
  }

  /// Pre-size the directory for about `n` distinct hashes.
  void Reserve(size_t n);

  /// First payload id whose hash equals `hash` exactly, or kNone.
  uint32_t Probe(uint64_t hash) const {
    size_t idx = static_cast<size_t>(hash) & mask_;
    for (;;) {
      const Slot& s = slots_[idx];
      if (s.head == kNone) return kNone;
      if (s.hash == hash) return s.head;
      idx = (idx + 1) & mask_;
    }
  }

  /// Batched probe: out_heads[i] = Probe(hashes[i]). The loop prefetches the
  /// home slot of upcoming hashes so independent probes overlap cache misses.
  void ProbeBatch(const uint64_t* hashes, size_t n, uint32_t* out_heads) const;

  /// Prefetch the home slot of `hash` ahead of a later Probe.
  void Prefetch(uint64_t hash) const {
    __builtin_prefetch(&slots_[static_cast<size_t>(hash) & mask_]);
  }

  /// Next payload in the equal-hash chain (kNone terminates).
  uint32_t Next(uint32_t payload) const { return next_[payload]; }

  /// Append a payload (id == NumEntries()) linked under `hash`.
  uint32_t Insert(uint64_t hash);

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t head = kNone;
  };
  static constexpr size_t kMinSlots = 16;

  void Rehash(size_t new_slots);
  void GrowIfNeeded() {
    // Max load factor 7/8 over *distinct hashes*; chained duplicates don't
    // consume slots.
    if ((used_slots_ + 1) * 8 > slots_.size() * 7) Rehash(slots_.size() * 2);
  }
  /// Link entry `id` (hash `h`) into the directory. Requires a free slot.
  void Link(uint32_t id, uint64_t h);

  std::vector<Slot> slots_;
  std::vector<uint64_t> entry_hash_;  ///< per payload, for rehash + chains
  std::vector<uint32_t> next_;        ///< equal-hash chain
  size_t mask_ = 0;
  size_t used_slots_ = 0;
};

/// \brief Linear-probing set of 64-bit hash values (SIP key membership).
///
/// Values are assumed pre-mixed (they come out of HashRows/HashCombine), so
/// the low bits index directly. Value 0 is tracked out of band because 0
/// marks an empty slot.
class FlatHashSet {
 public:
  FlatHashSet() { slots_.assign(kMinSlots, 0); mask_ = kMinSlots - 1; }

  void Clear();
  size_t Size() const { return size_ + (has_zero_ ? 1 : 0); }
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(uint64_t); }

  /// Pre-size for about `n` values.
  void Reserve(size_t n);

  void Insert(uint64_t value);

  bool Contains(uint64_t value) const {
    if (value == 0) return has_zero_;
    size_t idx = static_cast<size_t>(value) & mask_;
    for (;;) {
      uint64_t s = slots_[idx];
      if (s == value) return true;
      if (s == 0) return false;
      idx = (idx + 1) & mask_;
    }
  }

  /// out[i] = Contains(values[i]) ? 1 : 0, with home-slot prefetching.
  void ContainsBatch(const uint64_t* values, size_t n, uint8_t* out) const;

 private:
  static constexpr size_t kMinSlots = 16;

  void Rehash(size_t new_slots);

  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;  ///< non-zero values stored
  bool has_zero_ = false;
};

}  // namespace stratica

#endif  // STRATICA_EXEC_HASH_TABLE_H_
