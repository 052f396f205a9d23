// Open-addressed hash map from packed 64-bit keys, for the simulation's
// page-state tables.
//
// One cache line of linear probing replaces the node allocation plus pointer
// chase of std::unordered_map on every page lookup/insert/erase — the
// operations the page cache, the VM page tables, and the in-flight read map
// perform millions of times per simulated second. Erase uses backward-shift
// deletion (no tombstones), so probe sequences stay short regardless of
// churn, and steady-state operation performs zero heap allocations (growth
// is amortized doubling, eliminable entirely via Reserve).
//
// Keys are arbitrary 64-bit values except kEmptyKey (all ones), which no
// producer generates: page keys pack a 32-bit tagged inum over a 32-bit page
// index, virtual page numbers count up from 1, and ids count up from 0.
#ifndef SRC_SIM_FLAT_MAP_H_
#define SRC_SIM_FLAT_MAP_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace graysim {

template <typename V>
class FlatMap {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  // Heap footprint of the slot array (snapshot-size accounting).
  [[nodiscard]] std::size_t capacity_bytes() const { return slots_.size() * sizeof(Slot); }

  // Pre-sizes the table for `n` entries so no insert up to that count ever
  // rehashes (the zero-allocation steady state). Sized to keep the load
  // factor at or under 1/2: reserved maps sit on the miss-heavy
  // insert/erase path (page-cache evict cycles probe the table three times
  // per recycled page), and linear probing with backward-shift deletion
  // degrades quickly past half full.
  void Reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap < n * 2) {
      cap *= 2;
    }
    if (cap > slots_.size()) {
      Rehash(cap);
    }
  }

  [[nodiscard]] V* Find(std::uint64_t key) {
    assert(key != kEmptyKey);
    if (slots_.empty()) {
      return nullptr;
    }
    std::size_t i = Hash(key) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) {
        return &s.value;
      }
      if (s.key == kEmptyKey) {
        return nullptr;
      }
      i = (i + 1) & mask_;
    }
  }

  [[nodiscard]] const V* Find(std::uint64_t key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  [[nodiscard]] bool Contains(std::uint64_t key) const { return Find(key) != nullptr; }

  // Returns the value for `key`, default-constructing it if absent.
  V& operator[](std::uint64_t key) {
    assert(key != kEmptyKey);
    MaybeGrow();
    std::size_t i = Hash(key) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) {
        return s.value;
      }
      if (s.key == kEmptyKey) {
        s.key = key;
        s.value = V{};
        ++size_;
        return s.value;
      }
      i = (i + 1) & mask_;
    }
  }

  // Inserts (key -> value); overwrites an existing entry.
  void Put(std::uint64_t key, V value) { (*this)[key] = std::move(value); }

  // Removes `key`; returns false when absent.
  bool Erase(std::uint64_t key) {
    assert(key != kEmptyKey);
    if (slots_.empty()) {
      return false;
    }
    std::size_t i = Hash(key) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) {
        EraseAt(i);
        return true;
      }
      if (s.key == kEmptyKey) {
        return false;
      }
      i = (i + 1) & mask_;
    }
  }

  // Calls fn(key, value&) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.key != kEmptyKey) {
        fn(s.key, s.value);
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) {
        fn(s.key, s.value);
      }
    }
  }

  // Erases every entry for which pred(key, value&) returns true. Because
  // backward-shift deletion can cyclically re-home surviving entries, pred
  // may be evaluated more than once for an entry it declines — it must be a
  // pure predicate over (key, value).
  template <typename Pred>
  void EraseIf(Pred&& pred) {
    for (std::size_t i = 0; i < slots_.size();) {
      Slot& s = slots_[i];
      if (s.key != kEmptyKey && pred(s.key, s.value)) {
        EraseAt(i);  // re-examine slot i: deletion may shift an entry into it
      } else {
        ++i;
      }
    }
  }

  void Clear() {
    for (Slot& s : slots_) {
      s.key = kEmptyKey;
      s.value = V{};
    }
    size_ = 0;
  }

  // Raw slot access (tests compare layouts slot by slot).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] std::uint64_t slot_key(std::size_t i) const { return slots_[i].key; }
  [[nodiscard]] const V& slot_value(std::size_t i) const { return slots_[i].value; }

  // Checkpoint form (src/sim/archive.h): the capacity, the live count, then
  // (slot index, key, value) per live slot. The exact open-addressing
  // layout is machine state: ForEach order is layout order, and a map
  // rebuilt by reinsertion could iterate differently — enough to diverge a
  // bit-identical replay. Reading rejects a capacity that is not 0 or a
  // power of two in [kMinCapacity, max_capacity], more live slots than the
  // 3/4 load factor allows, and slots out of range, repeated, or holding
  // kEmptyKey. Callers derive max_capacity from the image (see the growth
  // rule in MaybeGrow/Reserve: a map that never held more than n entries
  // has at most max(kMinCapacity, 4n) slots).
  template <typename Ar>
  void Transfer(Ar& ar, std::uint64_t max_capacity) {
    std::uint64_t cap = slots_.size();
    std::uint64_t live = size_;
    ar(cap);
    ar.Count(live, 17);  // index + key + at least one value byte
    if constexpr (Ar::kReading) {
      ar.Check(cap == 0 || (cap >= kMinCapacity && cap <= max_capacity &&
                            (cap & (cap - 1)) == 0));
      ar.Check(live <= cap - cap / 4);
      if (!ar.ok()) {
        return;
      }
      slots_.assign(cap, Slot{});
      mask_ = cap == 0 ? 0 : cap - 1;
      size_ = 0;
      for (; size_ < live && ar.ok(); ++size_) {
        std::uint64_t index = 0;
        std::uint64_t key = 0;
        ar(index, key);
        ar.Check(index < cap && key != kEmptyKey && slots_[index].key == kEmptyKey);
        if (ar.ok()) {
          slots_[index].key = key;
          ar(slots_[index].value);
        }
      }
    } else {
      for (std::uint64_t i = 0; i < cap; ++i) {
        if (slots_[i].key != kEmptyKey) {
          ar(i, slots_[i].key, slots_[i].value);
        }
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    V value{};
  };

  static constexpr std::size_t kMinCapacity = 16;

  // splitmix64 finalizer: full-avalanche mix of the packed key.
  [[nodiscard]] static std::size_t Hash(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }

  void MaybeGrow() {
    if (slots_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {  // load factor 3/4
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    for (Slot& s : old) {
      if (s.key == kEmptyKey) {
        continue;
      }
      std::size_t i = Hash(s.key) & mask_;
      while (slots_[i].key != kEmptyKey) {
        i = (i + 1) & mask_;
      }
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
    }
  }

  // Backward-shift deletion: close the hole at `i` by walking the probe
  // chain and pulling back any entry whose ideal slot lies at or before the
  // hole, preserving lookup invariants without tombstones.
  void EraseAt(std::size_t i) {
    --size_;
    std::size_t j = i;
    while (true) {
      slots_[i].key = kEmptyKey;
      slots_[i].value = V{};
      while (true) {
        j = (j + 1) & mask_;
        if (slots_[j].key == kEmptyKey) {
          return;
        }
        // If the entry's ideal position lies cyclically within (i, j], it
        // already sits at or after its home and must not move back past it.
        const std::size_t ideal = Hash(slots_[j].key) & mask_;
        const bool reachable =
            i <= j ? (ideal > i && ideal <= j) : (ideal > i || ideal <= j);
        if (!reachable) {
          break;
        }
      }
      slots_[i].key = slots_[j].key;
      slots_[i].value = std::move(slots_[j].value);
      i = j;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace graysim

#endif  // SRC_SIM_FLAT_MAP_H_
