// Contiguous page-frame slab with intrusive LRU / dirty chains.
//
// Every resident page in the simulation — file-cache and anonymous alike —
// lives in one frame of a FrameTable and is named by a 32-bit FrameId. The
// replacement lists (MemSystem's file/anon LRUs) and the page cache's dirty
// chain are intrusive doubly-linked lists threaded through the frames, so a
// touch is a handful of id stores instead of a std::list node splice, and
// insert/evict never allocate: the slab is sized once to the machine's
// physical memory and frames recycle through a free list.
//
// The slab is split hot/cold by access frequency. The link records (16
// bytes), touch sequence numbers, and kind/dirty flag bytes each live in
// their own packed array — together well under the L2 of any modern host
// even for multi-GB simulated machines — while the page identity (which
// file/process, which page) is cold and only read when a page is inserted,
// evicted, or written back. An interleaved 48-byte Frame struct made every
// LRU splice pull four ~random cache lines from a slab bigger than L2; the
// split keeps the splice traffic L2-resident.
#ifndef SRC_MEM_FRAME_TABLE_H_
#define SRC_MEM_FRAME_TABLE_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace graysim {

enum class PageKind : std::uint8_t { kFile, kAnon };

struct Page {
  PageKind kind;
  std::uint64_t key1;  // file: inode number | anon: pid
  std::uint64_t key2;  // file: page index  | anon: virtual page number
  bool dirty = false;
  std::uint64_t last_touch = 0;  // global touch sequence number
};

using FrameId = std::uint32_t;
constexpr FrameId kNoFrame = 0xFFFFFFFFu;

// A list link or head names a frame of a `frames`-frame slab, or no frame.
[[nodiscard]] constexpr bool LinkWithin(FrameId id, std::uint64_t frames) {
  return id == kNoFrame || id < frames;
}

// Hot per-frame state: the intrusive list links.
struct FrameHot {
  FrameId lru_prev = kNoFrame;    // MemSystem replacement list
  FrameId lru_next = kNoFrame;
  FrameId dirty_prev = kNoFrame;  // PageCache write-behind chain
  FrameId dirty_next = kNoFrame;
};

template <typename Ar>
void Transfer(Ar& ar, FrameHot& h) {
  ar(h.lru_prev, h.lru_next, h.dirty_prev, h.dirty_next);
}

// The frame slab. Allocation pops a LIFO free list (or grows the slab while
// warming up); frame ids stay valid until Release. References into the slab
// are invalidated by Allocate (growth may move the arrays) — hold FrameIds
// across calls, not references.
class FrameTable {
 public:
  FrameTable() = default;

  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  // Pre-sizes the slab so Allocate never grows it (zero-allocation steady
  // state once the owner has reserved physical-memory capacity).
  void Reserve(std::uint64_t frames) {
    hot_.reserve(frames);
    touch_.reserve(frames);
    flags_.reserve(frames);
    key1_.reserve(frames);
    key2_.reserve(frames);
    free_.reserve(frames);
  }

  [[nodiscard]] FrameId Allocate() {
    if (!free_.empty()) {
      const FrameId id = free_.back();
      free_.pop_back();
      hot_[id] = FrameHot{};
      return id;
    }
    assert(hot_.size() < kNoFrame);
    hot_.emplace_back();
    touch_.push_back(0);
    flags_.push_back(0);
    key1_.push_back(0);
    key2_.push_back(0);
    return static_cast<FrameId>(hot_.size() - 1);
  }

  void Release(FrameId id) {
    assert(id < hot_.size());
    free_.push_back(id);
  }

  [[nodiscard]] FrameHot& hot(FrameId id) {
    assert(id < hot_.size());
    return hot_[id];
  }
  [[nodiscard]] const FrameHot& hot(FrameId id) const {
    assert(id < hot_.size());
    return hot_[id];
  }

  [[nodiscard]] std::uint64_t last_touch(FrameId id) const { return touch_[id]; }
  void set_last_touch(FrameId id, std::uint64_t seq) { touch_[id] = seq; }

  [[nodiscard]] PageKind kind(FrameId id) const {
    return (flags_[id] & kKindAnon) != 0 ? PageKind::kAnon : PageKind::kFile;
  }
  [[nodiscard]] bool dirty(FrameId id) const { return (flags_[id] & kDirty) != 0; }
  void set_dirty(FrameId id, bool dirty) {
    if (dirty) {
      flags_[id] |= kDirty;
    } else {
      flags_[id] &= static_cast<std::uint8_t>(~kDirty);
    }
  }

  [[nodiscard]] std::uint64_t key1(FrameId id) const { return key1_[id]; }
  [[nodiscard]] std::uint64_t key2(FrameId id) const { return key2_[id]; }

  // Stores a page's identity into the frame (insert path).
  void SetPage(FrameId id, const Page& page) {
    flags_[id] = static_cast<std::uint8_t>(
        (page.kind == PageKind::kAnon ? kKindAnon : 0) | (page.dirty ? kDirty : 0));
    key1_[id] = page.key1;
    key2_[id] = page.key2;
    touch_[id] = page.last_touch;
  }

  // Reassembles the page's identity (evict/writeback path — cold reads).
  [[nodiscard]] Page PageOf(FrameId id) const {
    return Page{kind(id), key1_[id], key2_[id], dirty(id), touch_[id]};
  }

  [[nodiscard]] std::uint64_t live_frames() const { return hot_.size() - free_.size(); }
  [[nodiscard]] std::uint64_t frame_count() const { return hot_.size(); }

  // Heap footprint of the slab arrays (snapshot-size accounting).
  [[nodiscard]] std::uint64_t ApproxBytes() const {
    return hot_.capacity() * sizeof(FrameHot) + touch_.capacity() * sizeof(std::uint64_t) +
           flags_.capacity() + key1_.capacity() * sizeof(std::uint64_t) +
           key2_.capacity() * sizeof(std::uint64_t) + free_.capacity() * sizeof(FrameId);
  }

  // Deep-copies another slab (machine snapshot/fork). FrameIds are plain
  // indices, so they stay valid across the copy — every FrameId-holding
  // structure (LRU lists, page tables, dirty chains) can be copied verbatim
  // alongside without translation.
  void CopyFrom(const FrameTable& other) {
    hot_ = other.hot_;
    touch_ = other.touch_;
    flags_ = other.flags_;
    key1_ = other.key1_;
    key2_ = other.key2_;
    free_ = other.free_;
  }

  // Checkpoint form (src/sim/archive.h): the frame count, the slab column
  // by column, then the free list. The free list's LIFO *order* is machine
  // state: Allocate pops the back, so a reordered free list hands out
  // different FrameIds after restore and diverges a bit-identical replay.
  // Reading rejects a free-list entry or link that names no frame of the
  // slab: every later list operation indexes the slab with it unchecked.
  template <typename Ar>
  void Transfer(Ar& ar) {
    std::uint64_t n = hot_.size();
    ar.Count(n, sizeof(FrameHot) + 8 + 1 + 8 + 8);
    ar.Check(n < kNoFrame);
    if constexpr (Ar::kReading) {
      if (!ar.ok()) {
        return;
      }
      hot_.resize(n);
      touch_.resize(n);
      flags_.resize(n);
      key1_.resize(n);
      key2_.resize(n);
    }
    ar(std::span(hot_), std::span(touch_), std::span(flags_), std::span(key1_),
       std::span(key2_), free_);
    if constexpr (Ar::kReading) {
      ar.Check(free_.size() <= n);
      for (const FrameId id : free_) {
        ar.Check(id < n);
      }
      for (const FrameHot& h : hot_) {
        ar.Check(LinkWithin(h.lru_prev, n) && LinkWithin(h.lru_next, n) &&
                 LinkWithin(h.dirty_prev, n) && LinkWithin(h.dirty_next, n));
      }
    }
  }

 private:
  static constexpr std::uint8_t kKindAnon = 1u << 0;
  static constexpr std::uint8_t kDirty = 1u << 1;

  std::vector<FrameHot> hot_;          // links: touched by every list op
  std::vector<std::uint64_t> touch_;   // LRU sequence numbers
  std::vector<std::uint8_t> flags_;    // kind + dirty bits
  std::vector<std::uint64_t> key1_;    // cold identity
  std::vector<std::uint64_t> key2_;
  std::vector<FrameId> free_;
};

// Intrusive doubly-linked list over one prev/next id pair inside FrameHot.
// Holds only head/tail/size; every link lives in the slab, so membership
// changes are pure id stores. Instantiated once per link pair:
//   IntrusiveFrameList<&FrameHot::lru_prev, &FrameHot::lru_next>
template <FrameId FrameHot::*PrevM, FrameId FrameHot::*NextM>
class IntrusiveFrameList {
 public:
  [[nodiscard]] bool empty() const { return head_ == kNoFrame; }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] FrameId front() const { return head_; }
  [[nodiscard]] FrameId back() const { return tail_; }

  [[nodiscard]] static FrameId Next(const FrameTable& t, FrameId id) {
    return t.hot(id).*NextM;
  }

  void PushBack(FrameTable& t, FrameId id) {
    FrameHot& f = t.hot(id);
    f.*PrevM = tail_;
    f.*NextM = kNoFrame;
    if (tail_ == kNoFrame) {
      head_ = id;
    } else {
      t.hot(tail_).*NextM = id;
    }
    tail_ = id;
    ++size_;
  }

  void Remove(FrameTable& t, FrameId id) {
    FrameHot& f = t.hot(id);
    const FrameId prev = f.*PrevM;
    const FrameId next = f.*NextM;
    if (prev == kNoFrame) {
      head_ = next;
    } else {
      t.hot(prev).*NextM = next;
    }
    if (next == kNoFrame) {
      tail_ = prev;
    } else {
      t.hot(next).*PrevM = prev;
    }
    f.*PrevM = kNoFrame;
    f.*NextM = kNoFrame;
    --size_;
  }

  // LRU refresh: unlink and re-append at the MRU end.
  void MoveToBack(FrameTable& t, FrameId id) {
    if (tail_ == id) {
      return;
    }
    Remove(t, id);
    PushBack(t, id);
  }

  void Clear() {
    head_ = tail_ = kNoFrame;
    size_ = 0;
  }

  // Checkpoint form: the links live in the slab and transfer with it; only
  // the head/tail/size triple is list-local. Reading rejects a head or tail
  // that names no frame of the `frames`-frame slab the list threads.
  template <typename Ar>
  void Transfer(Ar& ar, std::uint64_t frames) {
    ar(head_, tail_, size_);
    ar.Check(LinkWithin(head_, frames) && LinkWithin(tail_, frames) && size_ <= frames);
  }

 private:
  FrameId head_ = kNoFrame;
  FrameId tail_ = kNoFrame;
  std::uint64_t size_ = 0;
};

using LruList = IntrusiveFrameList<&FrameHot::lru_prev, &FrameHot::lru_next>;
using DirtyList = IntrusiveFrameList<&FrameHot::dirty_prev, &FrameHot::dirty_next>;

}  // namespace graysim

#endif  // SRC_MEM_FRAME_TABLE_H_
