// File page cache: maps (inode, page-index) to resident frames.
//
// Pure bookkeeping — frames come from MemSystem (which applies the platform
// replacement policy) and all timing is charged by the Os layer. The cache
// also tracks dirty pages in age order so the Os can model write-behind and
// fsync.
//
// Hot-path layout: the residency map is an open-addressed FlatMap from the
// packed (inum, page) key to a FrameId, and the dirty chain is intrusive in
// the shared FrameTable (dirty_prev/dirty_next ids in each frame), so the
// access / insert / dirty paths perform no heap allocation. A file page's
// Page::dirty bit is exactly "on the dirty chain".
//
// Beside the per-file page count the cache keeps a per-file bound, one past
// the highest page cached since the file last had none. Dropping a file (or
// its tail) then probes just that file's page range instead of scanning the
// whole slot array. The bound is derived state: it is not checkpointed and
// is rebuilt from the residency map on CopyStateFrom.
#ifndef SRC_CACHE_PAGE_CACHE_H_
#define SRC_CACHE_PAGE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/fs/ffs.h"
#include "src/mem/mem_system.h"
#include "src/sim/clock.h"
#include "src/sim/flat_map.h"

namespace graysim {

class PageCache {
 public:
  explicit PageCache(MemSystem* mem) : mem_(mem) {
    pages_.Reserve(mem->total_pages());
  }

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // True (and LRU-refreshed) if the page is resident.
  bool Access(Inum inum, std::uint64_t page);

  [[nodiscard]] bool Resident(Inum inum, std::uint64_t page) const {
    return pages_.Contains(Key(inum, page));
  }

  // Inserts a page after a disk read (or for a write). Returns false when
  // the policy refuses admission (Solaris-like sticky cache when full).
  // Eviction I/O cost accumulates into *evict_cost.
  bool Insert(Inum inum, std::uint64_t page, bool dirty, Nanos* evict_cost);

  // Marks a resident page dirty (write path). The page must be resident.
  void MarkDirty(Inum inum, std::uint64_t page);

  // Called by the Os eviction handler when MemSystem evicts a file page:
  // removes the mapping. Returns true if the page was dirty.
  bool OnEvicted(const Page& page);

  // Drops every page of a file (unlink/truncate); dirty contents are
  // discarded (the file is going away).
  void DropFile(Inum inum) { DropFilePagesFrom(inum, 0); }

  // Drops cached pages at or beyond `first_page` (shrinking truncate).
  void DropFilePagesFrom(Inum inum, std::uint64_t first_page);

  // Drops all file pages (experimental cache flush). Dirty pages are
  // reported through *dirty_dropped so the caller can charge writeback.
  void DropAll(std::vector<std::pair<Inum, std::uint64_t>>* dirty_dropped);

  // Oldest dirty pages, up to `max_pages` (write-behind flushing). Marks
  // them clean. Returned in dirtying order.
  [[nodiscard]] std::vector<std::pair<Inum, std::uint64_t>> TakeOldestDirty(
      std::uint64_t max_pages);

  // All dirty pages of one file, marked clean (fsync).
  [[nodiscard]] std::vector<std::uint64_t> TakeDirtyOfFile(Inum inum);

  // All dirty pages whose (disk-tagged) inum satisfies `pred`, marked clean
  // (syncfs). Returned in dirtying order so writeback submission preserves
  // the write-order model.
  template <typename Pred>
  [[nodiscard]] std::vector<std::pair<Inum, std::uint64_t>> TakeDirtyMatching(Pred&& pred) {
    std::vector<std::pair<Inum, std::uint64_t>> out;
    const FrameTable& frames = mem_->frames();
    FrameId f = dirty_order_.front();
    while (f != kNoFrame) {
      const FrameId next = DirtyList::Next(frames, f);
      const Page page = frames.PageOf(f);
      const Inum inum = static_cast<Inum>(page.key1);
      if (pred(inum)) {
        out.emplace_back(inum, page.key2);
        ClearDirty(f);
      }
      f = next;
    }
    return out;
  }

  // Marks clean (and returns the count of) the resident dirty pages
  // immediately following (inum, page) — i.e. pages page+1..page+n while
  // consecutive, resident, and dirty, up to max_pages. Used to cluster
  // writeback when reclaim hits a dirty page: the whole run is written in
  // one request instead of page-at-a-time.
  [[nodiscard]] std::uint64_t CleanDirtyRunAfter(Inum inum, std::uint64_t page,
                                                 std::uint64_t max_pages);

  [[nodiscard]] std::uint64_t resident_pages() const { return pages_.size(); }
  [[nodiscard]] std::uint64_t dirty_pages() const { return dirty_order_.size(); }
  [[nodiscard]] std::uint64_t ResidentPagesOfFile(Inum inum) const;

  // Copies another cache's bookkeeping (machine snapshot/fork). The frame
  // ids in the maps and the intrusive dirty-chain head refer into the
  // MemSystem slab, which the owner copies alongside; mem_ stays bound to
  // this cache's own MemSystem. The per-file bounds are rebuilt from the
  // copied map, so a cache restored by the checkpoint loader (which fills
  // only the serialized maps) gets them as well.
  void CopyStateFrom(const PageCache& other);

  // Heap footprint of the residency maps (snapshot-size accounting).
  [[nodiscard]] std::uint64_t ApproxBytes() const {
    return sizeof(PageCache) + pages_.capacity_bytes() + per_file_count_.capacity_bytes() +
           per_file_end_.capacity_bytes();
  }

  // Checkpoint form (src/sim/archive.h): both maps with their exact slot
  // layouts, then the dirty chain's head/tail/size (its links live in the
  // frame slab). Neither map ever holds more entries than the machine has
  // frames, and pages_ is reserved for exactly that many, so a capacity
  // above max(16, 4 x frames) cannot come from a real machine. The frame
  // ids in pages_ and the dirty chain must name frames of the MemSystem
  // slab, which is read before this cache.
  template <typename Ar>
  void Transfer(Ar& ar) {
    const std::uint64_t max_capacity = std::max<std::uint64_t>(16, 4 * mem_->total_pages());
    const std::uint64_t frames = mem_->frames().frame_count();
    pages_.Transfer(ar, max_capacity);
    per_file_count_.Transfer(ar, max_capacity);
    dirty_order_.Transfer(ar, frames);
    if constexpr (Ar::kReading) {
      pages_.ForEach([&](std::uint64_t, FrameId frame) { ar.Check(frame < frames); });
    }
  }

  // Raw state for the slot-scan reference model in page_cache_index_test.
  [[nodiscard]] const FlatMap<FrameId>& pages_map() const { return pages_; }
  [[nodiscard]] FlatMap<FrameId>& pages_map_mutable() { return pages_; }
  [[nodiscard]] const FlatMap<std::uint64_t>& per_file_counts() const {
    return per_file_count_;
  }
  [[nodiscard]] FlatMap<std::uint64_t>& per_file_counts_mutable() { return per_file_count_; }
  [[nodiscard]] const DirtyList& dirty_list() const { return dirty_order_; }
  void RestoreDirtyList(const DirtyList& list) { dirty_order_ = list; }

 private:
  // Key packing: the full 32-bit (disk-tagged) inum in the high bits and a
  // 32-bit page index below it. Page indexes stay < 2^32 (that would be a
  // 16 TB file at 4 KB pages; the modeled disks are 9 GB).
  [[nodiscard]] static std::uint64_t Key(Inum inum, std::uint64_t page) {
    return (static_cast<std::uint64_t>(inum) << 32) | page;
  }
  static Inum KeyInum(std::uint64_t key) { return static_cast<Inum>(key >> 32); }
  static std::uint64_t KeyPage(std::uint64_t key) { return key & 0xFFFFFFFFULL; }

  // Unlinks the frame from the dirty chain if dirty (clearing Page::dirty).
  void ClearDirty(FrameId frame);

  MemSystem* mem_;
  FlatMap<FrameId> pages_;               // packed key -> frame id
  FlatMap<std::uint64_t> per_file_count_;  // inum -> resident pages
  FlatMap<std::uint64_t> per_file_end_;    // inum -> bound above its cached pages
  DirtyList dirty_order_;                // intrusive chain, oldest first
};

}  // namespace graysim

#endif  // SRC_CACHE_PAGE_CACHE_H_
