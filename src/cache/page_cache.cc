#include "src/cache/page_cache.h"

#include <algorithm>
#include <cassert>

namespace graysim {

bool PageCache::Access(Inum inum, std::uint64_t page) {
  FrameId* ref = pages_.Find(Key(inum, page));
  if (ref == nullptr) {
    return false;
  }
  mem_->Touch(*ref);
  return true;
}

bool PageCache::Insert(Inum inum, std::uint64_t page, bool dirty, Nanos* evict_cost) {
  const std::uint64_t key = Key(inum, page);
  if (FrameId* ref = pages_.Find(key); ref != nullptr) {
    mem_->Touch(*ref);
    if (dirty) {
      MarkDirty(inum, page);
    }
    return true;
  }
  const FrameId ref =
      mem_->Insert(Page{PageKind::kFile, inum, page, dirty}, evict_cost);
  if (ref == kNoFrame) {
    return false;  // admission denied (sticky policy)
  }
  if (dirty) {
    dirty_order_.PushBack(mem_->frames(), ref);
  }
  pages_.Put(key, ref);
  ++per_file_count_[inum];
  std::uint64_t& end = per_file_end_[inum];
  end = std::max(end, page + 1);
  return true;
}

void PageCache::MarkDirty(Inum inum, std::uint64_t page) {
  FrameId* ref = pages_.Find(Key(inum, page));
  assert(ref != nullptr);
  if (!mem_->frames().dirty(*ref)) {
    mem_->MarkDirty(*ref);
    dirty_order_.PushBack(mem_->frames(), *ref);
  }
}

void PageCache::ClearDirty(FrameId frame) {
  if (mem_->frames().dirty(frame)) {
    dirty_order_.Remove(mem_->frames(), frame);
    mem_->MarkClean(frame);
  }
}

bool PageCache::OnEvicted(const Page& page) {
  const Inum inum = static_cast<Inum>(page.key1);
  const std::uint64_t key = Key(inum, page.key2);
  FrameId* ref = pages_.Find(key);
  assert(ref != nullptr);
  const bool was_dirty = page.dirty;
  if (was_dirty) {
    // The frame is still live here (MemSystem releases it after the
    // handler returns), so its dirty links are intact.
    dirty_order_.Remove(mem_->frames(), *ref);
  }
  std::uint64_t* count = per_file_count_.Find(inum);
  assert(count != nullptr);
  if (--*count == 0) {
    per_file_count_.Erase(inum);
    per_file_end_.Erase(inum);
  }
  pages_.Erase(key);
  return was_dirty;
}

void PageCache::DropFilePagesFrom(Inum inum, std::uint64_t first_page) {
  std::uint64_t* count = per_file_count_.Find(inum);
  if (count == nullptr) {
    return;
  }
  std::uint64_t* end = per_file_end_.Find(inum);
  assert(end != nullptr);
  if (first_page >= *end) {
    return;
  }
  const auto drop = [&](FrameId ref) {
    ClearDirty(ref);
    mem_->Remove(ref);
    --*count;
  };
  if ((*end - first_page) * 2 < pages_.slot_count()) {
    // Probe the file's own pages, in page order, until none are left. The
    // table ends up the same as after the slot scan below: backward-shift
    // deletion leaves the layout the erased keys would never have touched,
    // whatever order they go in.
    for (std::uint64_t page = first_page; page < *end && *count > 0; ++page) {
      const std::uint64_t key = Key(inum, page);
      if (const FrameId* ref = pages_.Find(key); ref != nullptr) {
        drop(*ref);
        pages_.Erase(key);
      }
    }
  } else {
    // The range spans at least half the table: one pass over the slots is
    // cheaper than probing every page of it.
    pages_.EraseIf([&](std::uint64_t key, FrameId ref) {
      if (KeyInum(key) != inum || KeyPage(key) < first_page) {
        return false;
      }
      drop(ref);
      return true;
    });
  }
  if (*count == 0) {
    per_file_count_.Erase(inum);
    per_file_end_.Erase(inum);
  } else {
    *end = first_page;  // every page at or beyond it is gone
  }
}

void PageCache::CopyStateFrom(const PageCache& other) {
  pages_ = other.pages_;
  per_file_count_ = other.per_file_count_;
  dirty_order_ = other.dirty_order_;
  per_file_end_.Clear();
  pages_.ForEach([this](std::uint64_t key, FrameId) {
    std::uint64_t& end = per_file_end_[KeyInum(key)];
    end = std::max(end, KeyPage(key) + 1);
  });
}

void PageCache::DropAll(std::vector<std::pair<Inum, std::uint64_t>>* dirty_dropped) {
  pages_.ForEach([&](std::uint64_t key, FrameId ref) {
    if (mem_->frames().dirty(ref) && dirty_dropped != nullptr) {
      dirty_dropped->emplace_back(KeyInum(key), KeyPage(key));
    }
    mem_->Remove(ref);
  });
  pages_.Clear();
  per_file_count_.Clear();
  per_file_end_.Clear();
  dirty_order_.Clear();
}

std::vector<std::pair<Inum, std::uint64_t>> PageCache::TakeOldestDirty(
    std::uint64_t max_pages) {
  std::vector<std::pair<Inum, std::uint64_t>> result;
  while (!dirty_order_.empty() && result.size() < max_pages) {
    const FrameId ref = dirty_order_.front();
    result.emplace_back(static_cast<Inum>(mem_->frames().key1(ref)),
                        mem_->frames().key2(ref));
    ClearDirty(ref);
  }
  return result;
}

std::vector<std::uint64_t> PageCache::TakeDirtyOfFile(Inum inum) {
  std::vector<std::uint64_t> result;
  FrameId ref = dirty_order_.front();
  while (ref != kNoFrame) {
    const FrameId next = DirtyList::Next(mem_->frames(), ref);
    if (static_cast<Inum>(mem_->frames().key1(ref)) == inum) {
      result.push_back(mem_->frames().key2(ref));
      dirty_order_.Remove(mem_->frames(), ref);
      mem_->MarkClean(ref);
    }
    ref = next;
  }
  return result;
}

std::uint64_t PageCache::CleanDirtyRunAfter(Inum inum, std::uint64_t page,
                                            std::uint64_t max_pages) {
  std::uint64_t n = 0;
  while (n < max_pages) {
    FrameId* ref = pages_.Find(Key(inum, page + 1 + n));
    if (ref == nullptr || !mem_->frames().dirty(*ref)) {
      break;
    }
    ClearDirty(*ref);
    ++n;
  }
  return n;
}

std::uint64_t PageCache::ResidentPagesOfFile(Inum inum) const {
  const std::uint64_t* count = per_file_count_.Find(inum);
  return count == nullptr ? 0 : *count;
}

}  // namespace graysim
