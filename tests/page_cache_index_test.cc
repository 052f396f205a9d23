// Equivalence suite for the page cache's per-file drop index.
//
// DropFile / DropFilePagesFrom probe only the dropped file's own page range
// (bounded by the per-file "one past the highest cached page" index) instead
// of the slot scan they replaced. The scan is kept here as the reference
// model, run through the cache's checkpoint surface, and a twin cache driven
// by the same pseudo-random op mix must end every step in the same state:
// the residency map's slot layout, the per-file counts (slot for slot), the
// dirty chain, the file LRU order and every file's resident count. Frame ids
// are compared by the page they hold, not by number: the index frees a
// file's frames in page order instead of slot order, so later inserts may
// land in different frames.
//
// The same check runs on a cache copied with CopyStateFrom (the fork path)
// and on one restored from a SaveMachineImage -> LoadMachineImage round
// trip, where the index is not serialized and must be rebuilt.
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/page_cache.h"
#include "src/mem/mem_system.h"
#include "src/os/machine.h"
#include "src/os/machine_image_io.h"
#include "src/workloads/filegen.h"
#include "tests/test_util.h"

namespace graysim {
namespace {

// One cache over its own memory system, evicting through the cache.
struct CacheTwin {
  explicit CacheTwin(MemSystem::Config config)
      : mem(config), cache(&mem), handler([this](const Page& page) {
          if (page.kind == PageKind::kFile) {
            (void)cache.OnEvicted(page);
          }
          return Nanos{0};
        }) {
    mem.set_evict_handler(&handler);
  }

  // A copy of `other` (machine snapshot/fork path).
  static std::unique_ptr<CacheTwin> CopyOf(const MemSystem& mem, const PageCache& cache) {
    auto twin = std::make_unique<CacheTwin>(mem.config());
    twin->mem.CopyStateFrom(mem);
    twin->cache.CopyStateFrom(cache);
    return twin;
  }

  MemSystem mem;
  PageCache cache;
  FnEviction handler;
};

// The pre-index DropFile / DropFilePagesFrom: one EraseIf pass over every
// slot of the residency map.
void SlotScanDrop(CacheTwin& t, Inum inum, std::uint64_t first_page) {
  DirtyList dirty = t.cache.dirty_list();
  FlatMap<std::uint64_t>& counts = t.cache.per_file_counts_mutable();
  t.cache.pages_map_mutable().EraseIf([&](std::uint64_t key, FrameId ref) {
    if ((key >> 32) != inum || (key & 0xFFFFFFFFULL) < first_page) {
      return false;
    }
    if (t.mem.frames().dirty(ref)) {
      dirty.Remove(t.mem.frames(), ref);
      t.mem.MarkClean(ref);
    }
    t.mem.Remove(ref);
    std::uint64_t* count = counts.Find(inum);
    if (--*count == 0) {
      counts.Erase(inum);
    }
    return true;
  });
  t.cache.RestoreDirtyList(dirty);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> DirtyChain(const CacheTwin& t) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (FrameId f = t.cache.dirty_list().front(); f != kNoFrame;
       f = DirtyList::Next(t.mem.frames(), f)) {
    out.emplace_back(t.mem.frames().key1(f), t.mem.frames().key2(f));
  }
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> FileLru(const CacheTwin& t) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (FrameId f = t.mem.file_lru().front(); f != kNoFrame;
       f = LruList::Next(t.mem.frames(), f)) {
    out.emplace_back(t.mem.frames().key1(f), t.mem.frames().key2(f));
  }
  return out;
}

void ExpectSameState(const CacheTwin& got, const CacheTwin& want,
                     const std::set<Inum>& inums, const std::string& where) {
  SCOPED_TRACE(where);
  const FlatMap<FrameId>& gp = got.cache.pages_map();
  const FlatMap<FrameId>& wp = want.cache.pages_map();
  ASSERT_EQ(gp.slot_count(), wp.slot_count());
  ASSERT_EQ(gp.size(), wp.size());
  for (std::size_t i = 0; i < gp.slot_count(); ++i) {
    ASSERT_EQ(gp.slot_key(i), wp.slot_key(i)) << "pages_ slot " << i;
    if (gp.slot_key(i) == FlatMap<FrameId>::kEmptyKey) {
      continue;
    }
    const Page a = got.mem.frames().PageOf(gp.slot_value(i));
    const Page b = want.mem.frames().PageOf(wp.slot_value(i));
    ASSERT_TRUE(a.key1 == b.key1 && a.key2 == b.key2 && a.dirty == b.dirty)
        << "pages_ slot " << i << " holds a different page";
  }
  const FlatMap<std::uint64_t>& gc = got.cache.per_file_counts();
  const FlatMap<std::uint64_t>& wc = want.cache.per_file_counts();
  ASSERT_EQ(gc.slot_count(), wc.slot_count());
  for (std::size_t i = 0; i < gc.slot_count(); ++i) {
    ASSERT_EQ(gc.slot_key(i), wc.slot_key(i)) << "per_file_count_ slot " << i;
    ASSERT_EQ(gc.slot_value(i), wc.slot_value(i)) << "per_file_count_ slot " << i;
  }
  ASSERT_EQ(DirtyChain(got), DirtyChain(want));
  ASSERT_EQ(FileLru(got), FileLru(want));
  ASSERT_EQ(got.cache.dirty_pages(), want.cache.dirty_pages());
  for (const Inum inum : inums) {
    ASSERT_EQ(got.cache.ResidentPagesOfFile(inum), want.cache.ResidentPagesOfFile(inum))
        << "inum " << inum;
  }
}

struct XorShift {
  std::uint64_t state;
  std::uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

// One step of the op mix, applied identically to every twin; drops go
// through the index on `indexed` twins and through the slot scan on `ref`.
void Step(XorShift& rng, const std::vector<CacheTwin*>& indexed, CacheTwin& ref,
          std::set<Inum>* inums) {
  // Files 1..7 stay small (the index probes them); file 8 spans far more
  // pages than the 256-frame pool, so its drops take the slot-scan path.
  const std::uint64_t r = rng.Next();
  const Inum inum = static_cast<Inum>(1 + (r >> 8) % 8);
  const std::uint64_t span = inum == 8 ? 4096 : 48;
  const std::uint64_t page = (r >> 20) % span;
  inums->insert(inum);
  std::vector<CacheTwin*> all = indexed;
  all.push_back(&ref);
  Nanos cost = 0;
  switch (r % 20) {
    case 0:
    case 1:
    case 2:
    case 3:
    case 4:
    case 5:
    case 6:
    case 7: {
      const bool dirty = (r >> 40) % 3 == 0;
      for (CacheTwin* t : all) {
        (void)t->cache.Insert(inum, page, dirty, &cost);
      }
      break;
    }
    case 8:
    case 9:
      for (CacheTwin* t : all) {
        (void)t->cache.Access(inum, page);
      }
      break;
    case 10:
      for (CacheTwin* t : all) {
        if (t->cache.Resident(inum, page)) {
          t->cache.MarkDirty(inum, page);
        }
      }
      break;
    case 11:
      for (CacheTwin* t : all) {
        (void)t->cache.TakeOldestDirty(1 + (r >> 40) % 8);
      }
      break;
    case 12:
      for (CacheTwin* t : all) {
        (void)t->cache.TakeDirtyOfFile(inum);
      }
      break;
    case 13:
      for (CacheTwin* t : all) {
        (void)t->cache.CleanDirtyRunAfter(inum, page, 4);
      }
      break;
    case 14:
    case 15:
    case 16:
      for (CacheTwin* t : indexed) {
        t->cache.DropFilePagesFrom(inum, page);
      }
      SlotScanDrop(ref, inum, page);
      break;
    default:
      for (CacheTwin* t : indexed) {
        t->cache.DropFile(inum);
      }
      SlotScanDrop(ref, inum, 0);
      break;
  }
}

class PageCacheIndexTest : public ::testing::TestWithParam<MemPolicy> {};

TEST_P(PageCacheIndexTest, MatchesSlotScanOnRandomOps) {
  const MemSystem::Config config{256, GetParam(), 128};
  for (const std::uint64_t seed : {0x9E3779B97F4A7C15ULL, 0xD1B54A32D192ED03ULL, 0x1ULL}) {
    CacheTwin indexed(config);
    CacheTwin ref(config);
    std::unique_ptr<CacheTwin> fork;
    std::set<Inum> inums;
    XorShift rng{seed};
    constexpr int kOps = 6000;
    for (int op = 0; op < kOps; ++op) {
      if (op == kOps / 2) {
        fork = CacheTwin::CopyOf(indexed.mem, indexed.cache);
        ExpectSameState(*fork, ref, inums, "right after CopyStateFrom");
      }
      std::vector<CacheTwin*> twins = {&indexed};
      if (fork != nullptr) {
        twins.push_back(fork.get());
      }
      Step(rng, twins, ref, &inums);
      ExpectSameState(indexed, ref, inums, "op " + std::to_string(op));
      if (fork != nullptr) {
        ExpectSameState(*fork, ref, inums, "fork, op " + std::to_string(op));
      }
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PageCacheIndexTest,
                         ::testing::Values(MemPolicy::kUnifiedLru,
                                           MemPolicy::kPartitionedFixedFile,
                                           MemPolicy::kStickyFile),
                         [](const ::testing::TestParamInfo<MemPolicy>& info) {
                           switch (info.param) {
                             case MemPolicy::kUnifiedLru:
                               return "UnifiedLru";
                             case MemPolicy::kPartitionedFixedFile:
                               return "PartitionedFixedFile";
                             case MemPolicy::kStickyFile:
                               return "StickyFile";
                           }
                           return "Unknown";
                         });

TEST(PageCacheIndexTest, RestoredCheckpointDropsLikeTheSlotScan) {
  // A warm machine with files of several sizes, some pages dirty.
  Machine machine(PlatformProfile::Linux22());
  Os& os = machine.os();
  const Pid pid = os.default_pid();
  for (int i = 0; i < 6; ++i) {
    const std::string path = "/d0/f" + std::to_string(i);
    const std::uint64_t size = (i + 1) * 512 * 1024;
    ASSERT_TRUE(graywork::MakeFile(os, pid, path, size));
    const int fd = os.Open(pid, path);
    for (std::uint64_t off = 0; off < size; off += 128 * 1024) {
      (void)os.Pread(pid, fd, {}, 64 * 1024, off);
    }
    (void)os.Pwrite(pid, fd, 96 * 1024, size / 3);
    (void)os.Close(pid, fd);
  }
  const MachineImage image = machine.Snapshot();
  const std::string path = ::testing::TempDir() + "/page_cache_index.gsim";
  std::string error;
  ASSERT_TRUE(SaveMachineImage(image, path, &error)) << error;
  MachineImage loaded;
  ASSERT_TRUE(LoadMachineImage(path, &loaded, &error)) << error;

  // Indexed caches from the in-memory image and from the loaded one, and
  // a slot-scan reference from the loaded one.
  auto from_memory = CacheTwin::CopyOf(*image.os.mem, *image.os.cache);
  auto from_disk = CacheTwin::CopyOf(*loaded.os.mem, *loaded.os.cache);
  auto ref = CacheTwin::CopyOf(*loaded.os.mem, *loaded.os.cache);
  std::set<Inum> inums;
  loaded.os.cache->pages_map().ForEach(
      [&inums](std::uint64_t key, FrameId) { inums.insert(static_cast<Inum>(key >> 32)); });
  ASSERT_GE(inums.size(), 6u);
  ExpectSameState(*from_disk, *ref, inums, "after load");
  ExpectSameState(*from_memory, *ref, inums, "after snapshot");

  // Truncate each file to a third, then drop every file.
  int step = 0;
  for (const bool whole : {false, true}) {
    for (const Inum inum : inums) {
      const std::uint64_t first_page = whole ? 0 : ref->cache.ResidentPagesOfFile(inum) / 3;
      from_memory->cache.DropFilePagesFrom(inum, first_page);
      from_disk->cache.DropFilePagesFrom(inum, first_page);
      SlotScanDrop(*ref, inum, first_page);
      const std::string where = "drop " + std::to_string(step++);
      ExpectSameState(*from_disk, *ref, inums, where);
      ExpectSameState(*from_memory, *ref, inums, where);
    }
  }
  EXPECT_EQ(from_disk->cache.resident_pages(), 0u);
}

}  // namespace
}  // namespace graysim
