#include "src/fs/ffs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/sim/archive.h"

namespace graysim {
namespace {

constexpr std::uint64_t kDiskBytes = 9ULL * 1024 * 1024 * 1024;

Ffs MakeFs(AllocatorKind allocator = AllocatorKind::kPacked) {
  FsParams p;
  p.allocator = allocator;
  return Ffs(p, kDiskBytes);
}

TEST(FfsTest, CreateLookupUnlink) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fs.Create("/a", &inum), FsErr::kOk);
  EXPECT_NE(inum, kInvalidInum);
  Inum found = kInvalidInum;
  EXPECT_EQ(fs.Lookup("/a", &found), FsErr::kOk);
  EXPECT_EQ(found, inum);
  EXPECT_EQ(fs.Unlink("/a"), FsErr::kOk);
  EXPECT_EQ(fs.Lookup("/a", &found), FsErr::kNotFound);
}

TEST(FfsTest, CreateInMissingDirFails) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  EXPECT_EQ(fs.Create("/nodir/a", &inum), FsErr::kNotFound);
}

TEST(FfsTest, DuplicateCreateFails) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fs.Create("/a", &inum), FsErr::kOk);
  EXPECT_EQ(fs.Create("/a", &inum), FsErr::kExists);
}

TEST(FfsTest, MkdirAndNesting) {
  Ffs fs = MakeFs();
  Inum d = kInvalidInum;
  ASSERT_EQ(fs.Mkdir("/dir", &d), FsErr::kOk);
  Inum f = kInvalidInum;
  ASSERT_EQ(fs.Create("/dir/file", &f), FsErr::kOk);
  InodeAttr attr;
  ASSERT_EQ(fs.GetAttrPath("/dir/file", &attr), FsErr::kOk);
  EXPECT_FALSE(attr.is_dir);
  ASSERT_EQ(fs.GetAttrPath("/dir", &attr), FsErr::kOk);
  EXPECT_TRUE(attr.is_dir);
}

TEST(FfsTest, RmdirRequiresEmpty) {
  Ffs fs = MakeFs();
  Inum d = kInvalidInum;
  ASSERT_EQ(fs.Mkdir("/dir", &d), FsErr::kOk);
  Inum f = kInvalidInum;
  ASSERT_EQ(fs.Create("/dir/file", &f), FsErr::kOk);
  EXPECT_EQ(fs.Rmdir("/dir"), FsErr::kNotEmpty);
  ASSERT_EQ(fs.Unlink("/dir/file"), FsErr::kOk);
  EXPECT_EQ(fs.Rmdir("/dir"), FsErr::kOk);
}

TEST(FfsTest, CreationOrderGivesIncreasingInums) {
  Ffs fs = MakeFs();
  Inum prev = kInvalidInum;
  for (int i = 0; i < 50; ++i) {
    Inum inum = kInvalidInum;
    ASSERT_EQ(fs.Create("/f" + std::to_string(i), &inum), FsErr::kOk);
    if (prev != kInvalidInum) {
      EXPECT_GT(inum, prev);
    }
    prev = inum;
  }
}

TEST(FfsTest, FreedInumsAreReusedLowestFirst) {
  Ffs fs = MakeFs();
  std::vector<Inum> inums;
  for (int i = 0; i < 10; ++i) {
    Inum inum = kInvalidInum;
    ASSERT_EQ(fs.Create("/f" + std::to_string(i), &inum), FsErr::kOk);
    inums.push_back(inum);
  }
  ASSERT_EQ(fs.Unlink("/f3"), FsErr::kOk);
  ASSERT_EQ(fs.Unlink("/f7"), FsErr::kOk);
  Inum reused = kInvalidInum;
  ASSERT_EQ(fs.Create("/new1", &reused), FsErr::kOk);
  EXPECT_EQ(reused, inums[3]);  // lowest freed slot first
  ASSERT_EQ(fs.Create("/new2", &reused), FsErr::kOk);
  EXPECT_EQ(reused, inums[7]);
}

TEST(FfsTest, PackedAllocatorPacksSmallFilesContiguously) {
  Ffs fs = MakeFs(AllocatorKind::kPacked);
  std::vector<Inum> inums;
  for (int i = 0; i < 20; ++i) {
    Inum inum = kInvalidInum;
    ASSERT_EQ(fs.Create("/f" + std::to_string(i), &inum), FsErr::kOk);
    ASSERT_EQ(fs.Resize(inum, 8192, 0), FsErr::kOk);  // two blocks
    inums.push_back(inum);
  }
  // Each file is internally contiguous and files follow each other on disk.
  for (std::size_t i = 0; i < inums.size(); ++i) {
    EXPECT_DOUBLE_EQ(fs.ContiguityOf(inums[i]), 1.0);
    if (i > 0) {
      EXPECT_EQ(fs.FirstBlockOf(inums[i]), fs.FirstBlockOf(inums[i - 1]) + 2);
    }
  }
}

TEST(FfsTest, SparseAllocatorLeavesInterFileGaps) {
  Ffs fs = MakeFs(AllocatorKind::kSparse);
  Inum a = kInvalidInum;
  Inum b = kInvalidInum;
  ASSERT_EQ(fs.Create("/a", &a), FsErr::kOk);
  ASSERT_EQ(fs.Resize(a, 8192, 0), FsErr::kOk);
  ASSERT_EQ(fs.Create("/b", &b), FsErr::kOk);
  ASSERT_EQ(fs.Resize(b, 8192, 0), FsErr::kOk);
  const std::uint64_t gap = fs.FirstBlockOf(b) - fs.FirstBlockOf(a);
  EXPECT_GT(gap, 2u);  // more than just file a's two blocks
}

TEST(FfsTest, ResizeGrowsAndShrinks) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fs.Create("/a", &inum), FsErr::kOk);
  ASSERT_EQ(fs.Resize(inum, 10000, 5), FsErr::kOk);
  InodeAttr attr;
  ASSERT_EQ(fs.GetAttr(inum, &attr), FsErr::kOk);
  EXPECT_EQ(attr.size, 10000u);
  EXPECT_EQ(attr.blocks, 3u);
  const std::uint64_t free_before = fs.free_blocks();
  ASSERT_EQ(fs.Resize(inum, 4096, 6), FsErr::kOk);
  ASSERT_EQ(fs.GetAttr(inum, &attr), FsErr::kOk);
  EXPECT_EQ(attr.blocks, 1u);
  EXPECT_EQ(fs.free_blocks(), free_before + 2);
}

TEST(FfsTest, UnlinkFreesBlocks) {
  Ffs fs = MakeFs();
  const std::uint64_t free0 = fs.free_blocks();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fs.Create("/a", &inum), FsErr::kOk);
  ASSERT_EQ(fs.Resize(inum, 1 << 20, 0), FsErr::kOk);
  EXPECT_EQ(fs.free_blocks(), free0 - 256);
  ASSERT_EQ(fs.Unlink("/a"), FsErr::kOk);
  EXPECT_EQ(fs.free_blocks(), free0);
}

TEST(FfsTest, RenameMovesAcrossDirectories) {
  Ffs fs = MakeFs();
  Inum d1 = kInvalidInum;
  Inum d2 = kInvalidInum;
  ASSERT_EQ(fs.Mkdir("/d1", &d1), FsErr::kOk);
  ASSERT_EQ(fs.Mkdir("/d2", &d2), FsErr::kOk);
  Inum f = kInvalidInum;
  ASSERT_EQ(fs.Create("/d1/x", &f), FsErr::kOk);
  ASSERT_EQ(fs.Rename("/d1/x", "/d2/y"), FsErr::kOk);
  Inum found = kInvalidInum;
  EXPECT_EQ(fs.Lookup("/d1/x", &found), FsErr::kNotFound);
  ASSERT_EQ(fs.Lookup("/d2/y", &found), FsErr::kOk);
  EXPECT_EQ(found, f);  // the inode is preserved
}

TEST(FfsTest, RenameReplacesExistingFile) {
  Ffs fs = MakeFs();
  Inum a = kInvalidInum;
  Inum b = kInvalidInum;
  ASSERT_EQ(fs.Create("/a", &a), FsErr::kOk);
  ASSERT_EQ(fs.Create("/b", &b), FsErr::kOk);
  ASSERT_EQ(fs.Rename("/a", "/b"), FsErr::kOk);
  Inum found = kInvalidInum;
  ASSERT_EQ(fs.Lookup("/b", &found), FsErr::kOk);
  EXPECT_EQ(found, a);
}

TEST(FfsTest, RenameDirectory) {
  Ffs fs = MakeFs();
  Inum d = kInvalidInum;
  ASSERT_EQ(fs.Mkdir("/old", &d), FsErr::kOk);
  Inum f = kInvalidInum;
  ASSERT_EQ(fs.Create("/old/file", &f), FsErr::kOk);
  ASSERT_EQ(fs.Rename("/old", "/new"), FsErr::kOk);
  Inum found = kInvalidInum;
  ASSERT_EQ(fs.Lookup("/new/file", &found), FsErr::kOk);
  EXPECT_EQ(found, f);
}

TEST(FfsTest, ListDirReturnsCreationOrder) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fs.Create("/zz", &inum), FsErr::kOk);
  ASSERT_EQ(fs.Create("/aa", &inum), FsErr::kOk);
  ASSERT_EQ(fs.Create("/mm", &inum), FsErr::kOk);
  std::vector<DirEntryInfo> entries;
  ASSERT_EQ(fs.ListDir("/", &entries), FsErr::kOk);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "zz");
  EXPECT_EQ(entries[1].name, "aa");
  EXPECT_EQ(entries[2].name, "mm");
}

TEST(FfsTest, SetTimesRoundTrips) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fs.Create("/a", &inum), FsErr::kOk);
  ASSERT_EQ(fs.SetTimes(inum, Seconds(1.0), Seconds(2.0)), FsErr::kOk);
  InodeAttr attr;
  ASSERT_EQ(fs.GetAttr(inum, &attr), FsErr::kOk);
  EXPECT_EQ(attr.atime, Seconds(1.0));
  EXPECT_EQ(attr.mtime, Seconds(2.0));
}

TEST(FfsTest, AgingDecorrelatesInumFromLayout) {
  // Fill a directory, then delete and recreate files: new files reuse LOW
  // i-numbers (lowest-free-slot reuse) but their data lands FORWARD at the
  // allocator rotor, so the rank correlation between i-number and disk
  // position decays — the effect driving Fig 6.
  Ffs fs = MakeFs(AllocatorKind::kPacked);
  constexpr int kFiles = 100;
  constexpr std::uint64_t kSize = 8192;
  for (int i = 0; i < kFiles; ++i) {
    Inum inum = kInvalidInum;
    ASSERT_EQ(fs.Create("/f" + std::to_string(i), &inum), FsErr::kOk);
    ASSERT_EQ(fs.Resize(inum, kSize, 0), FsErr::kOk);
  }
  auto rank_correlation = [&]() {
    // Collect (inum, first block) for every live file and compute the
    // Pearson correlation of the two sequences.
    std::vector<DirEntryInfo> entries;
    EXPECT_EQ(fs.ListDir("/", &entries), FsErr::kOk);
    std::vector<std::pair<Inum, std::uint64_t>> points;
    for (const auto& e : entries) {
      points.emplace_back(e.inum, fs.FirstBlockOf(e.inum));
    }
    std::sort(points.begin(), points.end());
    double n = static_cast<double>(points.size());
    double sx = 0;
    double sy = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      sx += static_cast<double>(i);
      sy += static_cast<double>(points[i].second);
    }
    const double mx = sx / n;
    const double my = sy / n;
    double cov = 0;
    double vx = 0;
    double vy = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double dx = static_cast<double>(i) - mx;
      const double dy = static_cast<double>(points[i].second) - my;
      cov += dx * dy;
      vx += dx * dx;
      vy += dy * dy;
    }
    return cov / std::sqrt(vx * vy);
  };

  EXPECT_GT(rank_correlation(), 0.999) << "clean fs: inum order == layout order";
  // 20 epochs: delete 5 (deterministic spread), create 5 new.
  int created = 0;
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (int k = 0; k < 5; ++k) {
      const int victim = (epoch * 17 + k * 23) % kFiles;
      const std::string old_name = "/f" + std::to_string(victim);
      Inum dummy = kInvalidInum;
      if (fs.Lookup(old_name, &dummy) == FsErr::kOk) {
        ASSERT_EQ(fs.Unlink(old_name), FsErr::kOk);
      }
      Inum inum = kInvalidInum;
      ASSERT_EQ(fs.Create("/new" + std::to_string(created++), &inum), FsErr::kOk);
      ASSERT_EQ(fs.Resize(inum, kSize, 0), FsErr::kOk);
    }
  }
  EXPECT_LT(rank_correlation(), 0.8) << "aging should decorrelate inum from layout";
}

TEST(FfsTest, InodeBlockLocatedInOwningGroup) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fs.Create("/a", &inum), FsErr::kOk);
  const std::uint64_t block = fs.InodeBlockOf(inum);
  EXPECT_LT(block, fs.params().blocks_per_cg);  // root dir lives in group 0
}

TEST(FfsTest, FilesInDifferentDirsLandInDifferentGroups) {
  Ffs fs = MakeFs();
  Inum d1 = kInvalidInum;
  Inum d2 = kInvalidInum;
  ASSERT_EQ(fs.Mkdir("/d1", &d1), FsErr::kOk);
  ASSERT_EQ(fs.Mkdir("/d2", &d2), FsErr::kOk);
  Inum f1 = kInvalidInum;
  Inum f2 = kInvalidInum;
  ASSERT_EQ(fs.Create("/d1/a", &f1), FsErr::kOk);
  ASSERT_EQ(fs.Create("/d2/a", &f2), FsErr::kOk);
  ASSERT_EQ(fs.Resize(f1, 8192, 0), FsErr::kOk);
  ASSERT_EQ(fs.Resize(f2, 8192, 0), FsErr::kOk);
  const std::uint64_t cg1 = fs.FirstBlockOf(f1) / fs.params().blocks_per_cg;
  const std::uint64_t cg2 = fs.FirstBlockOf(f2) / fs.params().blocks_per_cg;
  EXPECT_NE(cg1, cg2);
}

TEST(FfsTest, LargeFileSpansGroupsMostlyContiguously) {
  Ffs fs = MakeFs();
  Inum inum = kInvalidInum;
  ASSERT_EQ(fs.Create("/big", &inum), FsErr::kOk);
  ASSERT_EQ(fs.Resize(inum, 128ULL << 20, 0), FsErr::kOk);  // 128 MB
  EXPECT_GT(fs.ContiguityOf(inum), 0.99);
}


// --- inode table allocated per cylinder group on first use ---------------

// Aged-file-system goldens (see AgedImageBytesAndInumOrderMatchTheFullTable).
constexpr std::size_t kGoldenInumCount = 2259;
constexpr std::uint64_t kGoldenInumHash = 15223023685986459960ULL;
constexpr std::size_t kGoldenImageSize = 808605;
constexpr std::uint64_t kGoldenImageHash = 11683498362914358344ULL;

// FNV-1a over a byte buffer.
std::uint64_t Fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

// Ages a file system deterministically: directories spread over groups,
// files of mixed sizes, unlinks, renames and re-creates (which reuse freed
// i-numbers lowest-first). Returns every i-number handed out, in order.
std::vector<Inum> Age(Ffs& fs) {
  std::vector<Inum> handed_out;
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  constexpr int kDirs = 6;
  constexpr int kFilesPerDir = 300;
  for (int d = 0; d < kDirs; ++d) {
    Inum inum = kInvalidInum;
    EXPECT_EQ(fs.Mkdir("/d" + std::to_string(d), &inum), FsErr::kOk);
    handed_out.push_back(inum);
  }
  int created = 0;
  for (int round = 0; round < 4; ++round) {
    fs.set_clock_hint(Seconds(static_cast<double>(round)));
    for (int i = 0; i < kDirs * kFilesPerDir / 2; ++i) {
      const std::string path = "/d" + std::to_string(next() % kDirs) + "/f" +
                               std::to_string(next() % kFilesPerDir);
      Inum inum = kInvalidInum;
      if (fs.Lookup(path, &inum) == FsErr::kOk) {
        if (next() % 4 == 0) {
          EXPECT_EQ(fs.Rename(path, path + "r" + std::to_string(created++)), FsErr::kOk);
        } else {
          EXPECT_EQ(fs.Unlink(path), FsErr::kOk);
        }
        continue;
      }
      if (fs.Create(path, &inum) != FsErr::kOk) {
        ADD_FAILURE() << "create " << path;
        continue;
      }
      handed_out.push_back(inum);
      EXPECT_EQ(fs.Resize(inum, 1 + next() % (256 * 1024), Seconds(round + 0.5)), FsErr::kOk);
    }
  }
  return handed_out;
}

std::vector<std::uint8_t> Serialized(const Ffs& fs) {
  WriteArchive ar;
  ar(fs);
  return ar.Take();
}

TEST(FfsSparseTest, AgedImageBytesAndInumOrderMatchTheFullTable) {
  // Golden values were produced by the eagerly built inode table this one
  // replaced: the checkpoint encoding and the i-number reuse order (which
  // FLDC's inferences read) must not move.
  Ffs fs = MakeFs();
  const std::vector<Inum> inums = Age(fs);
  std::vector<std::uint8_t> inum_bytes;
  for (const Inum inum : inums) {
    for (int i = 0; i < 4; ++i) {
      inum_bytes.push_back(static_cast<std::uint8_t>(inum >> (8 * i)));
    }
  }
  const std::vector<std::uint8_t> bytes = Serialized(fs);
  EXPECT_EQ(inums.size(), kGoldenInumCount);
  EXPECT_EQ(Fnv1a(inum_bytes), kGoldenInumHash);
  EXPECT_EQ(bytes.size(), kGoldenImageSize);
  EXPECT_EQ(Fnv1a(bytes), kGoldenImageHash);
}

TEST(FfsSparseTest, LoadedImageReserializesIdentically) {
  Ffs fs = MakeFs(AllocatorKind::kSparse);
  (void)Age(fs);
  const std::vector<std::uint8_t> bytes = Serialized(fs);
  Ffs loaded = MakeFs();
  ReadArchive ar(bytes.data(), bytes.size());
  ar(loaded);
  ASSERT_TRUE(ar.Done());
  EXPECT_EQ(Serialized(loaded), bytes);
  // Both continue identically: the next i-numbers come from the bitmaps.
  for (int i = 0; i < 20; ++i) {
    Inum a = kInvalidInum;
    Inum b = kInvalidInum;
    ASSERT_EQ(fs.Create("/d1/post" + std::to_string(i), &a), FsErr::kOk);
    ASSERT_EQ(loaded.Create("/d1/post" + std::to_string(i), &b), FsErr::kOk);
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(Serialized(loaded), Serialized(fs));
}

TEST(FfsSparseTest, InodeTableMustCoverExactlyTheGroups) {
  const Ffs fs = MakeFs();
  const std::vector<std::uint8_t> bytes = Serialized(fs);
  // Locate the slot count (groups * inodes_per_cg + 1, little-endian U64).
  const std::uint64_t slots = fs.GroupCount() * fs.params().inodes_per_cg + 1;
  std::vector<std::uint8_t> pattern;
  for (int i = 0; i < 8; ++i) {
    pattern.push_back(static_cast<std::uint8_t>(slots >> (8 * i)));
  }
  const auto at = std::search(bytes.begin(), bytes.end(), pattern.begin(), pattern.end());
  ASSERT_NE(at, bytes.end());
  const auto offset = static_cast<std::size_t>(at - bytes.begin());
  for (const std::uint64_t bad : {slots - 1, slots + fs.params().inodes_per_cg, std::uint64_t{0}}) {
    std::vector<std::uint8_t> corrupt = bytes;
    for (int i = 0; i < 8; ++i) {
      corrupt[offset + i] = static_cast<std::uint8_t>(bad >> (8 * i));
    }
    Ffs loaded = MakeFs();
    ReadArchive ar(corrupt.data(), corrupt.size());
    ar(loaded);
    EXPECT_FALSE(ar.ok()) << "slot count " << bad;
  }
}

TEST(FfsSparseTest, UntouchedGroupsHaveNoInodes) {
  Ffs fs = MakeFs();
  const std::uint32_t per_cg = fs.params().inodes_per_cg;
  const Inum last_group_first = static_cast<Inum>((fs.GroupCount() - 1) * per_cg + 1);
  InodeAttr attr;
  EXPECT_EQ(fs.GetAttr(last_group_first, &attr), FsErr::kNotFound);
  EXPECT_EQ(fs.GetAttr(last_group_first + per_cg - 1, &attr), FsErr::kNotFound);
  EXPECT_EQ(fs.GetAttr(static_cast<Inum>(fs.GroupCount() * per_cg + 1), &attr),
            FsErr::kNotFound);
  EXPECT_EQ(fs.GetAttr(kInvalidInum, &attr), FsErr::kNotFound);
  EXPECT_EQ(fs.creation_seq_of(last_group_first), 0u);
  // Only the root's group holds inodes: well under the ~11 MB a full table
  // of this disk's groups would take.
  EXPECT_LT(fs.ApproxBytes(), std::uint64_t{1} << 20);
}

TEST(FfsSparseTest, CopiedFileSystemIsIndependent) {
  Ffs source = MakeFs();
  (void)Age(source);
  const std::vector<std::uint8_t> before = Serialized(source);
  Ffs fork = source;
  EXPECT_EQ(Serialized(fork), before);

  // Mutate the fork, including a directory (and so a group chunk) the
  // source never touched.
  Inum dir = kInvalidInum;
  ASSERT_EQ(fork.Mkdir("/fresh", &dir), FsErr::kOk);
  Inum inum = kInvalidInum;
  ASSERT_EQ(fork.Create("/fresh/x", &inum), FsErr::kOk);
  ASSERT_EQ(fork.Resize(inum, 1 << 20, Seconds(9.0)), FsErr::kOk);
  std::vector<DirEntryInfo> entries;
  ASSERT_EQ(fork.ListDir("/d2", &entries), FsErr::kOk);
  ASSERT_FALSE(entries.empty());
  ASSERT_EQ(fork.Unlink("/d2/" + entries.front().name), FsErr::kOk);
  EXPECT_EQ(Serialized(source), before);
  InodeAttr attr;
  EXPECT_EQ(source.GetAttr(dir, &attr), FsErr::kNotFound);
  EXPECT_EQ(source.GetAttr(entries.front().inum, &attr), FsErr::kOk);

  // And the other way round.
  const std::vector<std::uint8_t> fork_bytes = Serialized(fork);
  ASSERT_EQ(source.Mkdir("/other", &dir), FsErr::kOk);
  ASSERT_EQ(source.Create("/other/y", &inum), FsErr::kOk);
  EXPECT_EQ(Serialized(fork), fork_bytes);
}

}  // namespace
}  // namespace graysim
