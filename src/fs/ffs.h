// FFS-derived file system model: cylinder groups, inode tables, creation-order
// i-numbers, first-fit block allocation.
//
// FLDC's gray-box inferences depend on precisely the allocator properties
// modeled here:
//  * files created in the same directory land in the same cylinder group;
//  * within a clean directory, i-number order matches data-block layout;
//  * deleted inodes are reused lowest-first, so aging gradually destroys the
//    i-number/layout correlation;
//  * a Solaris-like "sparse" allocator leaves inter-file gaps, so layout-order
//    reads still pay rotational delay (paper §4.2.3).
//
// The class manages metadata only (the simulation never stores file bytes);
// data timing flows through the page cache and disk model in src/os.
#ifndef SRC_FS_FFS_H_
#define SRC_FS_FFS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/clock.h"

namespace graysim {

using Inum = std::uint32_t;
constexpr Inum kInvalidInum = 0;

enum class FsErr : int {
  kOk = 0,
  kNotFound,
  kExists,
  kNotDir,
  kIsDir,
  kNoSpace,
  kNotEmpty,
  kInvalid,
  // Transient device error (EIO). Never produced by the file system itself;
  // injected by the chaos layer (src/os/chaos_engine.h) to model media
  // retries and flaky transport. Appended after kInvalid: FsErr values are
  // wire-frozen in negated-errno form across the SysApi boundary.
  kIo,
  // Blocking deadline expired (ETIMEDOUT): NetRecv with no arrival in time.
  // Like kIo, appended last to keep earlier values wire-frozen.
  kTimedOut,
  // Peer endpoint died under the receiver (ECONNRESET): the machine crashed
  // and tore down its endpoints while a fiber was blocked in NetRecv.
  // Appended last to keep earlier values wire-frozen.
  kConnReset,
};

[[nodiscard]] std::string_view FsErrName(FsErr err);

enum class AllocatorKind : std::uint8_t {
  kPacked,         // Linux/NetBSD-like: files packed back to back
  kSparse,         // Solaris-like: inter-file gaps
  kLogStructured,  // LFS-like: all writes append at the log head, so
                   // *temporal* write order == spatial order (paper §4.2.5)
};

struct FsParams {
  std::uint32_t block_size = 4096;
  std::uint64_t total_blocks = 0;    // derived from disk capacity when 0
  std::uint64_t blocks_per_cg = 8192;  // 32 MB cylinder groups
  std::uint32_t inodes_per_cg = 256;
  std::uint32_t inode_size = 128;    // 32 inodes per 4 KB block
  AllocatorKind allocator = AllocatorKind::kPacked;
  std::uint32_t sparse_file_gap_blocks = 12;  // gap left between files (kSparse)
};

template <typename Ar>
void Transfer(Ar& ar, FsParams& p) {
  ar(p.block_size, p.total_blocks, p.blocks_per_cg, p.inodes_per_cg, p.inode_size);
  ar.Enum(p.allocator, AllocatorKind::kLogStructured);
  ar(p.sparse_file_gap_blocks);
}

struct InodeAttr {
  Inum inum = kInvalidInum;
  bool is_dir = false;
  std::uint64_t size = 0;
  std::uint64_t blocks = 0;
  Nanos atime = 0;
  Nanos mtime = 0;
  Nanos ctime = 0;
};

struct DirEntryInfo {
  std::string name;
  Inum inum = kInvalidInum;
  bool is_dir = false;
};

// File system metadata manager for one disk.
class Ffs {
 public:
  Ffs(FsParams params, std::uint64_t disk_capacity_bytes);

  // --- namespace operations (paths are absolute, '/'-separated) ---
  [[nodiscard]] FsErr Lookup(std::string_view path, Inum* out) const;
  FsErr Create(std::string_view path, Inum* out);
  FsErr Mkdir(std::string_view path, Inum* out);
  FsErr Unlink(std::string_view path);
  FsErr Rmdir(std::string_view path);
  FsErr Rename(std::string_view from, std::string_view to);
  [[nodiscard]] FsErr ListDir(std::string_view path, std::vector<DirEntryInfo>* out) const;

  // --- inode operations ---
  [[nodiscard]] FsErr GetAttr(Inum inum, InodeAttr* out) const;
  [[nodiscard]] FsErr GetAttrPath(std::string_view path, InodeAttr* out) const;
  FsErr SetTimes(Inum inum, Nanos atime, Nanos mtime);
  void TouchAtime(Inum inum, Nanos now);
  // Grows or shrinks the file, allocating/freeing blocks.
  FsErr Resize(Inum inum, std::uint64_t new_size, Nanos now);

  // --- block geometry (used by the Os layer to drive the disk model) ---
  // Disk block number backing file block `file_block` of `inum`.
  [[nodiscard]] FsErr BlockOf(Inum inum, std::uint64_t file_block, std::uint64_t* out) const;
  // Byte offset on disk of an fs block.
  [[nodiscard]] std::uint64_t DiskOffsetOfBlock(std::uint64_t fs_block) const {
    return fs_block * params_.block_size;
  }
  // Disk block holding the on-disk inode for `inum` (for stat-cost modeling).
  [[nodiscard]] std::uint64_t InodeBlockOf(Inum inum) const;
  // Blocks holding directory entries of `dir_inum`.
  [[nodiscard]] FsErr DirBlocks(Inum dir_inum, std::vector<std::uint64_t>* out) const;

  [[nodiscard]] const FsParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t free_blocks() const { return free_data_blocks_; }
  [[nodiscard]] Inum root() const { return root_; }

  // --- introspection for tests/benches (not visible to gray-box layers) ---
  // Fraction of adjacent file-block pairs that are contiguous on disk.
  [[nodiscard]] double ContiguityOf(Inum inum) const;
  // Disk block of the first data block, or 0 if empty.
  [[nodiscard]] std::uint64_t FirstBlockOf(Inum inum) const;
  [[nodiscard]] std::uint64_t creation_seq_of(Inum inum) const;

  void set_clock_hint(Nanos now) { now_hint_ = now; }

  // --- crash recovery (Os::Recover) ---
  // Number of cylinder groups, and the metadata block range
  // [first_block, data_start) of group `g` — superblock copy plus inode
  // table, the blocks a post-crash consistency scan must read.
  [[nodiscard]] std::size_t GroupCount() const { return groups_.size(); }
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> GroupMetaRange(std::size_t g) const {
    return {groups_[g].first_block, groups_[g].data_start};
  }

  // Checkpoint form (src/sim/archive.h): geometry params, group bitmaps,
  // then one in-use flag per i-number slot 0..groups*inodes_per_cg with the
  // inode after each set flag, then the allocator cursors. A group with no
  // chunk transfers only clear flags, so the bytes are the same as for a
  // table built in full. Reading rejects an inode table that does not cover
  // exactly the groups, and an in-use i-number 0.
  template <typename Ar>
  void Transfer(Ar& ar) {
    ar(params_, groups_);
    const std::uint32_t per_cg = params_.inodes_per_cg;
    std::uint64_t slots = groups_.size() * per_cg + 1;
    bool zero_in_use = false;
    ar.Count(slots, 1);
    ar(zero_in_use);
    ar.Check(per_cg != 0 && slots != 0 && (slots - 1) % per_cg == 0 &&
             (slots - 1) / per_cg == groups_.size() && !zero_in_use);
    if constexpr (Ar::kReading) {
      inode_chunks_.assign(ar.ok() ? groups_.size() : 0, {});
    }
    for (std::vector<Inode>& chunk : inode_chunks_) {
      for (std::uint32_t slot = 0; slot < per_cg && ar.ok(); ++slot) {
        bool in_use = !chunk.empty() && chunk[slot].in_use;
        ar(in_use);
        if (!in_use) {
          continue;
        }
        if constexpr (Ar::kReading) {
          if (chunk.empty()) {
            chunk.resize(per_cg);
          }
          chunk[slot].in_use = true;
        }
        ar(chunk[slot]);
      }
    }
    ar(root_, free_data_blocks_, creation_counter_, dir_cg_rotor_, log_head_, now_hint_);
  }

  // Rough heap footprint in bytes (snapshot-size accounting; directory
  // payload strings are counted structurally, not byte-exactly).
  [[nodiscard]] std::uint64_t ApproxBytes() const {
    std::uint64_t bytes = sizeof(Ffs) + inode_chunks_.capacity() * sizeof(std::vector<Inode>);
    for (const std::vector<Inode>& chunk : inode_chunks_) {
      for (const Inode& ino : chunk) {
        bytes += sizeof(Inode) + ino.blocks.capacity() * sizeof(std::uint64_t) +
                 ino.child_order.capacity() * sizeof(std::string);
      }
    }
    for (const CylGroup& g : groups_) {
      bytes += sizeof(CylGroup) + g.block_used.capacity() / 8 + g.inode_used.capacity() / 8;
    }
    return bytes;
  }

 private:
  struct Inode {
    bool in_use = false;
    bool is_dir = false;
    std::uint64_t size = 0;
    Nanos atime = 0;
    Nanos mtime = 0;
    Nanos ctime = 0;
    std::uint64_t creation_seq = 0;
    std::uint32_t cg = 0;
    std::vector<std::uint64_t> blocks;  // disk block numbers, one per file block
    // Directory payload (metadata only; timing modeled via DirBlocks()).
    std::map<std::string, Inum, std::less<>> children;
    std::vector<std::string> child_order;  // readdir order = creation order

    // Everything but in_use (the table transfers that as a slot flag).
    // children is re-derived from (name, inum) pairs in child_order order.
    template <typename Ar>
    void Transfer(Ar& ar) {
      ar(is_dir, size, atime, mtime, ctime, creation_seq, cg, blocks);
      std::uint64_t n = child_order.size();
      ar.Count(n, 9);  // name length + inum
      for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
        if constexpr (Ar::kReading) {
          child_order.emplace_back();
        }
        std::string& name = child_order[i];
        const auto it = children.find(name);
        Inum child = it == children.end() ? kInvalidInum : it->second;
        ar(name, child);
        if constexpr (Ar::kReading) {
          children.emplace(name, child);
        }
      }
    }
  };

  struct CylGroup {
    std::uint64_t first_block = 0;      // first block of the group
    std::uint64_t data_start = 0;       // first data block (after inode table)
    std::uint64_t data_end = 0;         // one past last data block
    std::vector<bool> block_used;       // indexed by block - data_start
    std::vector<bool> inode_used;       // indexed by inode slot
    std::uint64_t free_blocks = 0;
    std::uint32_t free_inodes = 0;
    std::uint64_t rotor = 0;            // next-fit start for kSparse (relative)

    template <typename Ar>
    void Transfer(Ar& ar) {
      ar(first_block, data_start, data_end, block_used, inode_used, free_blocks, free_inodes,
         rotor);
    }
  };

  [[nodiscard]] static std::vector<std::string> SplitPath(std::string_view path);
  [[nodiscard]] FsErr ResolveParent(std::string_view path, Inum* parent,
                                    std::string* leaf) const;
  [[nodiscard]] FsErr ResolveInum(std::string_view path, Inum* out) const;

  [[nodiscard]] const Inode* Get(Inum inum) const;
  [[nodiscard]] Inode* Get(Inum inum);

  // Allocates an inode in (preferably) cylinder group `cg_hint`, lowest free
  // slot first (FFS reuses freed inodes lowest-first — key to Fig 6 aging).
  [[nodiscard]] Inum AllocInode(std::uint32_t cg_hint, bool is_dir);
  void FreeInode(Inum inum);

  // Allocates one data block for `inode`; `prev` is the previous block of
  // the file (contiguity preference) or 0 for the first block.
  [[nodiscard]] std::uint64_t AllocBlock(Inode& inode, std::uint64_t prev);
  void FreeBlock(std::uint64_t block);

  [[nodiscard]] std::uint32_t CgOfBlock(std::uint64_t block) const;
  [[nodiscard]] bool BlockIsFree(std::uint64_t block) const;
  void MarkBlock(std::uint64_t block, bool used);

  // Picks the cylinder group for a new directory (round-robin, FFS-style
  // load spreading).
  [[nodiscard]] std::uint32_t PickDirCg();

  FsParams params_;
  std::vector<CylGroup> groups_;
  // Inode storage, one chunk of inodes_per_cg per cylinder group, indexed by
  // slot (inum - 1 = group * inodes_per_cg + slot). A chunk stays empty until
  // the group's first AllocInode and is never resized after that, so an
  // Inode* stays valid across later allocations. Which slots are live is
  // still decided by the groups' inode_used bitmaps.
  std::vector<std::vector<Inode>> inode_chunks_;
  Inum root_ = kInvalidInum;
  std::uint64_t free_data_blocks_ = 0;
  std::uint64_t creation_counter_ = 0;
  std::uint32_t dir_cg_rotor_ = 0;
  std::uint64_t log_head_ = 0;  // kLogStructured global append cursor
  Nanos now_hint_ = 0;
};

}  // namespace graysim

#endif  // SRC_FS_FFS_H_
