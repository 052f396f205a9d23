// Platform profiles and the machine cost model.
//
// A PlatformProfile bundles the policy knobs that distinguish the paper's
// three evaluation platforms (Linux 2.2.17, NetBSD 1.5, Solaris 7). The
// CostModel holds the latency/bandwidth constants of the simulated machine
// (2×P-III class, 896 MB RAM, IBM 9LZX disks).
#ifndef SRC_OS_PLATFORM_H_
#define SRC_OS_PLATFORM_H_

#include <cstdint>
#include <string>

#include "src/disk/disk.h"
#include "src/fs/ffs.h"
#include "src/mem/mem_system.h"
#include "src/net/net_schedule.h"
#include "src/sim/clock.h"
#include "src/sim/fault_plan.h"

namespace graysim {

struct CostModel {
  Nanos syscall_overhead = Micros(1.5);
  double copy_mb_per_s = 320.0;        // kernel<->user copy bandwidth
  Nanos mem_touch = 150;               // touching a resident page (user level)
  Nanos zero_fill_page = Micros(3.0);  // allocate + zero one page
  Nanos page_fault_overhead = Micros(2.0);
  double cpu_scan_mb_per_s = 150.0;    // application CPU processing rate
  double cpu_sort_mb_per_s = 40.0;     // in-memory sort rate (fastsort)
  Nanos fork_exec = Millis(2.0);       // fork+exec for the gbp pipe path

  [[nodiscard]] Nanos CopyCost(std::uint64_t bytes) const {
    const double ns_per_byte = 1e9 / (copy_mb_per_s * 1024.0 * 1024.0);
    return static_cast<Nanos>(static_cast<double>(bytes) * ns_per_byte);
  }
  [[nodiscard]] Nanos ScanCost(std::uint64_t bytes) const {
    const double ns_per_byte = 1e9 / (cpu_scan_mb_per_s * 1024.0 * 1024.0);
    return static_cast<Nanos>(static_cast<double>(bytes) * ns_per_byte);
  }
  [[nodiscard]] Nanos SortCost(std::uint64_t bytes) const {
    const double ns_per_byte = 1e9 / (cpu_sort_mb_per_s * 1024.0 * 1024.0);
    return static_cast<Nanos>(static_cast<double>(bytes) * ns_per_byte);
  }
};

struct PlatformProfile {
  std::string name;
  MemPolicy mem_policy = MemPolicy::kUnifiedLru;
  std::uint64_t file_cache_bytes = 0;  // partition size (kPartitionedFixedFile)
  AllocatorKind fs_allocator = AllocatorKind::kPacked;
  bool readahead = true;
  // Whether the platform offers a mincore(2)-style residency syscall
  // (paper §4.1 footnote 1: not broadly available).
  bool has_mincore = false;

  // Linux 2.2-like: unified clock-LRU; nearly all memory is file cache.
  [[nodiscard]] static PlatformProfile Linux22() {
    PlatformProfile p;
    p.name = "linux2.2";
    p.mem_policy = MemPolicy::kUnifiedLru;
    p.fs_allocator = AllocatorKind::kPacked;
    p.has_mincore = true;  // Linux exposes mincore(2)
    return p;
  }

  // NetBSD 1.5-like: fixed 64 MB buffer cache ("a throwback to early UNIX").
  [[nodiscard]] static PlatformProfile NetBsd15() {
    PlatformProfile p;
    p.name = "netbsd1.5";
    p.mem_policy = MemPolicy::kPartitionedFixedFile;
    p.file_cache_bytes = 64ULL * 1024 * 1024;
    p.fs_allocator = AllocatorKind::kPacked;
    return p;
  }

  // Solaris 7-like: sticky file cache (hard to dislodge), sparser on-disk
  // packing of small files.
  [[nodiscard]] static PlatformProfile Solaris7() {
    PlatformProfile p;
    p.name = "solaris7";
    p.mem_policy = MemPolicy::kStickyFile;
    p.fs_allocator = AllocatorKind::kSparse;
    return p;
  }

  // Hypothetical LFS platform (paper §4.2.5: porting FLDC means swapping
  // the layout heuristic from i-number order to write-time order).
  [[nodiscard]] static PlatformProfile LfsVariant() {
    PlatformProfile p;
    p.name = "lfs";
    p.mem_policy = MemPolicy::kUnifiedLru;
    p.fs_allocator = AllocatorKind::kLogStructured;
    return p;
  }
};

struct MachineConfig {
  std::uint64_t phys_mem_bytes = 896ULL * 1024 * 1024;
  std::uint64_t kernel_reserved_bytes = 66ULL * 1024 * 1024;  // leaves ~830 MB
  std::uint32_t page_size = 4096;
  int num_disks = 5;
  DiskGeometry disk_geometry = DiskGeometry::Ibm9Lzx();
  FsParams fs_params;  // allocator overridden by the platform profile
  CostModel costs;
  Nanos scheduler_slice = Millis(10.0);
  // Multiplicative timing noise on every charged cost, uniform in
  // [1-jitter, 1+jitter]. Real machines are never noiseless; the gray-box
  // statistics only make sense against jittered observations. Deterministic
  // (seeded) so experiments stay reproducible.
  double timing_jitter = 0.10;
  std::uint64_t jitter_seed = 0x6a17;
  // Seed for the event queue's same-instant tie-breaking draws.
  std::uint64_t event_tie_seed = 0x5eed;
  // Write-behind: flush begins above this fraction of memory dirty.
  double dirty_ratio = 0.125;
  std::uint32_t readahead_min_pages = 8;
  std::uint32_t readahead_max_pages = 64;
  // Fault & interference schedule (disabled by default). When enabled the Os
  // arms a ChaosEngine at construction; see Os::ArmChaos for late arming.
  FaultPlan chaos;
  // Simulated network link (NetSend/NetRecv/NetPoll). Always constructed —
  // an idle link costs nothing; `net.seed` is machine-derived in fleets.
  NetSchedule net;
};

template <typename Ar>
void Transfer(Ar& ar, CostModel& c) {
  ar(c.syscall_overhead, c.copy_mb_per_s, c.mem_touch, c.zero_fill_page, c.page_fault_overhead,
     c.cpu_scan_mb_per_s, c.cpu_sort_mb_per_s, c.fork_exec);
}

template <typename Ar>
void Transfer(Ar& ar, PlatformProfile& p) {
  ar(p.name);
  ar.Enum(p.mem_policy, MemPolicy::kStickyFile);
  ar(p.file_cache_bytes);
  ar.Enum(p.fs_allocator, AllocatorKind::kLogStructured);
  ar(p.readahead, p.has_mincore);
}

template <typename Ar>
void Transfer(Ar& ar, MachineConfig& c) {
  ar(c.phys_mem_bytes, c.kernel_reserved_bytes, c.page_size, c.num_disks, c.disk_geometry,
     c.fs_params, c.costs, c.scheduler_slice, c.timing_jitter, c.jitter_seed, c.event_tie_seed,
     c.dirty_ratio, c.readahead_min_pages, c.readahead_max_pages, c.chaos, c.net);
}

}  // namespace graysim

#endif  // SRC_OS_PLATFORM_H_
