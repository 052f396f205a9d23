// Microbenchmarks for the hot-path datastructures behind the simulation
// kernel and memory hierarchy: page-cache lookup+touch, intrusive LRU
// splice, insert/evict recycling through the frame slab, and event-queue
// push/pop. These are the operations the frame-table refactor targeted;
// each loop also reports heap allocations per operation (expected: 0 in
// steady state) so a regression that reintroduces per-op allocation fails
// the perf-smoke gate loudly rather than showing up as a diffuse slowdown.
//
// The event-queue section races the timer wheel against the reference
// binary heap (src/sim/ref_event_heap.h) at 1K, 100K, and 1M pending
// events: the wheel's schedule+dispatch cost should be flat across the
// three depths (O(1)) while the heap degrades logarithmically. A final
// section prices Machine::Snapshot/Fork — nanoseconds per fork and bytes
// per image on a warmed machine — the costs the robustness-matrix
// warm-once/fork-per-cell pattern depends on. The last two sections price
// a fleet host's life cycle: building a service-shaped Machine (host ns and
// exact heap bytes per build) and unlinking a small file out of a 1M-page
// page cache (the DropFile path every simulated unlink takes). The last
// prices one fiber switch through the scheduler, the cost every simulated
// sleep, wake and slice expiry pays on top of its own work.
//
// Loops are deterministic (fixed xorshift seed) and sized to run long
// enough to dominate timer noise while keeping the whole binary under a
// few seconds.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_hook.h"
#include "bench/bench_util.h"
#include "src/cache/page_cache.h"
#include "src/mem/mem_system.h"
#include "src/os/machine.h"
#include "src/os/scheduler.h"
#include "src/sim/event_queue.h"
#include "src/sim/ref_event_heap.h"
#include "src/workloads/filegen.h"

namespace {

using graysim::EventQueue;
using graysim::FrameId;
using graysim::kNoFrame;
using graysim::Machine;
using graysim::MachineConfig;
using graysim::MachineImage;
using graysim::MemPolicy;
using graysim::MemSystem;
using graysim::Nanos;
using graysim::Page;
using graysim::PageCache;
using graysim::PageKind;
using graysim::PlatformProfile;
using graysim::RefEventHeap;

// Deterministic 64-bit xorshift; seeded per-loop so runs are reproducible.
struct XorShift {
  std::uint64_t state;
  std::uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

struct LoopResult {
  double mops = 0.0;            // million operations per host second
  double allocs_per_op = 0.0;
};

// Times `ops` iterations of `body(i)` and captures the allocation delta.
template <typename Body>
LoopResult TimeLoop(std::uint64_t ops, Body&& body) {
  const gbench::AllocCounts alloc_start = gbench::AllocSnapshot();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    body(i);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const gbench::AllocCounts alloc_end = gbench::AllocSnapshot();
  LoopResult r;
  r.mops = static_cast<double>(ops) / secs / 1e6;
  r.allocs_per_op =
      static_cast<double>(alloc_end.allocs - alloc_start.allocs) / static_cast<double>(ops);
  return r;
}

void Report(gbench::JsonResults& json, const char* name, const LoopResult& r) {
  std::printf("%-28s %10.2f Mops/s %10.4f allocs/op\n", name, r.mops, r.allocs_per_op);
  json.Add(std::string(name) + "_ops_per_s", r.mops * 1e6, "ops/s");
  json.Add(std::string(name) + "_allocs_per_op", r.allocs_per_op);
}

// A machine-sized pool: 160 MB of 4 KB frames, matching the golden
// workload's configuration so the numbers track the simulation's reality.
constexpr std::uint64_t kPoolPages = 40960;

class DropEvictions : public graysim::EvictionHandler {
 public:
  Nanos OnEvict(const Page&) override { return 0; }
};

class CacheEvictions : public graysim::EvictionHandler {
 public:
  explicit CacheEvictions(PageCache* cache) : cache_(cache) {}
  Nanos OnEvict(const Page& page) override {
    (void)cache_->OnEvicted(page);
    return 0;
  }

 private:
  PageCache* cache_;
};

LoopResult BenchLruTouch() {
  MemSystem mem(MemSystem::Config{kPoolPages, MemPolicy::kUnifiedLru, 0});
  DropEvictions handler;
  mem.set_evict_handler(&handler);
  std::vector<FrameId> refs;
  Nanos cost = 0;
  for (std::uint64_t i = 0; i < kPoolPages; ++i) {
    refs.push_back(mem.Insert(Page{PageKind::kAnon, 1, i, true}, &cost));
  }
  XorShift rng{0x9E3779B97F4A7C15ULL};
  return TimeLoop(20'000'000, [&](std::uint64_t) {
    mem.Touch(refs[rng.Next() % kPoolPages]);
  });
}

LoopResult BenchPageCacheHit(PageCache& cache) {
  XorShift rng{0xDEADBEEFCAFEF00DULL};
  return TimeLoop(20'000'000, [&](std::uint64_t) {
    const std::uint64_t r = rng.Next();
    (void)cache.Access(1 + (r & 7), (r >> 3) % (kPoolPages / 16));
  });
}

LoopResult BenchInsertEvict() {
  MemSystem mem(MemSystem::Config{kPoolPages, MemPolicy::kUnifiedLru, 0});
  PageCache cache(&mem);
  CacheEvictions handler(&cache);
  mem.set_evict_handler(&handler);
  Nanos cost = 0;
  // Fill the pool once; every further insert recycles a frame through the
  // free list (steady-state miss path: evict + slab reuse + map update).
  std::uint64_t next_page = 0;
  for (; next_page < kPoolPages; ++next_page) {
    (void)cache.Insert(1, next_page, false, &cost);
  }
  return TimeLoop(2'000'000, [&](std::uint64_t) {
    (void)cache.Insert(1, next_page++, false, &cost);
  });
}

LoopResult BenchEventQueue() {
  EventQueue queue(0x5555AAAA5555AAAAULL);
  XorShift rng{0x123456789ABCDEF0ULL};
  std::uint64_t sink = 0;
  Nanos now = 0;
  // Each iteration: push a batch of events at pseudo-random future times,
  // then drain everything due. Counts pushes as the operation (each push
  // has a matching pop).
  constexpr std::uint64_t kBatch = 64;
  const LoopResult r = TimeLoop(4'000'000 / kBatch, [&](std::uint64_t) {
    for (std::uint64_t k = 0; k < kBatch; ++k) {
      const Nanos when = now + 1 + rng.Next() % 1000;
      queue.ScheduleAt(when, EventQueue::Band::kCompletion,
                       graysim::EventFn([&sink] { ++sink; }));
    }
    now += 1000;
    queue.RunDue(now);
  });
  // Rescale from batches to individual push+pop pairs.
  LoopResult scaled = r;
  scaled.mops = r.mops * static_cast<double>(kBatch);
  scaled.allocs_per_op = r.allocs_per_op / static_cast<double>(kBatch);
  return scaled;
}

// Steady-state schedule+dispatch with `backlog` events pending: the queue
// carries a standing population of far-future events while the loop pushes
// and drains near-term ones. The backlog is what separates O(1) from
// O(log n) — the heap sifts every push/pop through log2(backlog) levels,
// the wheel never looks at the parked events at all.
template <typename Queue>
LoopResult BenchEventQueueAtDepth(std::uint64_t backlog) {
  Queue queue(0x5555AAAA5555AAAAULL);
  XorShift rng{0xFEDCBA9876543210ULL};
  std::uint64_t sink = 0;
  // Park the backlog far enough out that the working loop never reaches it
  // (the wheel keeps them in high levels / overflow; the heap carries them
  // in every sift).
  constexpr Nanos kParkBase = Nanos{1} << 50;
  for (std::uint64_t i = 0; i < backlog; ++i) {
    queue.ScheduleAt(kParkBase + (rng.Next() % (Nanos{1} << 30)),
                     EventQueue::Band::kCompletion,
                     graysim::EventFn([&sink] { ++sink; }));
  }
  Nanos now = 0;
  constexpr std::uint64_t kBatch = 64;
  const std::uint64_t batches = (backlog >= 1'000'000 ? 1'000'000 : 2'000'000) / kBatch;
  const LoopResult r = TimeLoop(batches, [&](std::uint64_t) {
    for (std::uint64_t k = 0; k < kBatch; ++k) {
      const Nanos when = now + 1 + rng.Next() % 1000;
      queue.ScheduleAt(when, EventQueue::Band::kCompletion,
                       graysim::EventFn([&sink] { ++sink; }));
    }
    now += 1000;
    queue.RunDue(now);
  });
  LoopResult scaled = r;
  scaled.mops = r.mops * static_cast<double>(kBatch);
  scaled.allocs_per_op = r.allocs_per_op / static_cast<double>(kBatch);
  return scaled;
}

// Prices Machine::Snapshot and Machine::Fork on a machine with real state:
// a 32 MB warmed file, dirty pages, and pending events. Forking is the
// robustness-matrix inner loop, so its cost lands in the BENCH JSON both
// as a gated rate (ops/s) and as human-scale ns/bytes metrics.
void BenchSnapshotFork(gbench::JsonResults& json) {
  Machine machine(PlatformProfile::Linux22());
  graysim::Os& os = machine.os();
  const graysim::Pid pid = os.default_pid();
  (void)graywork::MakeFile(os, pid, "/d0/img", 32 * gbench::kMb);
  const int fd = os.Open(pid, "/d0/img");
  for (std::uint64_t off = 0; off < 16 * gbench::kMb; off += 256 * 1024) {
    (void)os.Pread(pid, fd, {}, 256 * 1024, off);
  }
  for (std::uint64_t off = 0; off < 4 * gbench::kMb; off += 256 * 1024) {
    (void)os.Pwrite(pid, fd, 256 * 1024, off);
  }
  (void)os.Close(pid, fd);

  constexpr int kIters = 40;
  const auto snap_start = std::chrono::steady_clock::now();
  MachineImage image = machine.Snapshot();
  for (int i = 1; i < kIters; ++i) {
    image = machine.Snapshot();
  }
  const double snap_ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                               snap_start)
          .count() /
      kIters;

  std::uint64_t sink = 0;
  const auto fork_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    const std::unique_ptr<Machine> fork = Machine::Fork(image);
    sink += fork->Now();
  }
  const double fork_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - fork_start)
          .count();
  const double fork_ns = fork_secs / kIters * 1e9;
  const double image_mb = static_cast<double>(image.os.ApproxBytes()) / 1e6;

  std::printf("%-28s %10.0f ns/snapshot\n", "machine_snapshot", snap_ns);
  std::printf("%-28s %10.0f ns/fork %10.1f MB/image (sink %llu)\n", "machine_fork",
              fork_ns, image_mb, static_cast<unsigned long long>(sink));
  json.Add("machine_fork_ops_per_s", kIters / fork_secs, "ops/s");
  json.Add("machine_snapshot_ns", snap_ns, "ns");
  json.Add("machine_fork_ns", fork_ns, "ns");
  json.Add("machine_image_bytes", static_cast<double>(image.os.ApproxBytes()), "bytes");
}

// Builds the load service's machine shape (64 MB, 16 MB reserved, two
// disks) over and over: host ns per build and the exact heap bytes one
// build allocates. Teardown runs outside the timed region.
void BenchMachineBuild(gbench::JsonResults& json) {
  MachineConfig config;
  config.phys_mem_bytes = 64 * gbench::kMb;
  config.kernel_reserved_bytes = 16 * gbench::kMb;
  config.num_disks = 2;
  constexpr int kBuilds = 200;
  double build_ns = 0.0;
  std::uint64_t bytes = 0;
  for (int i = 0; i < kBuilds; ++i) {
    const gbench::AllocCounts before = gbench::ThreadAllocSnapshot();
    const auto start = std::chrono::steady_clock::now();
    auto machine = std::make_unique<Machine>(PlatformProfile::Linux22(), config,
                                             static_cast<std::uint32_t>(i), 1);
    build_ns += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                         start)
                    .count();
    bytes = gbench::ThreadAllocSnapshot().bytes - before.bytes;
  }
  build_ns /= kBuilds;
  std::printf("%-28s %10.0f ns/build %10.0f heap bytes/build\n", "machine_build", build_ns,
              static_cast<double>(bytes));
  json.Add("machine_build_ns", build_ns, "host_ns");
  json.Add("machine_bytes", static_cast<double>(bytes), "heap_bytes");
}

// Unlink cost at scale: a page cache holding 1M pages as 65,536 files of
// 16 pages each, then DropFile of every other file. Each drop probes only
// the dropped file's own pages, so its cost does not grow with the cache.
void BenchDropFile(gbench::JsonResults& json) {
  constexpr std::uint64_t kPages = 1 << 20;
  constexpr std::uint64_t kPagesPerFile = 16;
  constexpr std::uint64_t kFiles = kPages / kPagesPerFile;
  MemSystem mem(MemSystem::Config{kPages, MemPolicy::kUnifiedLru, 0});
  PageCache cache(&mem);
  CacheEvictions handler(&cache);
  mem.set_evict_handler(&handler);
  Nanos cost = 0;
  for (std::uint64_t f = 1; f <= kFiles; ++f) {
    for (std::uint64_t p = 0; p < kPagesPerFile; ++p) {
      (void)cache.Insert(static_cast<graysim::Inum>(f), p, p % 4 == 0, &cost);
    }
  }
  const LoopResult r = TimeLoop(kFiles / 2, [&](std::uint64_t i) {
    cache.DropFile(static_cast<graysim::Inum>(2 * i + 1));
  });
  const double drop_ns = 1e3 / r.mops;
  std::printf("%-28s %10.0f ns/drop (16-page file, 1M-page cache; %llu pages left)\n",
              "drop_file", drop_ns, static_cast<unsigned long long>(cache.resident_pages()));
  json.Add("drop_file_ns", drop_ns, "host_ns");
}

// Two fibers ping-pong through Scheduler::Yield. Each Yield drains the
// (empty) due-event batch, switches out to the dispatch loop, and the loop
// switches into the other fiber: host ns per Yield, i.e. per hand-over from
// one simulated process to the next.
void BenchFiberSwitch(gbench::JsonResults& json) {
  graysim::SimClock clock;
  EventQueue events(0x5eed);
  graysim::Scheduler sched(&clock, &events, graysim::Millis(10.0));
  constexpr int kYieldsPerFiber = 500'000;
  const auto body = [&sched](int p) {
    for (int i = 0; i < kYieldsPerFiber; ++i) {
      sched.Yield(p);
    }
  };
  const auto start = std::chrono::steady_clock::now();
  sched.Run({body, body});
  const double switch_ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
          .count() /
      (2.0 * kYieldsPerFiber);
  std::printf("%-28s %10.1f ns/yield (two fibers, via the dispatch loop)\n", "fiber_switch",
              switch_ns);
  json.Add("fiber_switch_ns", switch_ns, "host_ns");
}

}  // namespace

int main() {
  gbench::PrintHeader("Hot-path datastructure microbenchmarks");
  gbench::JsonResults json("micro_datastructures");

  // page_cache_hit shares the insert/evict fixture's warm cache: build the
  // fixture once, reuse for the hit benchmark, with pages 1..8 x many.
  MemSystem mem(MemSystem::Config{kPoolPages, MemPolicy::kUnifiedLru, 0});
  PageCache cache(&mem);
  CacheEvictions handler(&cache);
  mem.set_evict_handler(&handler);
  Nanos cost = 0;
  for (std::uint64_t inum = 1; inum <= 8; ++inum) {
    for (std::uint64_t p = 0; p < kPoolPages / 16; ++p) {
      (void)cache.Insert(inum, p, false, &cost);
    }
  }

  Report(json, "lru_touch", BenchLruTouch());
  Report(json, "page_cache_hit", BenchPageCacheHit(cache));
  Report(json, "insert_evict", BenchInsertEvict());
  Report(json, "event_push_pop", BenchEventQueue());

  // Wheel vs reference heap across pending-event depths. The wheel rows
  // should be flat; the heap rows are the O(log n) yardstick (reported,
  // not gated — the kernel links only the wheel).
  for (const std::uint64_t backlog : {std::uint64_t{1'000}, std::uint64_t{100'000},
                                      std::uint64_t{1'000'000}}) {
    char name[64];
    std::snprintf(name, sizeof(name), "event_wheel_%lluk_pending",
                  static_cast<unsigned long long>(backlog / 1000));
    Report(json, name, BenchEventQueueAtDepth<EventQueue>(backlog));
    std::snprintf(name, sizeof(name), "event_heap_%lluk_pending",
                  static_cast<unsigned long long>(backlog / 1000));
    Report(json, name, BenchEventQueueAtDepth<RefEventHeap>(backlog));
  }

  BenchSnapshotFork(json);
  BenchMachineBuild(json);
  BenchDropFile(json);
  BenchFiberSwitch(json);

  json.Write();
  return 0;
}
