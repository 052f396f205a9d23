// The simulated operating system: POSIX-flavoured syscalls over the disk
// model, FFS file systems, unified page cache, and virtual memory.
//
// This is the gray box. Every syscall charges virtual time to the calling
// process; elapsed virtual time is the only channel through which the
// gray-box layers in src/gray observe internal state. Ground-truth
// introspection methods (clearly marked) exist solely for tests and for
// reproducing the paper's "modified kernel" baselines (e.g., the presence
// bitmap used to validate Fig 1).
//
// The simulation core is a discrete-event kernel: every disk has a real
// request queue with completion events, and the page daemon, write-behind
// flusher, and readahead fills run as background work on the event queue.
// A faulting process blocks only until *its* request completes; eviction
// and prefetch I/O proceed asynchronously — except direct reclaim, where a
// foreground allocation that must evict a dirty victim waits for that
// eviction's I/O, exactly the slow-touch signal MAC depends on.
//
// Paths name a disk explicitly: "/d0/dir/file" is on disk 0. The last disk
// doubles as the paging (swap) device, as in the paper's Fig 7 setup.
#ifndef SRC_OS_OS_H_
#define SRC_OS_OS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/disk/disk.h"
#include "src/disk/disk_queue.h"
#include "src/fs/ffs.h"
#include "src/mem/mem_system.h"
#include "src/net/net_device.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/os/chaos_engine.h"
#include "src/os/platform.h"
#include "src/os/scheduler.h"
#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/flat_map.h"
#include "src/sim/rng.h"
#include "src/vm/vm.h"

namespace graysim {

struct OsStats {
  std::uint64_t syscalls = 0;
  std::uint64_t batch_syscalls = 0;  // batched entries (each counts 1 syscall)
  std::uint64_t batched_ops = 0;     // constituent ops carried by batches
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t swap_ins = 0;
  std::uint64_t swap_outs = 0;
  std::uint64_t readahead_pages = 0;
  std::uint64_t writeback_pages = 0;
  std::uint64_t daemon_wakeups = 0;        // page-daemon + flusher activations
  std::uint64_t queued_disk_requests = 0;  // requests submitted to device queues
  std::uint64_t net_sends = 0;
  std::uint64_t net_recvs = 0;  // NetRecv syscalls (including timeouts)
  std::uint64_t fsyncs = 0;
  std::uint64_t syncfs_calls = 0;

  friend bool operator==(const OsStats&, const OsStats&) = default;
};

template <typename Ar>
void Transfer(Ar& ar, OsStats& s) {
  ar(s.syscalls, s.batch_syscalls, s.batched_ops, s.cache_hits, s.cache_misses, s.disk_reads,
     s.disk_writes, s.swap_ins, s.swap_outs, s.readahead_pages, s.writeback_pages,
     s.daemon_wakeups, s.queued_disk_requests, s.net_sends, s.net_recvs, s.fsyncs,
     s.syncfs_calls);
}

// What a crash cost, reported by Os::Recover. Counters are cumulative over
// the machine's lifetime (a supervisor summing shards wants totals, and a
// replay pin wants one value to compare); recovery_time is the virtual time
// the LAST recovery's consistency scan consumed.
struct RecoveryStats {
  std::uint64_t crashes = 0;
  // Dirty page-cache pages (data + metadata) lost at the crash instant —
  // writes the kernel had accepted but not yet made durable.
  std::uint64_t lost_dirty_pages = 0;
  // Disk WRITE requests that were queued or in flight when the machine
  // died: under the write-order model their completion event never fired,
  // so their sectors hold torn state the scan must repair.
  std::uint64_t torn_writes = 0;
  // Metadata blocks among the lost dirty pages (inode table / directory /
  // bitmap blocks) — the blocks fsck re-reads and rewrites.
  std::uint64_t repaired_meta_blocks = 0;
  // Virtual time the last Recover() spent scanning cylinder-group metadata.
  Nanos recovery_time = 0;

  friend bool operator==(const RecoveryStats&, const RecoveryStats&) = default;
};

// One operation of a batched syscall (see Os::PreadBatch etc.). The batch
// crosses the syscall boundary — and pays the syscall overhead — once; each
// constituent operation is still executed and timed individually.
struct PreadBatchOp {
  int fd = -1;
  std::uint64_t len = 1;
  std::uint64_t offset = 0;
};

struct VmTouchBatchOp {
  VmAreaId area = 0;
  std::uint64_t page_index = 0;
  bool write = true;
};

struct BatchOpResult {
  Nanos latency_ns = 0;
  std::int64_t rc = 0;
};

// Os implements MemSystem's EvictionHandler directly (private base): the
// eviction hot path is a virtual call into OnEvict, with no std::function
// allocation or indirection.
class Os : private EvictionHandler {
 public:
  explicit Os(PlatformProfile profile, MachineConfig config = MachineConfig{});

  Os(const Os&) = delete;
  Os& operator=(const Os&) = delete;

  // ---- processes ----
  // A default process (pid 0) exists for single-process experiments.
  [[nodiscard]] Pid default_pid() const { return 0; }
  // Runs the given bodies as concurrently scheduled processes. Each body
  // receives a fresh pid. Blocks until all complete.
  void RunProcesses(const std::vector<std::function<void(Pid)>>& bodies);

  // ---- time ----
  [[nodiscard]] Nanos Now() const { return clock_.now(); }
  void Sleep(Pid pid, Nanos duration);
  void Compute(Pid pid, Nanos duration);  // CPU burn, preemptible

  // ---- files ----
  // All calls return >= 0 on success; a negative value is
  // -static_cast<int>(FsErr).
  [[nodiscard]] int Open(Pid pid, std::string_view path);
  int Close(Pid pid, int fd);
  // Reads `len` bytes at `offset`. `buf` may be empty (timing-only read); if
  // non-empty, min(len, buf.size()) bytes of deterministic content are
  // produced.
  std::int64_t Pread(Pid pid, int fd, std::span<std::uint8_t> buf, std::uint64_t len,
                     std::uint64_t offset);
  std::int64_t Pwrite(Pid pid, int fd, std::uint64_t len, std::uint64_t offset);
  // Sequential variants: read/write at the fd's file offset, advancing it.
  std::int64_t Read(Pid pid, int fd, std::span<std::uint8_t> buf, std::uint64_t len);
  std::int64_t Write(Pid pid, int fd, std::uint64_t len);
  // Repositions the fd offset (SEEK_SET semantics; pass kSeekEnd for EOF).
  static constexpr std::uint64_t kSeekEnd = ~0ULL;
  std::int64_t Lseek(Pid pid, int fd, std::uint64_t offset);
  int Fsync(Pid pid, int fd);
  // syncfs(2): flushes EVERY dirty page living on `disk` — file data and
  // metadata — and waits for the device to drain. The heavyweight durability
  // barrier checkpointing code reaches for when it cannot enumerate fds.
  int Syncfs(Pid pid, int disk);
  int Ftruncate(Pid pid, int fd, std::uint64_t size);

  // mincore(2): residency bitmap for a byte range of an open file. Returns
  // -kInvalid on platforms whose profile lacks the interface (paper §4.1
  // footnote 1).
  int Mincore(Pid pid, int fd, std::uint64_t offset, std::uint64_t length,
              std::vector<bool>* resident);

  int Creat(Pid pid, std::string_view path);  // returns fd; truncates
  int Stat(Pid pid, std::string_view path, InodeAttr* out);

  // ---- network ----
  // The machine has one simulated link (MachineConfig::net). Endpoints are
  // small integer handles shared machine-wide — communicating fibers
  // exchange datagrams with an opaque tag, and loss is silent to the sender
  // (inferring why a message vanished is the gray-box layers' job).
  [[nodiscard]] int NetEndpoint(Pid pid);
  // Queues `bytes` from endpoint `from` to `to`. Returns `bytes`, or
  // -kInvalid for a bad endpoint. Charged like a write: syscall overhead
  // plus the user->kernel copy.
  std::int64_t NetSend(Pid pid, int from, int to, std::uint64_t bytes, std::uint64_t tag);
  // Blocks until a message lands at `endpoint` or `timeout` elapses
  // (timeout 0 = non-blocking try-recv). Returns the message's byte count
  // and fills *out, or -kTimedOut. While blocked the process sleeps on the
  // scheduler in arrival-time increments, so other fibers run.
  std::int64_t NetRecv(Pid pid, int endpoint, Nanos timeout, NetMessage* out);
  // Delivered-and-unread message count at `endpoint` (the cheap spin-wait
  // primitive: a poll costs one syscall, not a blocking slot).
  std::int64_t NetPoll(Pid pid, int endpoint);

  // ---- batched syscalls ----
  // Each executes min(ops.size(), out.size()) operations in request order,
  // charging the syscall-entry overhead ONCE for the whole batch instead of
  // once per operation. Every constituent operation still runs the full
  // scalar path — same cache effects, same disk I/O, same per-byte costs —
  // and its individual elapsed virtual time is reported in out[i].latency_ns.
  // Batched reads are timing-only (no data buffer), matching their
  // probing/prefetch role.
  void PreadBatch(Pid pid, std::span<const PreadBatchOp> ops, std::span<BatchOpResult> out);
  void StatBatch(Pid pid, std::span<const std::string> paths, std::span<InodeAttr> attrs,
                 std::span<BatchOpResult> out);
  // VmTouch is a memory access, not a syscall, so there is no overhead to
  // amortize; the batch still saves N-1 boundary crossings for callers.
  void VmTouchBatch(Pid pid, std::span<const VmTouchBatchOp> ops,
                    std::span<BatchOpResult> out);
  int Unlink(Pid pid, std::string_view path);
  int Mkdir(Pid pid, std::string_view path);
  int Rmdir(Pid pid, std::string_view path);
  int Rename(Pid pid, std::string_view from, std::string_view to);
  int ReadDir(Pid pid, std::string_view path, std::vector<DirEntryInfo>* out);
  int Utimes(Pid pid, std::string_view path, Nanos atime, Nanos mtime);

  // ---- memory ----
  [[nodiscard]] VmAreaId VmAlloc(Pid pid, std::uint64_t bytes);
  void VmFree(Pid pid, VmAreaId area);
  // Touches one page of the area; write=true models a store.
  void VmTouch(Pid pid, VmAreaId area, std::uint64_t page_index, bool write);

  [[nodiscard]] std::uint32_t page_size() const { return config_.page_size; }
  [[nodiscard]] const CostModel& costs() const { return config_.costs; }
  [[nodiscard]] const PlatformProfile& profile() const { return profile_; }
  [[nodiscard]] const MachineConfig& config() const { return config_; }

  // ---- experiment control (not part of the gray-box interface) ----
  // Drops the entire file cache without charging time ("reboot-fresh" cache,
  // used between experiment trials exactly as the paper flushes caches).
  // In-flight readahead fills are invalidated so stale data cannot land.
  void FlushFileCache();

  // Arms the chaos layer with `plan` (replacing any armed plan) starting at
  // the current virtual time. A disabled plan is equivalent to DisarmChaos.
  // Benches arm after building their file sets so setup stays fault-free;
  // MachineConfig::chaos arms at construction for whole-run interference.
  void ArmChaos(const FaultPlan& plan);
  // Disarms injection, cancels antagonist/shock ticks, and drops the pages
  // the antagonists held (their interference stops, not lingers).
  void DisarmChaos();
  [[nodiscard]] bool chaos_armed() const { return chaos_ != nullptr; }
  // Injected-fault counters of the armed plan (zeros when disarmed). By
  // value: determinism tests snapshot it next to OsStats.
  [[nodiscard]] ChaosStats chaos_stats() const {
    return chaos_ != nullptr ? chaos_->stats() : ChaosStats{};
  }

  // ---- crash-stop & recovery ----
  // True between the FaultPlan::crash_at instant taking effect and the next
  // Recover() call. While crashed, every syscall a still-running fiber
  // attempts unwinds that fiber (its "stack died with the machine"); the
  // owner must not start new work until Recover() has run.
  [[nodiscard]] bool crashed() const { return crashed_; }
  // Post-crash restart: discards volatile state (dirty page-cache pages,
  // in-flight disk and net requests, fd tables, pending events), then runs
  // a deterministic FFS consistency scan that re-reads every cylinder
  // group's metadata range and rewrites the blocks torn writes touched,
  // charging the scan's virtual time. Returns the cumulative RecoveryStats
  // (also available via recovery_stats()). Chaos stays armed with the same
  // plan — its crash_at is in the past, so it cannot re-fire. Must be
  // called at quiescence (between RunProcesses calls).
  RecoveryStats Recover();
  [[nodiscard]] const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  // ---- observability (tests & benches only; never part of the gray-box
  // interface — an ICL that read the trace would be an X-ray, not a gray
  // box) ----
  // Starts recording trace events into a ring of `capacity` events.
  // Tracing is passive: it never touches the virtual clock, the jitter
  // stream, or event ordering, so a traced run is bit-identical in virtual
  // time and OsStats to an untraced one (pinned by tests/trace_test.cc).
  void StartTrace(std::size_t capacity = obs::TraceSink::kDefaultCapacity);
  void StopTrace() { trace_.Disable(); }
  [[nodiscard]] bool TraceEnabled() const {
    return obs::TraceSink::compiled_in() && trace_.enabled();
  }
  [[nodiscard]] obs::TraceSink& trace() { return trace_; }
  [[nodiscard]] const obs::TraceSink& trace() const { return trace_; }

  // Binds this kernel's counters, chaos stats, and per-disk service-time
  // histograms into `registry` (pull model: values are read at Collect
  // time). Names are prefixed "os." / "chaos." / "disk<N>.".
  void BindMetrics(obs::MetricsRegistry* registry) const;

  // ---- ground truth introspection (tests & benches only) ----
  [[nodiscard]] bool PageResidentPath(std::string_view path, std::uint64_t page_index) const;
  [[nodiscard]] double ResidentFraction(std::string_view path) const;
  [[nodiscard]] std::uint64_t FileCachePages() const { return cache_.resident_pages(); }
  [[nodiscard]] std::uint64_t FreeMemBytes() const {
    return mem_.free_pages() * config_.page_size;
  }
  [[nodiscard]] std::uint64_t UsableMemBytes() const {
    return mem_.total_pages() * config_.page_size;
  }
  [[nodiscard]] const OsStats& stats() const { return os_stats_; }
  // Total events ever scheduled on the kernel queue — the natural "ops"
  // denominator for host-side throughput numbers in the benches.
  [[nodiscard]] std::uint64_t events_scheduled() const { return events_.scheduled_total(); }
  [[nodiscard]] const MemStats& mem_stats() const { return mem_.stats(); }
  [[nodiscard]] const DiskStats& disk_stats(int disk) const { return disks_[disk].stats(); }
  [[nodiscard]] const DiskQueue& disk_queue(int disk) const { return *disk_queues_[disk]; }
  [[nodiscard]] std::uint64_t MaxDiskQueueDepth(int disk) const {
    return disk_queues_[disk]->max_depth();
  }
  [[nodiscard]] const NetDevice& net() const { return *net_; }
  [[nodiscard]] const Ffs& fs(int disk) const { return *filesystems_[disk]; }
  [[nodiscard]] Ffs& fs_mutable(int disk) { return *filesystems_[disk]; }
  [[nodiscard]] int num_disks() const { return static_cast<int>(disks_.size()); }
  [[nodiscard]] std::uint64_t VmResidentPages(Pid pid) const { return vm_.ResidentPages(pid); }

 private:
  struct FdEntry {
    bool open = false;
    int disk = -1;
    Inum inum = kInvalidInum;
    // File offset for the sequential Read/Write variants.
    std::uint64_t offset = 0;
    // Sequential-readahead state.
    std::uint64_t next_seq_offset = 0;
    std::uint32_t ra_window_pages = 0;

    template <typename Ar>
    void Transfer(Ar& ar) {
      ar(open, disk, inum, offset, next_seq_offset, ra_window_pages);
    }
  };

  struct PathRef {
    int disk = -1;
    std::string sub;  // path within the file system
  };

  // A demand or readahead read whose completion event has not yet filled
  // the cache. The token guards against ABA: a drop + re-read of the same
  // page must not let the older fill install stale contents.
  struct InflightRead {
    Nanos completion = 0;
    std::uint64_t token = 0;

    template <typename Ar>
    void Transfer(Ar& ar) {
      ar(completion, token);
    }
  };

  // Splits "/dN/rest" into (N, "/rest"). Returns false on malformed paths.
  [[nodiscard]] bool ParsePath(std::string_view path, PathRef* out) const;

  // Charges CPU-side `cost` to pid (advances clock; may yield under the
  // scheduler). Applies the configured multiplicative timing jitter and
  // drains newly due events.
  void Charge(Pid pid, Nanos cost);
  [[nodiscard]] Nanos Jittered(Nanos cost);

  // Blocks pid until `deadline` (no-op if already past). Under the
  // scheduler other processes run meanwhile; standalone, the clock jumps
  // and due events (completions, daemons) are drained.
  void WaitUntil(Pid pid, Nanos deadline);

  // If the current foreground operation triggered direct reclaim of a
  // dirty/anon victim, block until that eviction I/O completes — the
  // process-context reclaim wait of the modeled kernels.
  void DrainDirectReclaim(Pid pid);

  // MemSystem eviction callback (file writeback / swap-out); see the
  // EvictionHandler base.
  Nanos OnEvict(const Page& page) override;

  // RAII marker for work running off the event queue (daemons, cache
  // fills): evictions it triggers are background, so no direct-reclaim
  // wait is recorded against a foreground process.
  class BackgroundScope {
   public:
    explicit BackgroundScope(Os* os) : os_(os), prev_(os->in_background_) {
      os_->in_background_ = true;
    }
    ~BackgroundScope() { os_->in_background_ = prev_; }
    BackgroundScope(const BackgroundScope&) = delete;
    BackgroundScope& operator=(const BackgroundScope&) = delete;

   private:
    Os* os_;
    bool prev_;
  };

  // Submits a request to a device queue; returns its completion time. The
  // caller decides whether to wait (demand I/O) or not (background I/O).
  Nanos SubmitDiskIo(int disk, std::uint64_t block, std::uint64_t pages, bool is_write,
                     DiskQueue::CompletionFn on_complete);
  // Variant with an explicit snapshot descriptor for the completion event —
  // required when on_complete is non-null, since the closure itself cannot
  // be captured into a machine image.
  Nanos SubmitDiskIo(int disk, std::uint64_t block, std::uint64_t pages, bool is_write,
                     DiskQueue::CompletionFn on_complete, const EventDesc& desc);
  // Disk request to the swap partition (last disk, upper half).
  Nanos SubmitSwapIo(std::uint64_t slot, bool is_write);

  // Submits a read whose completion fills the cache with pages
  // [first_page, first_page + npages) of `tagged`, registered in the
  // in-flight map so concurrent readers wait instead of re-issuing.
  Nanos SubmitReadFill(int disk, Inum tagged, std::uint64_t first_page, std::uint64_t npages,
                       std::uint64_t start_block, bool readahead);
  void FillPages(Inum tagged, std::uint64_t first_page, std::uint64_t npages,
                 std::uint64_t token, bool readahead);
  // Forgets in-flight fills for pages >= from_page of a file whose cache
  // entries were dropped (truncate/unlink/replace).
  void InvalidateInflight(Inum tagged, std::uint64_t from_page);

  // Deterministic synthesized file content (the simulation stores no data).
  [[nodiscard]] static std::uint8_t ContentByte(Inum tagged, std::uint64_t offset);

  // Reads a metadata block (inode table / directory) through the cache.
  void MetaRead(Pid pid, int disk, std::uint64_t block);
  void MetaDirty(Pid pid, int disk, std::uint64_t block);

  // Charges the directory walk + final inode read for resolving `path`.
  void ChargeWalk(Pid pid, const PathRef& ref);

  // Background daemons, both running as event-queue closures.
  // Write-behind flusher: batches the oldest dirty pages to disk when the
  // dirty limit is exceeded.
  void MaybeWakeFlushDaemon();
  void FlushDaemonRun();
  // Page daemon (unified-LRU profile): keeps the free list between its
  // watermarks, paced by the completion of the eviction I/O it submits.
  void MaybeWakePageDaemon();
  void PageDaemonRun();

  // Maps dirty pages to disk blocks, coalesces contiguous runs, and submits
  // them as background writes. Returns the last completion time (0 if
  // nothing was submitted).
  Nanos SubmitWritebackRuns(std::vector<std::pair<Inum, std::uint64_t>> pages);

  // Page-cache keys tag the fs-local inum with its disk so files on
  // different disks never collide: tagged = (disk << 24) | inum. The top of
  // the local range is reserved for pseudo-files whose page index is a raw
  // disk block number, not a file page: 0xFFFFFF is that disk's metadata
  // (inode table and directory blocks), 0xFFFFFE holds antagonist-daemon
  // pages, and 0xFFFFFD holds memory-pressure-shock pages.
  static constexpr Inum kMetaLocalInum = 0xFFFFFF;
  static constexpr Inum kAntagonistLocalInum = 0xFFFFFE;
  static constexpr Inum kShockLocalInum = 0xFFFFFD;
  [[nodiscard]] static Inum Tag(int disk, Inum inum) {
    return (static_cast<Inum>(disk) << 24) | inum;
  }
  [[nodiscard]] static Inum LocalInum(Inum tagged) { return tagged & kMetaLocalInum; }
  [[nodiscard]] static int DiskOfInum(Inum tagged) { return static_cast<int>(tagged >> 24); }
  [[nodiscard]] static bool IsMetaInum(Inum tagged) {
    return LocalInum(tagged) == kMetaLocalInum;
  }
  // True for every reserved pseudo-file: their dirty pages write back to the
  // block named by the page key directly, with no Ffs::BlockOf translation.
  [[nodiscard]] static bool IsPseudoInum(Inum tagged) {
    return LocalInum(tagged) >= kShockLocalInum;
  }
  // Same packing as PageCache::Key, for the in-flight read map.
  [[nodiscard]] static std::uint64_t PageKey(Inum tagged, std::uint64_t page) {
    return (static_cast<std::uint64_t>(tagged) << 32) | page;
  }

  [[nodiscard]] FdEntry* GetFd(Pid pid, int fd);

  // Syscall bodies shared by the scalar and batched entry points. Neither
  // counts a syscall nor charges entry overhead — the public wrappers do.
  std::int64_t PreadImpl(Pid pid, int fd, std::span<std::uint8_t> buf, std::uint64_t len,
                         std::uint64_t offset);
  int StatImpl(Pid pid, std::string_view path, InodeAttr* out);

  // Chaos-layer tick bodies, self-rescheduling on the event queue while
  // their arming epoch is current (DisarmChaos bumps the epoch, orphaning
  // any in-flight ticks instead of hunting them down in the heap).
  void AntagonistTick(std::uint64_t epoch);
  void ShockTick(std::uint64_t epoch);

  // Thrown through a fiber body when the machine crash-stops: RunProcesses
  // catches it per process, so each still-running fiber unwinds cleanly
  // (destructors run — the fiber's host-side stack must not leak even
  // though the simulated stack "died"). Internal: never escapes Os.
  struct CrashUnwind {};

  // The kCrash event body. Only sets flags and readies sleepers — it runs
  // inside EventQueue dispatch, where throwing would corrupt the queue; the
  // actual unwind happens at each fiber's next charge/wake boundary.
  void CrashNow(std::uint64_t epoch);
  // Throws CrashUnwind out of the calling fiber when the machine has
  // crashed and a fiber context is live (standalone callers — benches
  // driving pid 0 outside RunProcesses — see the flag via crashed()).
  void ThrowIfCrashed();

  // ---- snapshot internals ----
  // Rebuilds the closure for one captured event descriptor, bound to this
  // Os's own subsystems (the EventKind registry names every pendable event).
  [[nodiscard]] EventFn MaterializeEvent(const EventDesc& desc);
  // Installs the chaos engine and the device/net hooks for `plan` WITHOUT
  // scheduling the initial antagonist/shock ticks: ArmChaos schedules fresh
  // ones, RestoreImage re-imports the captured in-flight ticks instead.
  void ArmChaosHooks(const FaultPlan& plan);

  PlatformProfile profile_;
  MachineConfig config_;
  SimClock clock_;
  EventQueue events_;
  Scheduler scheduler_;
  MemSystem mem_;
  PageCache cache_;
  Vm vm_;
  std::vector<Disk> disks_;
  std::vector<std::unique_ptr<DiskQueue>> disk_queues_;
  std::unique_ptr<NetDevice> net_;
  std::vector<std::unique_ptr<Ffs>> filesystems_;
  std::vector<std::vector<FdEntry>> fd_tables_;  // per pid
  // pid -> scheduler slot (-1 when not scheduled); dense because pids are
  // assigned sequentially. Read on every Charge, so it must be a flat
  // array, not a hash map.
  std::vector<int> sched_slots_;
  FlatMap<InflightRead> inflight_reads_;  // PageKey -> fill
  std::uint64_t next_read_token_ = 1;
  // Completion time of eviction I/O submitted by the current foreground
  // operation; consumed by DrainDirectReclaim.
  Nanos direct_reclaim_wait_ = 0;
  bool in_background_ = false;
  bool flush_daemon_scheduled_ = false;
  bool page_daemon_scheduled_ = false;
  std::uint64_t page_daemon_low_pages_ = 0;
  std::uint64_t page_daemon_high_pages_ = 0;
  std::uint64_t dirty_limit_pages_ = 0;
  std::uint64_t swap_base_offset_ = 0;
  int swap_disk_ = 0;
  bool in_scheduler_run_ = false;
  Pid next_pid_ = 1;
  Rng jitter_rng_;
  OsStats os_stats_;
  // Trace sink, wired into events_/scheduler_/disk queues by the
  // constructor. Inert (one disabled-branch per emitter) until StartTrace.
  obs::TraceSink trace_;
  // Chaos layer (null when disarmed — the common case; every hook starts
  // with a null check so an unarmed kernel takes no chaos branches beyond
  // that).
  std::unique_ptr<ChaosEngine> chaos_;
  std::uint64_t chaos_epoch_ = 0;
  std::uint64_t antagonist_reader_pos_ = 0;
  std::uint64_t antagonist_dirty_pos_ = 0;
  // Crash-stop state: set by CrashNow, cleared by Recover.
  bool crashed_ = false;
  Nanos crash_instant_ = 0;
  RecoveryStats recovery_stats_;

 public:
  // ---- snapshot / fork ----
  // A self-contained copy of one Os's complete simulation state, captured
  // at quiescence (between RunProcesses calls — a fiber's stack of raw
  // saved registers and return addresses cannot be serialized, and none
  // exist then). Pending events are pure data (EventDesc); the noncopyable
  // memory-hierarchy classes are held behind pointers and state-copied
  // both ways. An Image is immutable after capture and safe to share
  // across threads, so any number of machines can fork from one image
  // concurrently. Declared after the private section because it embeds the
  // private FdEntry/InflightRead table types.
  struct Image {
    PlatformProfile profile;
    MachineConfig config;
    Nanos now = 0;
    // Kernel event core: every pending event plus the queue's tie-RNG /
    // id-counter state (see EventQueue::KernelState for why the tie stream
    // must survive the fork mid-sequence).
    std::vector<EventQueue::RawEvent> events;
    EventQueue::KernelState kernel;
    Rng::State jitter_rng;
    // Storage stack: file systems, disk head/stats, device busy timelines.
    std::vector<Ffs> filesystems;
    std::vector<Disk> disks;
    std::vector<SimDevice::State> disk_devices;
    NetDevice::State net;
    // Memory hierarchy. FrameIds are indices into the copied slab, so the
    // cache and VM bookkeeping transfer verbatim, with no id translation.
    std::unique_ptr<MemSystem> mem;
    std::unique_ptr<PageCache> cache;
    std::unique_ptr<Vm> vm;
    // Process-visible kernel tables.
    std::vector<std::vector<FdEntry>> fd_tables;
    FlatMap<InflightRead> inflight_reads;
    std::uint64_t next_read_token = 1;
    bool flush_daemon_scheduled = false;
    bool page_daemon_scheduled = false;
    Pid next_pid = 1;
    OsStats os_stats;
    // Chaos layer: plan + mid-sequence RNG + counters + the arming epoch
    // (captured tick events carry epochs; the restored kernel must agree).
    bool chaos_armed = false;
    FaultPlan chaos_plan;
    Rng::State chaos_rng;
    ChaosStats chaos_stats;
    std::uint64_t chaos_epoch = 0;
    std::uint64_t antagonist_reader_pos = 0;
    std::uint64_t antagonist_dirty_pos = 0;

    // Rough in-memory footprint (bytes), for the fork-cost benchmarks.
    [[nodiscard]] std::uint64_t ApproxBytes() const;
  };

  // Captures this Os's state. Asserts quiescence: no scheduler run active
  // and every pending event carries a rebuildable descriptor.
  [[nodiscard]] Image CaptureImage() const;
  // Overwrites a FRESHLY CONSTRUCTED Os — built from image.profile and
  // image.config with chaos disabled, so construction schedules nothing —
  // with the image's state, materializing event closures from their
  // descriptors. From the capture instant on, execution is bit-identical to
  // the original's: same virtual times, same stats, same trace.
  void RestoreImage(const Image& image);
};

}  // namespace graysim

#endif  // SRC_OS_OS_H_
