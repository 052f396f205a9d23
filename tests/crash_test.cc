// Crash-stop fault injection, recovery, and durable-checkpoint tests.
//
// Pins the crash semantics end to end: a FaultPlan::crash_at instant kills
// every fiber stack and all volatile state deterministically (two machines
// with the same seed crash and recover bit-identically); fsync'd/syncfs'd
// data survives while un-synced dirty pages are counted as lost; recovery
// runs a charged consistency scan whose virtual time is a measured output;
// NetRecv on a crashed endpoint fails ECONNRESET-style instead of hanging;
// and checkpoints written by machine_image_io survive a disk round trip
// bit-identically while every corrupted variant (truncated, bit-flipped,
// wrong version, wrong magic, a directory path, sections crafted with a
// recomputed CRC) is rejected with no partial restore.
// Labeled `crash`: CI runs this suite under ASan+UBSan.
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/fs/ffs.h"
#include "src/os/machine.h"
#include "src/os/machine_image_io.h"
#include "src/sim/byte_io.h"
#include "src/workloads/filegen.h"
#include "tests/same_state.h"

namespace graysim {
namespace {

constexpr std::uint64_t kMb = 1024 * 1024;

constexpr int ToErr(FsErr err) { return -static_cast<int>(err); }

// Deterministic pre-crash state: a file with warm pages plus dirty pages
// (both data and the metadata blocks MakeFile dirtied along the way).
void WarmDirty(Os& os) {
  const Pid pid = os.default_pid();
  ASSERT_TRUE(graywork::MakeFile(os, pid, "/d0/victim", 16 * kMb));
  const int fd = os.Open(pid, "/d0/victim");
  ASSERT_GE(fd, 0);
  for (std::uint64_t off = 0; off < 4 * kMb; off += 256 * 1024) {
    ASSERT_GT(os.Pwrite(pid, fd, 256 * 1024, off), 0);
  }
  ASSERT_EQ(os.Close(pid, fd), 0);
}

// Replay check after a crash: every byte a checkpoint carries, plus the
// recovery stats, which an image does not carry.
void ExpectSameAfterCrash(const Machine& a, const Machine& b) {
  EXPECT_PRED_FORMAT2(SameState, StateOf(a), StateOf(b));
  EXPECT_TRUE(a.os().recovery_stats() == b.os().recovery_stats());
}

// Crash one machine mid-run, recover it, run a post-restart workload.
// Everything is a pure function of the seed, so two calls must leave
// bit-identical machines.
void CrashRecoverContinue(Machine& machine) {
  Os& os = machine.os();
  WarmDirty(os);
  FaultPlan plan = FaultPlan::Interference(0.5);
  plan.crash_at = os.Now() + Millis(80.0);
  os.ArmChaos(plan);
  bool finished = false;
  machine.RunProcesses({[&os, &finished](Pid pid) {
    const int fd = os.Open(pid, "/d0/victim");
    // Far more work than fits before crash_at: the crash lands mid-loop
    // (or, if the cache makes the loop cheap, during the trailing sleep —
    // either way the fiber never reaches `finished`).
    for (int round = 0; round < 64; ++round) {
      for (std::uint64_t off = 0; off < 8 * kMb; off += 128 * 1024) {
        (void)os.Pread(pid, fd, {}, 128 * 1024, off);
        (void)os.Pwrite(pid, fd, 64 * 1024, off);
      }
    }
    (void)os.Close(pid, fd);
    os.Sleep(pid, Seconds(30.0));
    finished = true;
  }});
  EXPECT_TRUE(os.crashed());
  EXPECT_FALSE(finished) << "fiber survived the crash instant";
  const RecoveryStats stats = os.Recover();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_GT(stats.recovery_time, 0);
  // Post-restart continuation on the recovered machine.
  machine.RunProcesses({[&os](Pid pid) {
    const int fd = os.Open(pid, "/d0/victim");
    for (std::uint64_t off = 0; off < 8 * kMb; off += 256 * 1024) {
      (void)os.Pread(pid, fd, {}, 256 * 1024, off);
    }
    (void)os.Fsync(pid, fd);
    (void)os.Close(pid, fd);
  }});
}

TEST(CrashTest, CrashRecoveryReplaysBitIdentically) {
  Machine a(PlatformProfile::Linux22());
  Machine b(PlatformProfile::Linux22());
  CrashRecoverContinue(a);
  CrashRecoverContinue(b);
  ExpectSameAfterCrash(a, b);
  EXPECT_GT(a.os().recovery_stats().lost_dirty_pages, 0u);
}

TEST(CrashTest, CrashUnwindsEveryFiber) {
  Machine machine(PlatformProfile::Linux22());
  Os& os = machine.os();
  WarmDirty(os);
  FaultPlan plan;
  plan.enabled = true;
  plan.crash_at = os.Now() + Millis(20.0);
  os.ArmChaos(plan);
  int finished = 0;
  std::vector<std::function<void(Pid)>> bodies;
  for (int i = 0; i < 4; ++i) {
    bodies.push_back([&os, &finished](Pid pid) {
      os.Compute(pid, Seconds(10.0));  // far past crash_at
      ++finished;
    });
  }
  machine.RunProcesses(bodies);
  EXPECT_TRUE(os.crashed());
  EXPECT_EQ(finished, 0) << "a fiber computed past the crash instant";
  (void)os.Recover();
  EXPECT_FALSE(os.crashed());
  // The recovered machine runs new processes normally.
  bool ran = false;
  machine.RunProcesses({[&os, &ran](Pid pid) {
    os.Compute(pid, Millis(1.0));
    ran = true;
  }});
  EXPECT_TRUE(ran);
}

TEST(CrashTest, SyncfsDataSurvivesUnsyncedDataIsLost) {
  // Two identical machines diverge in exactly one call: syncfs before the
  // crash window. The synced machine loses nothing; the unsynced one loses
  // its dirty data and metadata pages, which fsck then repairs.
  auto run = [](bool syncfs) {
    Machine machine(PlatformProfile::Linux22());
    Os& os = machine.os();
    WarmDirty(os);
    if (syncfs) {
      EXPECT_EQ(os.Syncfs(os.default_pid(), 0), 0);
      EXPECT_EQ(os.stats().syncfs_calls, 1u);
    }
    FaultPlan plan;
    plan.enabled = true;
    plan.crash_at = os.Now() + Millis(10.0);
    os.ArmChaos(plan);
    machine.RunProcesses({[&os](Pid pid) { os.Sleep(pid, Seconds(5.0)); }});
    EXPECT_TRUE(os.crashed());
    return os.Recover();
  };
  const RecoveryStats synced = run(/*syncfs=*/true);
  const RecoveryStats unsynced = run(/*syncfs=*/false);
  EXPECT_EQ(synced.lost_dirty_pages, 0u);
  EXPECT_EQ(synced.repaired_meta_blocks, 0u);
  EXPECT_GT(unsynced.lost_dirty_pages, 0u);
  EXPECT_GT(unsynced.repaired_meta_blocks, 0u);
  // Both still paid the consistency scan.
  EXPECT_GT(synced.recovery_time, 0);
  EXPECT_GE(unsynced.recovery_time, synced.recovery_time);
}

TEST(CrashTest, CrashMidFsyncCountsTornWrites) {
  Machine machine(PlatformProfile::Linux22());
  Os& os = machine.os();
  WarmDirty(os);
  FaultPlan plan;
  plan.enabled = true;
  // Fires ~1 ms into the fsync's device wait: the writeback requests are
  // queued but their completions have not run — torn under the write-order
  // model (4 MB at ~20 MB/s needs ~200 ms to drain).
  plan.crash_at = os.Now() + Millis(1.0);
  os.ArmChaos(plan);
  machine.RunProcesses({[&os](Pid pid) {
    const int fd = os.Open(pid, "/d0/victim");
    (void)os.Fsync(pid, fd);
    (void)os.Close(pid, fd);
  }});
  ASSERT_TRUE(os.crashed());
  const RecoveryStats stats = os.Recover();
  EXPECT_GT(stats.torn_writes, 0u);
  EXPECT_GT(os.stats().fsyncs, 0u);
}

TEST(CrashTest, NetRecvOnCrashedEndpointReturnsConnReset) {
  Machine machine(PlatformProfile::Linux22());
  Os& os = machine.os();
  const Pid pid0 = os.default_pid();
  const int a = os.NetEndpoint(pid0);
  const int b = os.NetEndpoint(pid0);
  ASSERT_GT(os.NetSend(pid0, a, b, 4096, /*tag=*/5), 0);
  FaultPlan plan;
  plan.enabled = true;
  plan.crash_at = os.Now() + Millis(5.0);
  os.ArmChaos(plan);
  bool returned = false;
  machine.RunProcesses({[&os, b, &returned](Pid pid) {
    NetMessage msg;
    // Drains the in-flight message, then blocks with an effectively
    // infinite timeout; the crash must unwind this fiber rather than leave
    // it sleeping forever.
    while (os.NetRecv(pid, b, Seconds(3600.0), &msg) > 0) {
    }
    returned = true;
  }});
  EXPECT_TRUE(os.crashed());
  EXPECT_FALSE(returned);
  (void)os.Recover();
  // The endpoint died with the machine. Pre-fix this call hung: the inbox
  // and in-flight sets were wiped, so EarliestArrival was kNever and the
  // receiver slept in recv_poll increments until an infinite timeout.
  NetMessage msg;
  EXPECT_EQ(os.NetRecv(pid0, b, Seconds(3600.0), &msg), ToErr(FsErr::kConnReset));
  EXPECT_EQ(FsErrName(FsErr::kConnReset), "connection-reset");
  // Endpoints created after recovery work normally.
  const int c = os.NetEndpoint(pid0);
  const int d = os.NetEndpoint(pid0);
  ASSERT_GT(os.NetSend(pid0, c, d, 1024, /*tag=*/9), 0);
  EXPECT_GT(os.NetRecv(pid0, d, Seconds(1.0), &msg), 0);
}

// ---- durable checkpoints -------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t LoadLe(const std::vector<std::uint8_t>& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

void StoreLe(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Rewrites section `tag` of a checkpoint file (1 = identity ... 9 = chaos)
// with `edit` and recomputes its length and CRC: a crafted file that passes
// every framing check, so only the section's own parser can reject it.
std::vector<char> EditSection(const std::vector<char>& file, std::uint32_t tag,
                              const std::function<void(std::vector<std::uint8_t>&)>& edit) {
  const std::vector<std::uint8_t> in(file.begin(), file.end());
  std::vector<std::uint8_t> out(in.begin(), in.begin() + 16);  // magic, version, count
  for (std::size_t pos = 16; pos < in.size();) {
    const auto t = static_cast<std::uint32_t>(LoadLe(in, pos, 4));
    const std::size_t len = LoadLe(in, pos + 4, 8);
    std::vector<std::uint8_t> body(in.begin() + pos + 16, in.begin() + pos + 16 + len);
    if (t == tag) {
      edit(body);
    }
    std::vector<std::uint8_t> frame(16);
    StoreLe(frame, 0, t, 4);
    StoreLe(frame, 4, body.size(), 8);
    StoreLe(frame, 12, Crc32(body.data(), body.size()), 4);
    out.insert(out.end(), frame.begin(), frame.end());
    out.insert(out.end(), body.begin(), body.end());
    pos += 16 + len;
  }
  return std::vector<char>(out.begin(), out.end());
}

// A machine whose image exercises every section: warm cache, dirty pages,
// pending net deliveries, armed chaos with a pending kCrash event.
std::unique_ptr<Machine> CheckpointableMachine() {
  auto machine = std::make_unique<Machine>(PlatformProfile::Linux22());
  Os& os = machine->os();
  const Pid pid = os.default_pid();
  (void)graywork::MakeFile(os, pid, "/d0/warm", 12 * kMb);
  const int fd = os.Open(pid, "/d0/warm");
  for (std::uint64_t off = 0; off < 6 * kMb; off += 256 * 1024) {
    (void)os.Pread(pid, fd, {}, 256 * 1024, off);
  }
  for (std::uint64_t off = 0; off < 2 * kMb; off += 128 * 1024) {
    (void)os.Pwrite(pid, fd, 128 * 1024, off);
  }
  (void)os.Close(pid, fd);
  const int a = os.NetEndpoint(pid);
  const int b = os.NetEndpoint(pid);
  (void)os.NetSend(pid, a, b, 32 * 1024, /*tag=*/3);
  FaultPlan plan = FaultPlan::Interference(0.4);
  plan.crash_at = os.Now() + Seconds(2.0);  // pending kCrash in the image
  os.ArmChaos(plan);
  return machine;
}

TEST(CrashTest, CheckpointRoundTripsThroughDiskBitIdentically) {
  std::unique_ptr<Machine> original = CheckpointableMachine();
  const MachineImage image = original->Snapshot();
  const std::string path = TempPath("roundtrip.gsim");
  std::string error;
  ASSERT_TRUE(SaveMachineImage(image, path, &error)) << error;

  MachineImage loaded;
  ASSERT_TRUE(LoadMachineImage(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.id, image.id);
  EXPECT_EQ(loaded.root_seed, image.root_seed);
  EXPECT_EQ(loaded.os.now, image.os.now);
  EXPECT_EQ(loaded.os.events.size(), image.os.events.size());
  EXPECT_TRUE(loaded.os.os_stats == image.os.os_stats);

  const std::unique_ptr<Machine> fork = Machine::Fork(loaded);
  ASSERT_EQ(fork->Now(), original->Now());
  // Both run until the checkpointed crash_at fires, recover, continue:
  // machine state and recovery costs must match exactly.
  auto drive = [](Machine& m) {
    Os& os = m.os();
    m.RunProcesses({[&os](Pid pid) {
      const int fd = os.Open(pid, "/d0/warm");
      for (int round = 0; round < 8; ++round) {
        for (std::uint64_t off = 0; off < 8 * kMb; off += 128 * 1024) {
          (void)os.Pread(pid, fd, {}, 128 * 1024, off);
        }
      }
      (void)os.Close(pid, fd);
      os.Sleep(pid, Seconds(30.0));  // past the checkpointed crash_at
    }});
    EXPECT_TRUE(os.crashed()) << "workload outran the checkpointed crash_at";
    (void)os.Recover();
  };
  drive(*fork);
  drive(*original);
  ExpectSameAfterCrash(*fork, *original);
  EXPECT_EQ(fork->os().recovery_stats().crashes, 1u);
}

TEST(CrashTest, CorruptCheckpointsAreRejectedWithoutPartialRestore) {
  std::unique_ptr<Machine> machine = CheckpointableMachine();
  const std::string path = TempPath("corrupt.gsim");
  std::string error;
  ASSERT_TRUE(SaveMachineImage(machine->Snapshot(), path, &error)) << error;
  const std::vector<char> good = ReadAll(path);
  ASSERT_GT(good.size(), 64u);

  struct Case {
    const char* name;
    std::vector<char> bytes;
  };
  std::vector<Case> cases;
  {
    Case truncated{"truncated", good};
    truncated.bytes.resize(good.size() / 2);
    cases.push_back(std::move(truncated));
  }
  {
    Case flipped{"bit-flipped section", good};
    flipped.bytes[good.size() / 2] ^= 0x01;  // payload byte, CRC must catch
    cases.push_back(std::move(flipped));
  }
  {
    Case version{"wrong version", good};
    version.bytes[8] = static_cast<char>(version.bytes[8] + 1);  // u32 after magic
    cases.push_back(std::move(version));
  }
  {
    Case magic{"wrong magic", good};
    magic.bytes[0] = static_cast<char>(magic.bytes[0] ^ 0xFF);
    cases.push_back(std::move(magic));
  }

  // Crafted sections with valid CRCs. Config payload: profile name (u64
  // length + bytes), mem_policy u8, file_cache_bytes u64, fs_allocator u8,
  // readahead bool, has_mincore bool, then phys_mem_bytes u64.
  const auto profile_field = [](const std::vector<std::uint8_t>& config, std::size_t offset) {
    return 8 + LoadLe(config, 0, 8) + offset;
  };
  constexpr std::uint32_t kConfig = 2;
  constexpr std::uint32_t kFilesystems = 4;
  constexpr std::uint32_t kMemory = 7;
  constexpr std::uint32_t kTables = 8;
  cases.push_back({"mem_policy past the last enumerator",
                   EditSection(good, kConfig, [&](std::vector<std::uint8_t>& b) {
                     b[profile_field(b, 0)] = 9;
                   })});
  cases.push_back({"profile allocator past the last enumerator",
                   EditSection(good, kConfig, [&](std::vector<std::uint8_t>& b) {
                     b[profile_field(b, 9)] = 3;
                   })});
  cases.push_back({"bool byte 2", EditSection(good, kConfig, [&](std::vector<std::uint8_t>& b) {
                     b[profile_field(b, 10)] = 2;
                   })});
  cases.push_back({"phys_mem_bytes raised by 2^50",
                   EditSection(good, kConfig, [&](std::vector<std::uint8_t>& b) {
                     const std::size_t at = profile_field(b, 12);
                     StoreLe(b, at, LoadLe(b, at, 8) + (1ULL << 50), 8);
                   })});
  // Filesystems payload: u64 count, then the first Ffs: params (u32, u64,
  // u64, u32, u32, allocator u8, u32), u64 group count, and group 0's
  // first_block/data_start/data_end before its block bitmap's bit count.
  cases.push_back({"file system allocator past the last enumerator",
                   EditSection(good, kFilesystems, [](std::vector<std::uint8_t>& b) {
                     b[8 + 28] = 3;
                   })});
  cases.push_back({"bitmap bit count near 2^64",
                   EditSection(good, kFilesystems, [](std::vector<std::uint8_t>& b) {
                     StoreLe(b, 8 + 33 + 8 + 24, ~std::uint64_t{0}, 8);
                   })});
  // Memory payload: u64 frame count n, 41 bytes per frame, the free list
  // (u64 count + u32 each), two list heads (32), three counters (24) and
  // MemStats (32), then the page map's capacity. A real map has at most
  // max(16, 4 x frames) slots; the next power of two above that is too big.
  const MachineConfig& config = machine->config();
  const std::uint64_t frames =
      (config.phys_mem_bytes - config.kernel_reserved_bytes) / config.page_size;
  std::uint64_t oversized = 16;
  while (oversized <= 4 * frames) {
    oversized *= 2;
  }
  cases.push_back({"page map capacity above 4 x frames",
                   EditSection(good, kMemory, [&](std::vector<std::uint8_t>& b) {
                     std::size_t at = 8 + 41 * LoadLe(b, 0, 8);
                     at += 8 + 4 * LoadLe(b, at, 8) + 32 + 24 + 32;
                     StoreLe(b, at, oversized, 8);
                   })});
  // References into the frame slab that name no frame of it. Frame 0's
  // links start the slab (lru_prev, lru_next, ...; u32 each); the file
  // LRU's head follows the free list; the page map's live slots are (u64
  // index, u64 key, u32 frame) after its capacity and live count.
  cases.push_back({"LRU link past the last frame",
                   EditSection(good, kMemory, [](std::vector<std::uint8_t>& b) {
                     StoreLe(b, 8 + 4, LoadLe(b, 0, 8), 4);
                   })});
  cases.push_back({"LRU head past the last frame",
                   EditSection(good, kMemory, [](std::vector<std::uint8_t>& b) {
                     const std::size_t at = 8 + 41 * LoadLe(b, 0, 8);
                     StoreLe(b, at + 8 + 4 * LoadLe(b, at, 8), LoadLe(b, 0, 8), 4);
                   })});
  cases.push_back({"page map value 0x7FFFFFF0",
                   EditSection(good, kMemory, [](std::vector<std::uint8_t>& b) {
                     std::size_t at = 8 + 41 * LoadLe(b, 0, 8);
                     at += 8 + 4 * LoadLe(b, at, 8) + 32 + 24 + 32;
                     ASSERT_GT(LoadLe(b, at + 8, 8), 0u) << "page map is empty";
                     StoreLe(b, at + 16 + 16, 0x7FFFFFF0, 4);
                   })});
  // Tables payload: the fd tables (u64 count; per table a u64 count and 33
  // bytes per entry: open bool, disk i64, ...), then the in-flight map
  // (capacity, live count, 32 bytes per live slot), replaced in the second
  // case by an empty 8-slot map.
  cases.push_back({"open descriptor on a disk past the last",
                   EditSection(good, kTables, [&](std::vector<std::uint8_t>& b) {
                     ASSERT_GT(LoadLe(b, 8, 8), 0u) << "fd table 0 is empty";
                     b[16] = 1;
                     StoreLe(b, 17, static_cast<std::uint64_t>(config.num_disks), 8);
                   })});
  cases.push_back({"map capacity below the minimum",
                   EditSection(good, kTables, [](std::vector<std::uint8_t>& b) {
                     std::size_t at = 8;
                     for (std::uint64_t t = LoadLe(b, 0, 8); t > 0; --t) {
                       at += 8 + 33 * LoadLe(b, at, 8);
                     }
                     const std::size_t end = at + 16 + 32 * LoadLe(b, at + 8, 8);
                     std::vector<std::uint8_t> empty(16);
                     StoreLe(empty, 0, 8, 8);
                     b.erase(b.begin() + at, b.begin() + end);
                     b.insert(b.begin() + at, empty.begin(), empty.end());
                   })});

  const auto expect_rejected = [](const std::string& bad_path) {
    MachineImage out;
    out.id = 777;  // sentinel: a failed load must leave *out untouched
    std::string why;
    EXPECT_FALSE(LoadMachineImage(bad_path, &out, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_EQ(out.id, 777u);
    EXPECT_EQ(out.os.mem, nullptr);
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string bad_path = TempPath("corrupt_case.gsim");
    WriteAll(bad_path, c.bytes);
    expect_rejected(bad_path);
  }
  {
    SCOPED_TRACE("a directory");
    expect_rejected(::testing::TempDir());
  }

  // The pristine file still loads — corruption detection, not flakiness.
  MachineImage ok;
  ASSERT_TRUE(LoadMachineImage(path, &ok, &error)) << error;
}

TEST(CrashTest, SaveIsAtomicUnderOverwrite) {
  // Saving over an existing checkpoint goes through tmp + rename: after
  // every save the file at `path` is complete and loadable, and no .tmp
  // residue is left behind.
  std::unique_ptr<Machine> machine = CheckpointableMachine();
  const std::string path = TempPath("overwrite.gsim");
  std::string error;
  ASSERT_TRUE(SaveMachineImage(machine->Snapshot(), path, &error)) << error;
  const std::vector<char> first = ReadAll(path);

  // Advance the machine, save again over the same path.
  Os& os = machine->os();
  const Pid pid = os.default_pid();
  const int fd = os.Open(pid, "/d0/warm");
  (void)os.Pread(pid, fd, {}, 512 * 1024, 0);
  (void)os.Close(pid, fd);
  ASSERT_TRUE(SaveMachineImage(machine->Snapshot(), path, &error)) << error;

  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind after rename";
  MachineImage loaded;
  ASSERT_TRUE(LoadMachineImage(path, &loaded, &error)) << error;
  EXPECT_NE(ReadAll(path).size(), 0u);
  EXPECT_TRUE(loaded.os.os_stats == os.stats());
  (void)first;
}

}  // namespace
}  // namespace graysim
