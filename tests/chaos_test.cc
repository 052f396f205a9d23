// Chaos-layer tests: a FaultPlan is a seeded, replayable schedule, not a
// fuzzer. The same plan against the same workload must end in bit-identical
// machines — every checkpointed byte, injected-fault counters and the
// chaos RNG included — on every platform profile; arming and disarming must be clean (no pseudo pages left behind,
// no faults after disarm); and the antagonist/shock machinery must survive
// a high-intensity stress mix (the ASan job leans on this test).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/os/machine.h"
#include "tests/same_state.h"

namespace graysim {
namespace {

constexpr std::uint64_t kMb = 1024 * 1024;

void MakeFile(Os& os, Pid pid, const std::string& path, std::uint64_t bytes) {
  const int fd = os.Creat(pid, path);
  ASSERT_GE(fd, 0) << path;
  const std::uint64_t chunk = 1 * kMb;
  for (std::uint64_t off = 0; off < bytes; off += chunk) {
    const std::uint64_t n = std::min(chunk, bytes - off);
    ASSERT_EQ(os.Pwrite(pid, fd, n, off), static_cast<std::int64_t>(n));
  }
  ASSERT_EQ(os.Fsync(pid, fd), 0);
  ASSERT_EQ(os.Close(pid, fd), 0);
}

// A fault-tolerant mixed workload: every syscall result is accepted (under
// chaos, reads fail with EIO, writes with ENOSPC or short counts), so the
// only invariants left are the deterministic ones: the machine's image at
// the end of the run.
MachineImage RunChaosWorkload(const PlatformProfile& profile, const FaultPlan& plan,
                              int nprocs) {
  MachineConfig cfg;
  cfg.phys_mem_bytes = 160 * kMb;
  cfg.kernel_reserved_bytes = 32 * kMb;  // 128 MB usable: real pressure
  // Config-seeded Machine: bit-identical to a bare Os(profile, cfg) (pinned
  // by FleetSeeding.ConfigSeededMachineMatchesBareOs).
  Machine machine(profile, cfg);
  Os& os = machine.os();
  const Pid setup = os.default_pid();
  for (int d = 0; d < 2; ++d) {
    MakeFile(os, setup, "/d" + std::to_string(d) + "/input", 24 * kMb);
  }
  os.FlushFileCache();
  os.ArmChaos(plan);

  std::vector<std::function<void(Pid)>> bodies;
  for (int i = 0; i < nprocs; ++i) {
    bodies.push_back([&os, i](Pid pid) {
      const std::string in = "/d" + std::to_string(i % 2) + "/input";
      const int fd = os.Open(pid, in);
      ASSERT_GE(fd, 0);
      std::uint64_t off = static_cast<std::uint64_t>(i) * 512 * 1024;
      for (int k = 0; k < 24; ++k) {
        (void)os.Pread(pid, fd, {}, 256 * 1024, off % (24 * kMb));
        off += 256 * 1024;
      }
      InodeAttr attr;
      (void)os.Stat(pid, in, &attr);
      (void)os.Close(pid, fd);
      const int out =
          os.Creat(pid, "/d" + std::to_string(i % 2) + "/out" + std::to_string(i));
      ASSERT_GE(out, 0);
      for (int k = 0; k < 8; ++k) {
        (void)os.Pwrite(pid, out, 512 * 1024,
                        static_cast<std::uint64_t>(k) * 512 * 1024);
      }
      if (i % 2 == 0) {
        (void)os.Fsync(pid, out);
      }
      (void)os.Close(pid, out);
      const VmAreaId area = os.VmAlloc(pid, (2 + i % 3) * kMb);
      const std::uint64_t pages = (2 + i % 3) * kMb / os.page_size();
      for (std::uint64_t p = 0; p < pages; ++p) {
        os.VmTouch(pid, area, p, /*write=*/true);
      }
      os.Sleep(pid, Millis(1.0 + i));
      os.VmFree(pid, area);
    });
  }
  os.RunProcesses(bodies);
  return machine.Snapshot();
}

class ChaosDeterminismTest : public ::testing::TestWithParam<const char*> {
 protected:
  static PlatformProfile ProfileFor(const std::string& name) {
    if (name == "linux2.2") {
      return PlatformProfile::Linux22();
    }
    if (name == "netbsd1.5") {
      return PlatformProfile::NetBsd15();
    }
    return PlatformProfile::Solaris7();
  }
};

TEST_P(ChaosDeterminismTest, SameSeedIsBitIdentical) {
  const PlatformProfile profile = ProfileFor(GetParam());
  const FaultPlan plan = FaultPlan::Interference(0.5);
  const MachineImage a = RunChaosWorkload(profile, plan, 6);
  const MachineImage b = RunChaosWorkload(profile, plan, 6);
  EXPECT_PRED_FORMAT2(SameState, StateDigest(a), StateDigest(b));
  // The plan actually did something: faults and interference were injected.
  const ChaosStats& chaos = a.os.chaos_stats;
  EXPECT_GT(chaos.injected_read_errors + chaos.injected_write_errors +
                chaos.injected_stat_errors + chaos.short_writes,
            0u);
  EXPECT_GT(chaos.degraded_requests, 0u);
  EXPECT_GT(chaos.reader_ticks + chaos.dirtier_ticks, 0u);
}

TEST_P(ChaosDeterminismTest, DifferentSeedsDiverge) {
  const PlatformProfile profile = ProfileFor(GetParam());
  const MachineImage a = RunChaosWorkload(profile, FaultPlan::Interference(0.5, 1), 6);
  const MachineImage b = RunChaosWorkload(profile, FaultPlan::Interference(0.5, 2), 6);
  // Not a bit-for-bit requirement in reverse, but two different fault
  // schedules agreeing on every counter would mean the seed is ignored.
  EXPECT_FALSE(a.os.chaos_stats == b.os.chaos_stats);
}

INSTANTIATE_TEST_SUITE_P(Platforms, ChaosDeterminismTest,
                         ::testing::Values("linux2.2", "netbsd1.5", "solaris7"));

TEST(ChaosTest, DisabledPlanIsExactlyTheCleanMachine) {
  // Zero-cost-when-off, stated as bits: intensity 0 produces a disabled
  // plan, and a machine configured with it matches a plain machine on every
  // counter after the same workload.
  const FaultPlan off = FaultPlan::Interference(0.0);
  EXPECT_FALSE(off.enabled);
  const MachineImage a = RunChaosWorkload(PlatformProfile::Linux22(), off, 4);
  const MachineImage b = RunChaosWorkload(PlatformProfile::Linux22(), FaultPlan{}, 4);
  EXPECT_PRED_FORMAT2(SameState, StateDigest(a), StateDigest(b));
  EXPECT_TRUE(a.os.chaos_stats == ChaosStats{});
}

TEST(ChaosTest, ArmViaMachineConfig) {
  MachineConfig cfg;
  cfg.chaos = FaultPlan::Interference(0.5);
  Os os(PlatformProfile::Linux22(), cfg);
  EXPECT_TRUE(os.chaos_armed());
  Os plain(PlatformProfile::Linux22());
  EXPECT_FALSE(plain.chaos_armed());
}

TEST(ChaosTest, DisarmStopsInjectionAndDropsPseudoPages) {
  MachineConfig cfg;
  cfg.phys_mem_bytes = 160 * kMb;
  cfg.kernel_reserved_bytes = 32 * kMb;
  Os os(PlatformProfile::Linux22(), cfg);
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/input", 16 * kMb);

  FaultPlan plan = FaultPlan::Interference(1.0);
  plan.read_eio_prob = 1.0;  // every read fails while armed
  os.ArmChaos(plan);

  const int fd = os.Open(pid, "/d0/input");
  ASSERT_GE(fd, 0);
  EXPECT_EQ(os.Pread(pid, fd, {}, 4096, 0), -static_cast<int>(FsErr::kIo));
  // Let the antagonists run so pseudo pages enter the cache.
  os.RunProcesses({[&os](Pid p) { os.Sleep(p, Millis(100.0)); }});
  EXPECT_GT(os.chaos_stats().reader_ticks + os.chaos_stats().dirtier_ticks, 0u);

  os.DisarmChaos();
  EXPECT_FALSE(os.chaos_armed());
  EXPECT_TRUE(os.chaos_stats() == ChaosStats{});  // engine gone with its counters
  // Reads succeed again, and the machine keeps running without the engine.
  EXPECT_EQ(os.Pread(pid, fd, {}, 4096, 0), 4096);
  os.RunProcesses({[&os](Pid p) { os.Sleep(p, Millis(100.0)); }});
  EXPECT_EQ(os.Close(pid, fd), 0);
}

TEST(ChaosTest, RearmResetsTheSchedule) {
  // Arming the same plan twice replays the same fault sequence from the
  // start: the chaos RNG belongs to the engine, not the machine.
  MachineConfig cfg;
  cfg.phys_mem_bytes = 160 * kMb;
  cfg.kernel_reserved_bytes = 32 * kMb;
  Os os(PlatformProfile::Linux22(), cfg);
  const Pid pid = os.default_pid();
  MakeFile(os, pid, "/d0/input", 8 * kMb);
  FaultPlan plan;
  plan.enabled = true;
  plan.read_eio_prob = 0.5;
  plan.eio_latency = Millis(1.0);

  auto fault_pattern = [&] {
    std::vector<bool> pattern;
    const int fd = os.Open(pid, "/d0/input");
    for (int k = 0; k < 64; ++k) {
      pattern.push_back(os.Pread(pid, fd, {}, 1, static_cast<std::uint64_t>(k) * 4096) < 0);
    }
    (void)os.Close(pid, fd);
    return pattern;
  };

  os.ArmChaos(plan);
  const std::vector<bool> first = fault_pattern();
  os.ArmChaos(plan);  // re-arm: fresh engine, same seed
  const std::vector<bool> second = fault_pattern();
  EXPECT_EQ(first, second);
  EXPECT_TRUE(std::find(first.begin(), first.end(), true) != first.end());
}

// The stress test the sanitizer job leans on: maximum intensity, tight
// memory, many processes. Antagonist reader/dirtier ticks, pressure shocks,
// degraded windows, and injected faults all run concurrently with real
// reclaim; ASan checks the event closures and page bookkeeping.
TEST(ChaosStressTest, AntagonistsSurviveHighIntensity) {
  const FaultPlan plan = FaultPlan::Interference(1.0);
  const MachineImage a = RunChaosWorkload(PlatformProfile::Linux22(), plan, 12);
  const MachineImage b = RunChaosWorkload(PlatformProfile::Linux22(), plan, 12);
  EXPECT_PRED_FORMAT2(SameState, StateDigest(a), StateDigest(b));
  EXPECT_GT(a.os.chaos_stats.antagonist_pages, 0u);
  EXPECT_GT(a.os.chaos_stats.pressure_shocks, 0u);
}

}  // namespace
}  // namespace graysim
