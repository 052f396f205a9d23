// The simulation must be a deterministic function of its seeds: repeated
// runs of the same workload end in bit-identical machines — every byte a
// checkpoint carries, from the virtual clock and OsStats to the event
// kernel, device queues, caches and page tables — on every platform
// profile and under a 32-process stress mix.

#include <gtest/gtest.h>

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

// A mixed workload exercising every event source: demand reads with
// readahead, dirty writes (flush daemon), memory pressure (page daemon and
// direct reclaim), sleeps, and cross-process interleaving. Returns the
// machine's image at the end of the run.
MachineImage RunWorkload(const PlatformProfile& profile, int nprocs) {
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

  std::vector<std::function<void(Pid)>> bodies;
  for (int i = 0; i < nprocs; ++i) {
    bodies.push_back([&os, i](Pid pid) {
      const std::string in = "/d" + std::to_string(i % 2) + "/input";
      const int fd = os.Open(pid, in);
      ASSERT_GE(fd, 0);
      // Staggered sequential reads (readahead + queue contention).
      std::uint64_t off = static_cast<std::uint64_t>(i) * 512 * 1024;
      for (int k = 0; k < 24; ++k) {
        (void)os.Pread(pid, fd, {}, 256 * 1024, off % (24 * kMb));
        off += 256 * 1024;
      }
      (void)os.Close(pid, fd);
      // Private dirty data (write-behind flusher).
      const int out =
          os.Creat(pid, "/d" + std::to_string(i % 2) + "/out" + std::to_string(i));
      ASSERT_GE(out, 0);
      for (int k = 0; k < 8; ++k) {
        (void)os.Pwrite(pid, out, 512 * 1024, static_cast<std::uint64_t>(k) * 512 * 1024);
      }
      if (i % 2 == 0) {
        (void)os.Fsync(pid, out);
      }
      (void)os.Close(pid, out);
      // Anonymous memory churn (zero fill; under enough processes, reclaim).
      const VmAreaId area = os.VmAlloc(pid, (2 + i % 3) * kMb);
      const std::uint64_t pages = (2 + i % 3) * kMb / os.page_size();
      for (std::uint64_t p = 0; p < pages; ++p) {
        os.VmTouch(pid, area, p, /*write=*/true);
      }
      os.Sleep(pid, Millis(1.0 + i));
      for (std::uint64_t p = 0; p < pages; p += 7) {
        os.VmTouch(pid, area, p, /*write=*/true);
      }
      os.VmFree(pid, area);
    });
  }
  os.RunProcesses(bodies);
  return machine.Snapshot();
}

class DeterminismTest : public ::testing::TestWithParam<const char*> {
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

TEST_P(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const PlatformProfile profile = ProfileFor(GetParam());
  const MachineImage a = RunWorkload(profile, 6);
  const MachineImage b = RunWorkload(profile, 6);
  EXPECT_PRED_FORMAT2(SameState, StateDigest(a), StateDigest(b));
  EXPECT_GT(a.os.now, 0);
}

TEST_P(DeterminismTest, EventKernelCountersAreExercised) {
  const MachineImage s = RunWorkload(ProfileFor(GetParam()), 6);
  EXPECT_GT(s.os.os_stats.queued_disk_requests, 0u);
  // Some disk saw overlapping requests (the whole point of real queues).
  std::uint64_t deepest = 0;
  for (const SimDevice::State& d : s.os.disk_devices) {
    deepest = std::max(deepest, d.max_depth);
  }
  EXPECT_GT(deepest, 1u);
}

INSTANTIATE_TEST_SUITE_P(Platforms, DeterminismTest,
                         ::testing::Values("linux2.2", "netbsd1.5", "solaris7"));

TEST(DeterminismStressTest, ThirtyTwoProcessesBitIdentical) {
  const MachineImage a = RunWorkload(PlatformProfile::Linux22(), 32);
  const MachineImage b = RunWorkload(PlatformProfile::Linux22(), 32);
  EXPECT_PRED_FORMAT2(SameState, StateDigest(a), StateDigest(b));
  EXPECT_GT(a.os.os_stats.daemon_wakeups, 0u) << "stress mix should wake the daemons";
}

}  // namespace
}  // namespace graysim
