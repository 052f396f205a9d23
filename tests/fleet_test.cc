// Machine isolation: the contract that makes the fleet embarrassingly
// parallel, pinned from three angles.
//
//  (a) Two machines advanced in interleaved slices on ONE host thread end
//      bit-identical to the same machines run each on its own — no state
//      leaks between co-resident machines through hidden globals.
//  (b) K machines run on K host threads end bit-identical to the same K
//      machines run sequentially, on every platform profile and with the
//      chaos layer armed — the parallel fleet computes exactly what the
//      serial loop computes.
//  (c) Seeding: distinct machine seeds (or ids) decorrelate every stream —
//      jitter, event tie-breaks, chaos — while identical (seed, id) pairs
//      replay bit-identically.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/os/machine.h"
#include "src/os/os.h"
#include "src/sim/fault_plan.h"
#include "tests/same_state.h"

namespace graysim {
namespace {

constexpr std::uint64_t kMb = 1024 * 1024;
constexpr std::uint64_t kFleetSeed = 0xF1EE7;

PlatformProfile ProfileFor(const std::string& name) {
  if (name == "linux2.2") {
    return PlatformProfile::Linux22();
  }
  if (name == "netbsd1.5") {
    return PlatformProfile::NetBsd15();
  }
  return PlatformProfile::Solaris7();
}

MachineConfig SmallConfig(bool with_chaos) {
  MachineConfig cfg;
  cfg.phys_mem_bytes = 96 * kMb;
  cfg.kernel_reserved_bytes = 24 * kMb;
  cfg.num_disks = 2;
  if (with_chaos) {
    cfg.chaos = FaultPlan::Interference(0.25);
  }
  return cfg;
}

void MakeFile(Os& os, Pid pid, const std::string& path, std::uint64_t bytes) {
  const int fd = os.Creat(pid, path);
  ASSERT_GE(fd, 0) << path;
  for (std::uint64_t off = 0; off < bytes; off += kMb) {
    (void)os.Pwrite(pid, fd, std::min(kMb, bytes - off), off);
  }
  (void)os.Fsync(pid, fd);
  (void)os.Close(pid, fd);
}

void SetupMachine(Os& os) {
  const Pid pid = os.default_pid();
  for (int d = 0; d < os.num_disks(); ++d) {
    MakeFile(os, pid, "/d" + std::to_string(d) + "/input", 6 * kMb);
  }
  os.FlushFileCache();
}

void SetupMachine(Machine& m) { SetupMachine(m.os()); }

constexpr int kSteps = 3;

// One slice of the machine's life: a multi-process batch mixing reads (with
// readahead), dirty writes, anonymous-memory churn, and sleeps. Chaos (when
// armed) injects into all of it. Each step leaves warm cache and dirty
// state behind for the next, so interleaving steps of two machines would
// expose any leakage through a shared global immediately.
void RunStep(Os& os, int step) {
  std::vector<std::function<void(Pid)>> bodies;
  for (int i = 0; i < 3; ++i) {
    bodies.push_back([&os, step, i](Pid pid) {
      const std::string input = "/d" + std::to_string(i % os.num_disks()) + "/input";
      const int fd = os.Open(pid, input);
      if (fd >= 0) {
        std::uint64_t off = static_cast<std::uint64_t>((step + i) % 4) * 512 * 1024;
        for (int k = 0; k < 6; ++k) {
          (void)os.Pread(pid, fd, {}, 256 * 1024, off % (6 * kMb));
          off += 384 * 1024;
        }
        (void)os.Close(pid, fd);
      }
      const int out = os.Creat(pid, "/d" + std::to_string(i % os.num_disks()) + "/out" +
                                        std::to_string(step) + "_" + std::to_string(i));
      if (out >= 0) {
        for (int k = 0; k < 3; ++k) {
          (void)os.Pwrite(pid, out, 256 * 1024, static_cast<std::uint64_t>(k) * 256 * 1024);
        }
        (void)os.Close(pid, out);
      }
      const VmAreaId area = os.VmAlloc(pid, (1 + (step + i) % 2) * kMb);
      const std::uint64_t pages = (1 + (step + i) % 2) * kMb / os.page_size();
      for (std::uint64_t p = 0; p < pages; ++p) {
        os.VmTouch(pid, area, p, /*write=*/true);
      }
      os.Sleep(pid, Millis(1.0 + i + step));
      os.VmFree(pid, area);
    });
  }
  os.RunProcesses(bodies);
}

void RunStep(Machine& m, int step) { RunStep(m.os(), step); }

// The machine's whole checkpointable state after its run: everything two
// runs can deterministically disagree on.
MachineImage RunWholeMachine(const PlatformProfile& profile, const MachineConfig& cfg,
                             std::uint32_t id, std::uint64_t seed) {
  Machine m(profile, cfg, id, seed);
  SetupMachine(m);
  for (int step = 0; step < kSteps; ++step) {
    RunStep(m, step);
  }
  return m.Snapshot();
}

// ---- (a) interleaved on one thread == each alone ----

TEST(FleetIsolation, InterleavedMachinesMatchSoloRuns) {
  const PlatformProfile profile = PlatformProfile::Linux22();
  const MachineConfig cfg = SmallConfig(/*with_chaos=*/true);

  const ImageDigest solo_a = StateDigest(RunWholeMachine(profile, cfg, /*id=*/0, kFleetSeed));
  const ImageDigest solo_b = StateDigest(RunWholeMachine(profile, cfg, /*id=*/1, kFleetSeed));
  ASSERT_NE(solo_a, solo_b) << "distinct machine ids should not coincide";

  // Same two machines, advanced alternately in slices on this one thread.
  Machine a(profile, cfg, /*id=*/0, kFleetSeed);
  Machine b(profile, cfg, /*id=*/1, kFleetSeed);
  SetupMachine(a);
  SetupMachine(b);
  for (int step = 0; step < kSteps; ++step) {
    RunStep(a, step);
    RunStep(b, step);
  }
  EXPECT_PRED_FORMAT2(SameState, StateOf(a), solo_a)
      << "machine A perturbed by interleaving with B";
  EXPECT_PRED_FORMAT2(SameState, StateOf(b), solo_b)
      << "machine B perturbed by interleaving with A";
}

// ---- (b) K threads == sequential, all profiles ----

class FleetThreadingTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FleetThreadingTest, ThreadedFleetMatchesSequential) {
  const PlatformProfile profile = ProfileFor(GetParam());
  const MachineConfig cfg = SmallConfig(/*with_chaos=*/true);
  constexpr int kMachines = 4;

  std::vector<MachineImage> sequential(kMachines);
  for (int i = 0; i < kMachines; ++i) {
    sequential[i] =
        RunWholeMachine(profile, cfg, static_cast<std::uint32_t>(i), kFleetSeed);
  }

  std::vector<MachineImage> threaded(kMachines);
  std::vector<std::thread> threads;
  threads.reserve(kMachines);
  for (int i = 0; i < kMachines; ++i) {
    threads.emplace_back([&, i] {
      threaded[i] =
          RunWholeMachine(profile, cfg, static_cast<std::uint32_t>(i), kFleetSeed);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  for (int i = 0; i < kMachines; ++i) {
    EXPECT_PRED_FORMAT2(SameState, StateDigest(threaded[i]), StateDigest(sequential[i]))
        << "machine " << i << " on " << profile.name
        << " diverged between threaded and sequential execution";
    EXPECT_GT(threaded[i].os.now, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Platforms, FleetThreadingTest,
                         ::testing::Values("linux2.2", "netbsd1.5", "solaris7"));

// ---- (c) seeding ----

TEST(FleetSeeding, SameSeedAndIdReplaysBitIdentically) {
  const MachineConfig cfg = SmallConfig(/*with_chaos=*/true);
  const MachineImage first =
      RunWholeMachine(PlatformProfile::Linux22(), cfg, /*id=*/7, kFleetSeed);
  const MachineImage again =
      RunWholeMachine(PlatformProfile::Linux22(), cfg, /*id=*/7, kFleetSeed);
  EXPECT_PRED_FORMAT2(SameState, StateDigest(first), StateDigest(again));
}

TEST(FleetSeeding, DistinctSeedsDecorrelateStreams) {
  const MachineConfig cfg = SmallConfig(/*with_chaos=*/true);
  const MachineImage s1 = RunWholeMachine(PlatformProfile::Linux22(), cfg, /*id=*/0, 1);
  const MachineImage s2 = RunWholeMachine(PlatformProfile::Linux22(), cfg, /*id=*/0, 2);
  EXPECT_NE(StateDigest(s1), StateDigest(s2))
      << "different fleet seeds produced identical machines";
  // The chaos stream specifically must differ, not just timing jitter.
  EXPECT_FALSE(s1.os.chaos_stats == s2.os.chaos_stats) << "chaos stream did not re-seed";
}

TEST(FleetSeeding, DistinctMachineIdsDecorrelateStreams) {
  const MachineConfig cfg = SmallConfig(/*with_chaos=*/true);
  const MachineImage s1 =
      RunWholeMachine(PlatformProfile::Linux22(), cfg, /*id=*/0, kFleetSeed);
  const MachineImage s2 =
      RunWholeMachine(PlatformProfile::Linux22(), cfg, /*id=*/1, kFleetSeed);
  EXPECT_NE(StateDigest(s1), StateDigest(s2))
      << "different machine ids produced identical machines";
  EXPECT_FALSE(s1.os.chaos_stats == s2.os.chaos_stats);
}

TEST(FleetSeeding, DerivedSeedsAreStableAndStreamSpecific) {
  const MachineConfig cfg = SmallConfig(/*with_chaos=*/false);
  Machine a(PlatformProfile::Linux22(), cfg, /*machine_id=*/3, kFleetSeed);
  Machine b(PlatformProfile::Linux22(), cfg, /*machine_id=*/3, kFleetSeed);
  Machine c(PlatformProfile::Linux22(), cfg, /*machine_id=*/4, kFleetSeed);
  EXPECT_EQ(a.DeriveSeed(0), b.DeriveSeed(0));
  EXPECT_NE(a.DeriveSeed(0), a.DeriveSeed(1));
  EXPECT_NE(a.DeriveSeed(0), c.DeriveSeed(0));
}

TEST(FleetSeeding, ConfigSeededMachineMatchesBareOs) {
  // The migration contract: Machine(profile, config) must simulate
  // bit-identically to the historical hand-assembled Os(profile, config),
  // so moving a bench onto the facade cannot move its committed baselines.
  const MachineConfig cfg = SmallConfig(/*with_chaos=*/true);
  Machine m(PlatformProfile::Linux22(), cfg);
  EXPECT_EQ(m.id(), 0u);
  SetupMachine(m);
  for (int step = 0; step < kSteps; ++step) {
    RunStep(m, step);
  }

  Os os(PlatformProfile::Linux22(), cfg);
  SetupMachine(os);
  for (int step = 0; step < kSteps; ++step) {
    RunStep(os, step);
  }
  // The bare Os has no identity of its own; it borrows the Machine's, so
  // the comparison covers every other section.
  EXPECT_PRED_FORMAT2(SameState, StateOf(m),
                      StateDigest(MachineImage{m.id(), m.root_seed(), os.CaptureImage()}))
      << "config-seeded Machine diverged from the hand-assembled Os it replaces";
}

// ---- net traffic across the fleet ----

// A lossy ring of processes exchanging datagrams through the machine's
// simulated link. The NetDevice draws from machine-derived RNG streams
// (loss, RED, reorder), so this pins that net traffic obeys the same
// isolation contract as the disk and chaos streams.
MachineImage RunNetMachine(const PlatformProfile& profile, const MachineConfig& cfg,
                          std::uint32_t id, std::uint64_t seed) {
  Machine m(profile, cfg, id, seed);
  Os& os = m.os();
  constexpr int kProcs = 3;
  std::vector<int> eps(kProcs);
  for (int& ep : eps) {
    ep = os.NetEndpoint(os.default_pid());
  }
  std::vector<std::function<void(Pid)>> bodies;
  for (int i = 0; i < kProcs; ++i) {
    bodies.push_back([&os, &eps, i](Pid pid) {
      NetMessage msg;
      for (int k = 0; k < 40; ++k) {
        (void)os.NetSend(pid, eps[i], eps[(i + 1) % kProcs], 512,
                         static_cast<std::uint64_t>(k));
        os.Compute(pid, Micros(20.0));
        (void)os.NetRecv(pid, eps[i], Millis(2.0), &msg);
      }
      while (os.NetRecv(pid, eps[i], Millis(1.0), &msg) >= 0) {
      }
    });
  }
  os.RunProcesses(bodies);
  return m.Snapshot();
}

TEST(FleetNet, ThreadedNetTrafficMatchesSequential) {
  const PlatformProfile profile = PlatformProfile::Linux22();
  MachineConfig cfg = SmallConfig(/*with_chaos=*/true);
  cfg.net.drop_prob = 0.05;
  cfg.net.queue_capacity = 8;
  cfg.net.reorder_prob = 0.05;
  constexpr int kMachines = 3;

  std::vector<MachineImage> sequential(kMachines);
  for (int i = 0; i < kMachines; ++i) {
    sequential[i] =
        RunNetMachine(profile, cfg, static_cast<std::uint32_t>(i), kFleetSeed);
  }
  // The scenario must actually exercise the link's loss machinery.
  const NetDevice::State& net = sequential[0].os.net;
  EXPECT_GT(net.delivered, 0u);
  EXPECT_GT(net.loss_drops + net.congestion_drops + net.red_drops + net.chaos_drops, 0u);
  EXPECT_GT(sequential[0].os.os_stats.net_sends, 0u);
  EXPECT_GT(sequential[0].os.os_stats.net_recvs, 0u);
  ASSERT_NE(StateDigest(sequential[0]), StateDigest(sequential[1]))
      << "distinct machine ids should draw distinct loss streams";

  std::vector<MachineImage> threaded(kMachines);
  std::vector<std::thread> threads;
  threads.reserve(kMachines);
  for (int i = 0; i < kMachines; ++i) {
    threads.emplace_back([&, i] {
      threaded[i] =
          RunNetMachine(profile, cfg, static_cast<std::uint32_t>(i), kFleetSeed);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int i = 0; i < kMachines; ++i) {
    EXPECT_PRED_FORMAT2(SameState, StateDigest(threaded[i]), StateDigest(sequential[i]))
        << "machine " << i << " net traffic diverged under threading";
  }
}

// ---- fleet metrics roll-up ----

TEST(FleetMetrics, SnapshotsMergeAcrossMachines) {
  const MachineConfig cfg = SmallConfig(/*with_chaos=*/false);
  Machine a(PlatformProfile::Linux22(), cfg, /*machine_id=*/0, kFleetSeed);
  Machine b(PlatformProfile::Linux22(), cfg, /*machine_id=*/1, kFleetSeed);
  SetupMachine(a);
  SetupMachine(b);
  RunStep(a, 0);
  RunStep(b, 0);

  obs::MetricsSnapshot sa = a.SnapshotMetrics();
  const obs::MetricsSnapshot sb = b.SnapshotMetrics();
  const double syscalls_a = sa.ScalarValue("os.syscalls");
  const double syscalls_b = sb.ScalarValue("os.syscalls");
  ASSERT_GT(syscalls_a, 0.0);
  ASSERT_GT(syscalls_b, 0.0);
  const obs::Histogram* ha = sa.FindHistogram("disk0.service_ns");
  const obs::Histogram* hb = sb.FindHistogram("disk0.service_ns");
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  const std::uint64_t count_a = ha->count();
  const std::uint64_t count_b = hb->count();
  ASSERT_GT(count_a, 0u);

  sa.Merge(sb);
  EXPECT_DOUBLE_EQ(sa.ScalarValue("os.syscalls"), syscalls_a + syscalls_b);
  const obs::Histogram* merged = sa.FindHistogram("disk0.service_ns");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), count_a + count_b);
  // Samples() expands merged histograms into the percentile series the
  // fleet bench reports.
  bool saw_p99 = false;
  for (const obs::MetricsSnapshot::Scalar& s : sa.Samples()) {
    if (s.name == "disk0.service_ns.p99") {
      saw_p99 = true;
      EXPECT_GT(s.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_p99);
}

}  // namespace
}  // namespace graysim
