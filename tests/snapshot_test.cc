// Machine snapshot/fork bit-identity tests.
//
// A fork (Machine::Fork of a Machine::Snapshot image) must not merely be
// "equivalent" to the original — its subsequent execution must be
// bit-identical: the same bytes in every checkpoint section (virtual time,
// stats, chaos decisions, caches, queues) and the same trace. These tests pin that property across all three platform
// profiles with chaos armed, with pending events in flight at the snapshot
// instant (device completions, daemon wakeups, chaos ticks, undelivered
// net messages), through double forks, and through snapshot-of-fork
// round trips. Labeled `snapshot`: CI runs this suite under ASan+UBSan.
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/trace.h"
#include "src/os/machine.h"
#include "src/os/machine_image_io.h"
#include "src/workloads/filegen.h"
#include "tests/same_state.h"

namespace graysim {
namespace {

constexpr std::uint64_t kMb = 1024 * 1024;
constexpr double kChaosIntensity = 0.6;

// Order-sensitive digest of a trace: every retained event's virtual
// timing, payload, track, phase, and name bytes (host_ns excluded — wall
// time legitimately differs between two bit-identical executions).
std::uint64_t TraceDigest(const obs::TraceSink& trace) {
  std::vector<obs::TraceEvent> events;
  trace.Snapshot(&events);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  for (const obs::TraceEvent& e : events) {
    mix(e.virtual_ns);
    mix(e.dur_ns);
    mix(e.arg);
    mix(e.track);
    mix(static_cast<std::uint64_t>(e.phase));
    for (const char c : std::string_view(e.name == nullptr ? "" : e.name)) {
      mix(static_cast<std::uint64_t>(c));
    }
  }
  mix(events.size());
  return h;
}

// Builds cached state worth forking: a file with a warm stripe, dirty
// pages awaiting write-behind, undelivered net messages, and (armed by the
// caller) chaos ticks — so the snapshot instant has real pending events.
void Warm(Machine& machine) {
  Os& os = machine.os();
  const Pid pid = os.default_pid();
  (void)graywork::MakeFile(os, pid, "/d0/warm", 24 * kMb);
  const int fd = os.Open(pid, "/d0/warm");
  for (std::uint64_t off = 0; off < 12 * kMb; off += 512 * 1024) {
    (void)os.Pread(pid, fd, {}, 512 * 1024, off);
  }
  // Dirty without fsync: flush-daemon work and writeback completions stay
  // pending across the snapshot.
  for (std::uint64_t off = 0; off < 4 * kMb; off += 256 * 1024) {
    (void)os.Pwrite(pid, fd, 256 * 1024, 16 * kMb + off);
  }
  (void)os.Close(pid, fd);
  // Two endpoints with messages still on the wire at snapshot time.
  const int a = os.NetEndpoint(pid);
  const int b = os.NetEndpoint(pid);
  (void)os.NetSend(pid, a, b, 48 * 1024, /*tag=*/7);
  (void)os.NetSend(pid, a, b, 16 * 1024, /*tag=*/8);
}

// The divergence detector: a deterministic mixed workload (file reads,
// writes + fsync, anonymous memory, sleeps, net receive) run identically
// on two machines that are supposed to be bit-identical.
void RunContinuation(Machine& machine) {
  Os& os = machine.os();
  machine.RunProcesses({[&os](Pid pid) {
    const int fd = os.Open(pid, "/d0/warm");
    for (std::uint64_t off = 0; off < 20 * kMb; off += 128 * 1024) {
      (void)os.Pread(pid, fd, {}, 128 * 1024, off);
    }
    for (std::uint64_t off = 0; off < 2 * kMb; off += 64 * 1024) {
      (void)os.Pwrite(pid, fd, 64 * 1024, off);
    }
    (void)os.Fsync(pid, fd);
    (void)os.Close(pid, fd);
    const VmAreaId area = os.VmAlloc(pid, 8 * kMb);
    for (std::uint64_t p = 0; p < 8 * kMb / 4096; ++p) {
      os.VmTouch(pid, area, p, /*write=*/true);
    }
    os.VmFree(pid, area);
    os.Sleep(pid, Millis(250.0));
  }});
}

// The divergence check: every byte a checkpoint carries, plus the trace,
// which an image does not carry.
void ExpectSameRun(const Machine& a, const Machine& b) {
  EXPECT_PRED_FORMAT2(SameState, StateOf(a), StateOf(b));
  EXPECT_EQ(TraceDigest(a.os().trace()), TraceDigest(b.os().trace()));
}

// Warm + arm chaos + run a little so the snapshot lands mid-chaos with
// events in flight; returns the machine ready to snapshot.
std::unique_ptr<Machine> WarmChaoticMachine(PlatformProfile profile) {
  auto machine = std::make_unique<Machine>(profile);
  Warm(*machine);
  machine->os().ArmChaos(FaultPlan::Interference(kChaosIntensity));
  Os& os = machine->os();
  const Pid pid = os.default_pid();
  const int fd = os.Open(pid, "/d0/warm");
  for (std::uint64_t off = 0; off < 6 * kMb; off += 256 * 1024) {
    (void)os.Pread(pid, fd, {}, 256 * 1024, off);
  }
  (void)os.Close(pid, fd);
  return machine;
}

TEST(SnapshotTest, ForkReplaysBitIdenticallyOnAllProfilesWithChaos) {
  const PlatformProfile profiles[] = {PlatformProfile::Linux22(),
                                      PlatformProfile::NetBsd15(),
                                      PlatformProfile::Solaris7()};
  for (const PlatformProfile& profile : profiles) {
    SCOPED_TRACE(profile.name);
    std::unique_ptr<Machine> original = WarmChaoticMachine(profile);
    const MachineImage image = original->Snapshot();
    const std::unique_ptr<Machine> fork = Machine::Fork(image);

    ASSERT_EQ(fork->Now(), original->Now());
    ASSERT_TRUE(fork->os().stats() == original->os().stats());
    ASSERT_EQ(fork->os().config().chaos.enabled,
              original->os().config().chaos.enabled);

    original->os().trace().Enable();
    fork->os().trace().Enable();
    RunContinuation(*original);
    RunContinuation(*fork);
    ExpectSameRun(*fork, *original);
    EXPECT_NE(TraceDigest(original->os().trace()), 0u);
  }
}

TEST(SnapshotTest, ForkAtMidRunCarriesPendingEvents) {
  std::unique_ptr<Machine> original = WarmChaoticMachine(PlatformProfile::Linux22());
  const MachineImage image = original->Snapshot();

  // The snapshot instant is mid-flight: chaos ticks are always pending
  // once armed, and the warm phase left write-behind and net deliveries
  // undone. Every captured event must carry a rebuildable descriptor.
  ASSERT_FALSE(image.os.events.empty());
  for (const EventQueue::RawEvent& ev : image.os.events) {
    EXPECT_NE(ev.desc.kind, static_cast<std::uint32_t>(EventKind::kNone));
  }
  EXPECT_GT(image.os.ApproxBytes(), sizeof(Os::Image));

  const std::unique_ptr<Machine> fork = Machine::Fork(image);
  // Receiving the in-flight messages must behave identically on both:
  // the deliveries live in the image as kNetDeliver descriptors.
  auto drain_net = [](Machine& m) {
    Os& os = m.os();
    const Pid pid = os.default_pid();
    NetMessage msg;
    std::uint64_t got = 0;
    while (os.NetRecv(pid, /*endpoint=*/1, Millis(50.0), &msg) > 0) {
      got = got * 131 + msg.tag;
    }
    return got;
  };
  const std::uint64_t original_msgs = drain_net(*original);
  const std::uint64_t fork_msgs = drain_net(*fork);
  EXPECT_EQ(fork_msgs, original_msgs);
  EXPECT_NE(fork_msgs, 0u);
  EXPECT_EQ(fork->Now(), original->Now());
}

TEST(SnapshotTest, DoubleForkReplaysDivergenceFree) {
  std::unique_ptr<Machine> original = WarmChaoticMachine(PlatformProfile::Linux22());
  const MachineImage image = original->Snapshot();
  const std::unique_ptr<Machine> fork_a = Machine::Fork(image);
  const std::unique_ptr<Machine> fork_b = Machine::Fork(image);
  RunContinuation(*fork_a);
  RunContinuation(*fork_b);
  RunContinuation(*original);
  ExpectSameRun(*fork_a, *fork_b);
  ExpectSameRun(*fork_a, *original);
}

TEST(SnapshotTest, SnapshotOfForkRoundTrips) {
  std::unique_ptr<Machine> original = WarmChaoticMachine(PlatformProfile::Linux22());
  const MachineImage image = original->Snapshot();
  const std::unique_ptr<Machine> fork = Machine::Fork(image);
  RunContinuation(*fork);

  // Snapshot the fork mid-sequence and fork again: the grandchild must
  // replay the fork's own future bit-identically.
  const MachineImage second = fork->Snapshot();
  EXPECT_EQ(second.id, image.id);
  const std::unique_ptr<Machine> grandchild = Machine::Fork(second);
  ASSERT_EQ(grandchild->Now(), fork->Now());
  RunContinuation(*fork);
  RunContinuation(*grandchild);
  ExpectSameRun(*grandchild, *fork);
}

TEST(SnapshotTest, ResumedFromDiskReplaysBitIdenticallyOnAllProfilesWithChaos) {
  // The durable variant of the fork pin: Snapshot → SaveMachineImage →
  // LoadMachineImage → Fork must replay exactly like the in-memory
  // original, on every platform profile, with chaos armed at the
  // checkpoint instant.
  const PlatformProfile profiles[] = {PlatformProfile::Linux22(),
                                      PlatformProfile::NetBsd15(),
                                      PlatformProfile::Solaris7()};
  int index = 0;
  for (const PlatformProfile& profile : profiles) {
    SCOPED_TRACE(profile.name);
    std::unique_ptr<Machine> original = WarmChaoticMachine(profile);
    const MachineImage image = original->Snapshot();

    const std::string path =
        ::testing::TempDir() + "/resume_" + std::to_string(index++) + ".gsim";
    std::string error;
    ASSERT_TRUE(SaveMachineImage(image, path, &error)) << error;
    MachineImage loaded;
    ASSERT_TRUE(LoadMachineImage(path, &loaded, &error)) << error;

    const std::unique_ptr<Machine> resumed = Machine::Fork(loaded);
    ASSERT_EQ(resumed->Now(), original->Now());
    ASSERT_TRUE(resumed->os().stats() == original->os().stats());

    original->os().trace().Enable();
    resumed->os().trace().Enable();
    RunContinuation(*original);
    RunContinuation(*resumed);
    ExpectSameRun(*resumed, *original);
    EXPECT_NE(TraceDigest(resumed->os().trace()), 0u);
  }
}

// Whole-file goldens for SaveMachineImage on WarmChaoticMachine: every
// byte of all nine sections, per profile. A mismatch is a format change:
// it needs kMachineImageFormatVersion bumped, not new goldens.
struct FileGolden {
  PlatformProfile (*profile)();
  std::size_t size;
  std::uint64_t fnv1a;
};

constexpr FileGolden kFileGoldens[] = {
    {&PlatformProfile::Linux22, 2213634, 13138871633040426729ULL},
    {&PlatformProfile::NetBsd15, 2213720, 7986269682131498611ULL},
    {&PlatformProfile::Solaris7, 2213634, 4839524433016351081ULL},
};

TEST(SnapshotTest, CheckpointFileBytesMatchGoldensOnAllProfiles) {
  for (const FileGolden& golden : kFileGoldens) {
    const PlatformProfile profile = golden.profile();
    SCOPED_TRACE(profile.name);
    const std::unique_ptr<Machine> machine = WarmChaoticMachine(profile);
    const std::string path = ::testing::TempDir() + "/golden_" + profile.name + ".gsim";
    std::string error;
    ASSERT_TRUE(SaveMachineImage(machine->Snapshot(), path, &error)) << error;
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const char c : bytes) {
      h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001B3ULL;
    }
    EXPECT_EQ(bytes.size(), golden.size);
    EXPECT_EQ(h, golden.fnv1a);
  }
}

TEST(SnapshotTest, ForkPreservesIdentityAndSeedDerivation) {
  Machine original(PlatformProfile::Linux22(), MachineConfig{}, /*machine_id=*/7,
                   /*seed=*/0xFEEDFACE);
  Warm(original);
  const MachineImage image = original.Snapshot();
  const std::unique_ptr<Machine> fork = Machine::Fork(image);
  EXPECT_EQ(fork->id(), original.id());
  EXPECT_EQ(fork->root_seed(), original.root_seed());
  // Caller-visible derived streams (workload RNG seeds) must match too.
  EXPECT_EQ(fork->DeriveSeed(42), original.DeriveSeed(42));
}

}  // namespace
}  // namespace graysim
