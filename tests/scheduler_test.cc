// Deterministic fiber scheduler: fairness, sleeping, determinism, and
// scaling across process counts (TEST_P sweep). Sleep/wake goes through the
// discrete-event queue, so every fixture pairs the scheduler with one. The
// last tests cover the fiber stacks themselves: an overflow stops on the
// guard page, and a host thread's stacks are unmapped when it exits.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/os/scheduler.h"
#include "src/sim/event_queue.h"

namespace graysim {
namespace {

constexpr std::uint64_t kTieSeed = 0x5eed;

TEST(SchedulerTest, SingleProcessRunsToCompletion) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  bool ran = false;
  sched.Run({[&](int) {
    sched.Charge(0, Millis(25.0));
    ran = true;
  }});
  EXPECT_TRUE(ran);
  EXPECT_EQ(clock.now(), Millis(25.0));
}

TEST(SchedulerTest, EmptyRunIsANoOp) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  sched.Run({});
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_FALSE(sched.active());
}

TEST(SchedulerTest, ChargesAccumulateAcrossProcesses) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  sched.Run({
      [&](int p) { sched.Charge(p, Millis(30.0)); },
      [&](int p) { sched.Charge(p, Millis(20.0)); },
  });
  EXPECT_EQ(clock.now(), Millis(50.0));
}

TEST(SchedulerTest, RoundRobinInterleavesFairly) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  // Each process records the time at which it performs each step; with
  // round-robin slices, neither can run two full slices back to back while
  // the other is runnable.
  std::vector<Nanos> finish(2, 0);
  sched.Run({
      [&](int p) {
        for (int i = 0; i < 10; ++i) {
          sched.Charge(p, Millis(10.0));
        }
        finish[0] = clock.now();
      },
      [&](int p) {
        for (int i = 0; i < 10; ++i) {
          sched.Charge(p, Millis(10.0));
        }
        finish[1] = clock.now();
      },
  });
  const Nanos gap = finish[1] > finish[0] ? finish[1] - finish[0] : finish[0] - finish[1];
  EXPECT_LE(gap, Millis(10.0)) << "both should finish within one slice of each other";
}

TEST(SchedulerTest, SleepWakesAtDeadline) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  Nanos woke_at = 0;
  sched.Run({[&](int p) {
    sched.Sleep(p, Seconds(3.0));
    woke_at = clock.now();
  }});
  EXPECT_GE(woke_at, Seconds(3.0));
}

TEST(SchedulerTest, SleeperYieldsToRunnableProcess) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  Nanos worker_done = 0;
  Nanos sleeper_done = 0;
  sched.Run({
      [&](int p) {
        sched.Sleep(p, Millis(500.0));
        sleeper_done = clock.now();
      },
      [&](int p) {
        sched.Charge(p, Millis(100.0));  // runs while the other sleeps
        worker_done = clock.now();
      },
  });
  EXPECT_LE(worker_done, Millis(120.0)) << "worker shouldn't wait for the sleeper";
  EXPECT_GE(sleeper_done, Millis(500.0));
}

TEST(SchedulerTest, AllSleepingAdvancesClock) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  sched.Run({
      [&](int p) { sched.Sleep(p, Millis(100.0)); },
      [&](int p) { sched.Sleep(p, Millis(250.0)); },
  });
  EXPECT_GE(clock.now(), Millis(250.0));
}

TEST(SchedulerTest, YieldRotatesWithoutCharging) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  std::vector<int> order;
  sched.Run({
      [&](int p) {
        order.push_back(0);
        sched.Yield(p);
        order.push_back(0);
      },
      [&](int p) {
        order.push_back(1);
        sched.Yield(p);
        order.push_back(1);
      },
  });
  EXPECT_EQ(clock.now(), 0u);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // yield handed the turn over
}

TEST(SchedulerTest, DispatchDrainsEventQueueWhileAllSleep) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  // A "device completion" scheduled mid-run must fire before a process that
  // sleeps past it resumes (completions run in the earlier band).
  Nanos completion_at = 0;
  Nanos woke_at = 0;
  sched.Run({[&](int p) {
    events.ScheduleAt(clock.now() + Millis(5.0), EventQueue::Band::kCompletion,
                      [&] { completion_at = clock.now(); });
    sched.Sleep(p, Millis(5.0));
    woke_at = clock.now();
  }});
  EXPECT_EQ(completion_at, Millis(5.0));
  EXPECT_GE(woke_at, completion_at);
}

class SchedulerScaling : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerScaling, ManyProcessesAllFinishDeterministically) {
  const int n = GetParam();
  auto run = [n] {
    SimClock clock;
    EventQueue events(kTieSeed);
    Scheduler sched(&clock, &events, Millis(10.0));
    std::vector<std::function<void(int)>> bodies;
    std::vector<Nanos> finish(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      bodies.push_back([&sched, &clock, &finish, i](int p) {
        for (int k = 0; k < 5 + i; ++k) {
          sched.Charge(p, Millis(3.0 + i));
        }
        if (i % 3 == 0) {
          sched.Sleep(p, Millis(17.0));
        }
        finish[static_cast<std::size_t>(i)] = clock.now();
      });
    }
    sched.Run(bodies);
    return std::make_pair(clock.now(), finish);
  };
  const auto [t1, f1] = run();
  const auto [t2, f2] = run();
  EXPECT_EQ(t1, t2) << "scheduler must be deterministic";
  EXPECT_EQ(f1, f2);
  for (const Nanos t : f1) {
    EXPECT_GT(t, 0u) << "every process finished";
  }
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, SchedulerScaling, ::testing::Values(1, 2, 4, 8, 16));

// --- stack overflow --------------------------------------------------------

// Address of a local in the overflowing fiber's first frame: the top of its
// stack, give or take a few hundred bytes.
const char* volatile g_fiber_stack_top = nullptr;
constexpr int kGuardHitExit = 42;

void WriteStderr(const char* msg) { (void)!write(STDERR_FILENO, msg, std::strlen(msg)); }

// Runs on an alternate stack (the fiber's own is exhausted). Exits with
// kGuardHitExit only when the fault lies within one frame below the
// fiber's 512 KB stack: the first touch of the guard region. Without a
// guard the recursion would run on into whatever lies below (and fault, if
// at all, much deeper).
void OnOverflowFault(int, siginfo_t* info, void*) {
  const auto top = reinterpret_cast<std::uintptr_t>(g_fiber_stack_top);
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const std::uintptr_t depth = top - addr;
  if (addr < top && depth > 500 * 1024 && depth < 520 * 1024) {
    WriteStderr("fiber stack overflow stopped at the guard page\n");
    _exit(kGuardHitExit);
  }
  WriteStderr("SIGSEGV outside the fiber's guard page\n");
  _exit(1);
}

// Each frame holds a 1 KB buffer, far smaller than the guard region, so the
// recursion cannot step over it.
[[gnu::noinline]] int Recurse(int depth) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(depth);
  if (depth > 10'000'000) {
    return pad[0];
  }
  return Recurse(depth + 1) + pad[0];
}

void OverflowAFiber() {
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof(alt_stack);
  sigaltstack(&ss, nullptr);
  struct sigaction sa{};
  sa.sa_sigaction = OnOverflowFault;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGSEGV, &sa, nullptr);

  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  int sink = 0;
  sched.Run({[&](int) {
    char top = 0;
    g_fiber_stack_top = &top;
    sink = Recurse(0);
  }});
  WriteStderr("recursion returned\n");
  std::exit(sink == 0 ? 2 : 3);
}

TEST(SchedulerDeathTest, FiberStackOverflowHitsTheGuardPage) {
  // Overflow must fail loudly at the faulting frame, never run on into
  // whatever memory lies below the stack.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(OverflowAFiber(), ::testing::ExitedWithCode(kGuardHitExit),
              "stopped at the guard page");
}

// Memory mappings of this process (one line each in /proc/self/maps).
int MappingCount() {
  std::ifstream maps("/proc/self/maps");
  int lines = 0;
  for (std::string line; std::getline(maps, line);) {
    ++lines;
  }
  return lines;
}

TEST(SchedulerTest, ThreadExitUnmapsItsStacks) {
  // Each pooled stack is two mappings (guard + stack). A host thread that
  // ran 32 fibers holds 32 stacks until it exits, then unmaps them all.
  constexpr int kFibers = 32;
  const int before = MappingCount();
  int during = 0;
  std::thread worker([&] {
    SimClock clock;
    EventQueue events(kTieSeed);
    Scheduler sched(&clock, &events, Millis(1.0));
    sched.Run(std::vector<std::function<void(int)>>(
        kFibers, [&](int p) { sched.Charge(p, Millis(2.0)); }));
    during = MappingCount();
  });
  worker.join();
  EXPECT_GE(during, before + 2 * kFibers);
  EXPECT_LT(MappingCount(), before + 2 * kFibers);
}

}  // namespace
}  // namespace graysim
