// Deterministic fiber scheduler: fairness, sleeping, determinism, and
// scaling across process counts (TEST_P sweep). Sleep/wake goes through the
// discrete-event queue, so every fixture pairs the scheduler with one. The
// switch tests check what the register-only stack switch must carry: FP
// control words, callee-saved registers, ABI stack alignment, and
// exceptions unwinding inside a fiber. The last tests cover the fiber
// stacks themselves: an overflow stops on the guard page, and a host
// thread's stacks are unmapped when it exits.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>
#include <xmmintrin.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
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

// --- the stack switch ------------------------------------------------------

constexpr unsigned kMxcsrRounding = 0x6000;  // MXCSR RC field
constexpr unsigned kMxcsrTowardZero = 0x6000;

TEST(SchedulerSwitchTest, RoundingModeStaysWithItsFiber) {
  // The FP control words are callee-saved state of the fiber that set
  // them: fiber 0 switches to round-toward-zero and keeps it across every
  // switch; fiber 1 and the dispatch loop (which runs the 1.5 ms event
  // while both fibers sleep) keep the mode Run() was called with.
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  const unsigned outer_mxcsr = _mm_getcsr();
  const int outer_round = std::fegetround();
  ASSERT_EQ(outer_mxcsr & kMxcsrRounding, 0u) << "test expects round-to-nearest outside";
  int fiber0_kept = 0;
  int fiber1_default = 0;
  unsigned dispatch_mxcsr = 0;
  int dispatch_round = -1;
  events.ScheduleAt(Millis(1.5), EventQueue::Band::kCompletion, [&] {
    dispatch_mxcsr = _mm_getcsr();
    dispatch_round = std::fegetround();
  });
  constexpr int kRounds = 100;
  sched.Run({
      [&](int p) {
        ASSERT_EQ(std::fesetround(FE_TOWARDZERO), 0);
        for (int i = 0; i < kRounds; ++i) {
          sched.Yield(p);
          fiber0_kept += (_mm_getcsr() & kMxcsrRounding) == kMxcsrTowardZero &&
                         std::fegetround() == FE_TOWARDZERO;
        }
        sched.Sleep(p, Millis(1.0));
        fiber0_kept += (_mm_getcsr() & kMxcsrRounding) == kMxcsrTowardZero &&
                       std::fegetround() == FE_TOWARDZERO;
      },
      [&](int p) {
        for (int i = 0; i < kRounds; ++i) {
          sched.Yield(p);
          fiber1_default += _mm_getcsr() == outer_mxcsr && std::fegetround() == outer_round;
        }
        sched.Sleep(p, Millis(2.0));
        fiber1_default += _mm_getcsr() == outer_mxcsr && std::fegetround() == outer_round;
      },
  });
  EXPECT_EQ(fiber0_kept, kRounds + 1);
  EXPECT_EQ(fiber1_default, kRounds + 1);
  EXPECT_EQ(dispatch_mxcsr, outer_mxcsr);
  EXPECT_EQ(dispatch_round, outer_round);
  EXPECT_EQ(_mm_getcsr(), outer_mxcsr);
  EXPECT_EQ(std::fegetround(), outer_round);
}

// Six accumulators live across every yield, so the compiler keeps them in
// callee-saved registers (or its own stack slots) through each switch.
// With yield == nullptr the same recurrence runs without switching.
[[gnu::noinline]] std::uint64_t MixAcrossSwitches(std::uint64_t seed, int rounds,
                                                  const std::function<void()>& yield) {
  std::uint64_t a = seed;
  std::uint64_t b = seed * 3 + 1;
  std::uint64_t c = ~seed;
  std::uint64_t d = seed ^ 0x9E3779B97F4A7C15ULL;
  std::uint64_t e = seed << 7;
  std::uint64_t f = seed + 0x5eed;
  for (int i = 0; i < rounds; ++i) {
    a = a * 6364136223846793005ULL + b;
    b ^= a >> 17;
    c += b * 31 + static_cast<std::uint64_t>(i);
    d = (d << 5 | d >> 59) ^ c;
    e += d * 7;
    f ^= e + a;
    if (yield) {
      yield();
    }
  }
  return a ^ b ^ c ^ d ^ e ^ f;
}

TEST(SchedulerSwitchTest, CalleeSavedStateSurvivesInterleavedSwitches) {
  // 8 fibers x 1,250 yields: 10K switches in, each fiber's locals checked
  // against the same recurrence run without switching.
  constexpr int kFibers = 8;
  constexpr int kRounds = 1250;
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  std::vector<std::uint64_t> got(kFibers, 0);
  std::vector<std::function<void(int)>> bodies;
  for (int i = 0; i < kFibers; ++i) {
    bodies.push_back([&](int p) {
      got[p] = MixAcrossSwitches(static_cast<std::uint64_t>(p) + 1, kRounds,
                                 [&sched, p] { sched.Yield(p); });
    });
  }
  sched.Run(bodies);
  for (int p = 0; p < kFibers; ++p) {
    EXPECT_EQ(got[p], MixAcrossSwitches(static_cast<std::uint64_t>(p) + 1, kRounds, nullptr))
        << "fiber " << p;
  }
}

// Frame address of a function called from the fiber: 16-byte aligned iff
// the fiber started with the stack aligned as after a call.
[[gnu::noinline]] std::uintptr_t FrameAddress() {
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

TEST(SchedulerSwitchTest, FibersRunOnAbiAlignedStacks) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  std::vector<std::uintptr_t> frames;
  const auto body = [&](int p) {
    frames.push_back(FrameAddress());
    sched.Yield(p);
    frames.push_back(FrameAddress());
  };
  sched.Run({body, body, body});
  ASSERT_EQ(frames.size(), 6u);
  for (const std::uintptr_t frame : frames) {
    EXPECT_EQ(frame % 16, 0u);
  }
}

// Stands in for Os::CrashUnwind: thrown from below a scheduler call after
// the fiber has been switched out and back in many times.
struct Unwind {
  int proc;
};

TEST(SchedulerSwitchTest, ExceptionAfterManySwitchesIsCaughtInTheBody) {
  constexpr int kFibers = 4;
  constexpr int kRounds = 1000;
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(1.0));
  std::vector<int> caught(kFibers, -1);
  std::vector<int> resumed_after_catch(kFibers, 0);
  std::vector<std::function<void(int)>> bodies;
  for (int i = 0; i < kFibers; ++i) {
    bodies.push_back([&](int p) {
      try {
        for (int k = 0; k < kRounds; ++k) {
          sched.Charge(p, Millis(0.5));  // a switch every other charge
          if (k % 7 == 3) {
            sched.Yield(p);
          }
        }
        sched.Sleep(p, Millis(1.0 + p));
        throw Unwind{p};
      } catch (const Unwind& u) {
        caught[p] = u.proc;
      }
      // The fiber keeps scheduling normally after the unwind.
      sched.Yield(p);
      resumed_after_catch[p] = 1;
    });
  }
  sched.Run(bodies);
  for (int p = 0; p < kFibers; ++p) {
    EXPECT_EQ(caught[p], p);
    EXPECT_EQ(resumed_after_catch[p], 1);
  }
}

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

// Fiber stack guard regions mapped in this process: PROT_NONE mappings of
// exactly 64 KB, one below each pooled stack. Counting these rather than
// every line of /proc/self/maps keeps other mappings out of the tally: a
// TSan build's munmap interceptor splits its shadow mapping on every unmap,
// so the total line count rises when stacks are unmapped.
int GuardMappingCount() {
  std::ifstream maps("/proc/self/maps");
  int guards = 0;
  for (std::string line; std::getline(maps, line);) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) == 3 &&
        std::string(perms) == "---p" && hi - lo == 64 * 1024) {
      ++guards;
    }
  }
  return guards;
}

TEST(SchedulerTest, ThreadExitUnmapsItsStacks) {
  // Each pooled stack has one guard mapping. A host thread that ran 32
  // fibers holds 32 stacks until it exits, then unmaps them all.
  constexpr int kFibers = 32;
  const int before = GuardMappingCount();
  int during = 0;
  std::thread worker([&] {
    SimClock clock;
    EventQueue events(kTieSeed);
    Scheduler sched(&clock, &events, Millis(1.0));
    sched.Run(std::vector<std::function<void(int)>>(
        kFibers, [&](int p) { sched.Charge(p, Millis(2.0)); }));
    during = GuardMappingCount();
  });
  worker.join();
  EXPECT_GE(during, before + kFibers);
  EXPECT_EQ(GuardMappingCount(), before);
}

}  // namespace
}  // namespace graysim
