// Deterministic cooperative round-robin scheduler for simulated processes.
//
// Each simulated process runs on a stackful fiber multiplexed on the single
// host thread that called Run(). Control transfers happen at syscall-charge
// points, sleeps, and exits — the same yield points as the old
// thread-per-process turnstile — but a switch is now one register-only
// stack switch (fiber_switch_x86_64.S: callee-saved registers, MXCSR and
// x87 control words, rsp) instead of a mutex/condvar crossing, so neither
// the per-charge fast path nor a switch takes a lock or enters the kernel.
//
// Sleep/wake is delegated to the discrete-event queue: a sleeping fiber
// schedules its own wake event (Band::kWake), and when no fiber is runnable
// the dispatch loop advances the clock to the next pending event. Device
// completions and background daemons therefore interleave with process
// execution on one deterministic timeline.
//
// Each scheduler is confined to whichever host thread calls its Run(): the
// running-scheduler slot consulted by the fiber trampoline is thread_local,
// so N independent machines may run on N host threads concurrently (the
// fleet model) with zero shared state between them.
//
// Fiber stacks are borrowed for the length of one Run() from a pool owned by
// the host thread (see scheduler.cc): mmap'd, with a PROT_NONE guard region
// below each one so an overflow faults instead of corrupting the heap, and
// reused across Run() calls and across every machine the thread builds.
#ifndef SRC_OS_SCHEDULER_H_
#define SRC_OS_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/event_queue.h"

namespace graysim {

class Scheduler {
 public:
  Scheduler(SimClock* clock, EventQueue* events, Nanos slice)
      : clock_(clock), events_(events), slice_(slice) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Runs all bodies to completion; bodies[i] is invoked with proc index i.
  // Returns when every body has returned (a no-op for an empty vector).
  // Pending events (device completions, daemons) are drained along the way.
  void Run(const std::vector<std::function<void(int)>>& bodies);

  // True while Run() is executing. Single-threaded: only ever read from the
  // same host thread that runs the fibers.
  [[nodiscard]] bool active() const { return active_; }

  // Charges `cost` of virtual time to proc, drains newly due events, and
  // yields if the slice expired.
  void Charge(int proc, Nanos cost);

  // Puts proc to sleep for `duration` of virtual time / until `deadline`.
  void Sleep(int proc, Nanos duration);
  void SleepUntil(int proc, Nanos deadline);

  // Voluntarily gives up the remainder of the slice.
  void Yield(int proc);

  // Crash-stop support: marks every sleeping fiber ready so the dispatch
  // loop runs each one once more. The owner (Os) makes the next charge or
  // wake throw through the fiber body, unwinding its stack — the mechanism
  // by which "every fiber's stack dies" without the dispatch loop
  // deadlocking on wake events that will never fire.
  void WakeAll();

  [[nodiscard]] Nanos slice() const { return slice_; }

  // Optional trace sink: each fiber gets its own "fiber/N" track carrying
  // B/E "run" spans around every dispatch (one span per scheduling turn).
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  enum class State : std::uint8_t { kReady, kSleeping, kDone };

  struct Fiber {
    void* sp = nullptr;     // saved stack pointer while switched out
    char* stack = nullptr;  // lowest usable byte; borrowed from the thread's pool
    State state = State::kReady;
    Nanos slice_used = 0;
    // ASan bookkeeping: the fake-stack handle saved across switches away
    // from this fiber (see __sanitizer_start_switch_fiber).
    void* fake_stack = nullptr;
    // TSan bookkeeping: the __tsan_create_fiber handle announced before
    // every switch into this fiber. Null outside TSan builds.
    void* tsan_fiber = nullptr;
  };

  // Entry point for every fiber (runs bodies_[current_]; never returns).
  static void Trampoline();
  void FiberMain();

  // Next ready fiber after `from` in round-robin order; -1 if none.
  [[nodiscard]] int PickNext(int from) const;

  // Transfers control main -> fiber i / fiber current_ -> main. `dying`
  // marks the fiber's final switch-out so ASan can retire its fake stack.
  void SwitchToFiber(int i);
  void SwitchToMain(bool dying);

  SimClock* clock_;
  EventQueue* events_;
  Nanos slice_;
  obs::TraceSink* trace_ = nullptr;
  std::vector<std::uint32_t> fiber_tracks_;  // trace track id per fiber index
  std::vector<std::unique_ptr<Fiber>> fibers_;
  const std::vector<std::function<void(int)>>* bodies_ = nullptr;
  void* main_sp_ = nullptr;  // dispatch loop's stack pointer while a fiber runs
  void* main_fake_stack_ = nullptr;
  // TSan handle of the dispatch loop's host thread, captured at Run() entry.
  void* main_tsan_fiber_ = nullptr;
  // Host-stack bounds of the dispatch loop, captured at first fiber entry.
  const void* main_stack_bottom_ = nullptr;
  std::size_t main_stack_size_ = 0;
  int current_ = -1;
  int done_count_ = 0;
  bool active_ = false;
};

}  // namespace graysim

#endif  // SRC_OS_SCHEDULER_H_
