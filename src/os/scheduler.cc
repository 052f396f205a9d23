#include "src/os/scheduler.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>

// Saves the callee-saved registers and FP control words on the current
// stack, stores its pointer in *save_sp, and resumes the frame at load_sp.
extern "C" void graysim_fiber_switch(void** save_sp, void* load_sp);

// ASan must be told about every stack switch or it reports false positives
// (and its fake-stack GC frees frames that are still live on other fibers).
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRAYSIM_ASAN_FIBERS 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define GRAYSIM_ASAN_FIBERS 1
#endif

#if defined(GRAYSIM_ASAN_FIBERS)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom, size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr, size_t size);
}
#endif

// TSan likewise needs explicit fiber bookkeeping: a stack switch moves the
// stack pointer out of the range it associates with the host thread, which
// it otherwise reports as a corrupted stack. Each fiber gets a TSan fiber
// object; switches are announced right before graysim_fiber_switch.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GRAYSIM_TSAN_FIBERS 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define GRAYSIM_TSAN_FIBERS 1
#endif

#if defined(GRAYSIM_TSAN_FIBERS)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace graysim {

namespace {

// 512 KB per fiber: simulated process bodies are shallow (no recursion into
// user data), but event closures — daemon reclaim, cache fills — run on
// whichever fiber stack is current, so leave generous headroom.
constexpr std::size_t kFiberStackBytes = 512 * 1024;

// PROT_NONE region mapped directly below each stack. An overflow walks down
// into it and takes SIGSEGV at the faulting frame instead of silently
// overwriting whatever the allocator placed below. 64 KB (a whole number of
// pages on every Linux page size) also catches a single frame that jumps
// past one guard page; it costs address space only.
constexpr std::size_t kGuardBytes = 64 * 1024;

// Fiber stacks of one host thread. The pool belongs to the thread, not to a
// Scheduler, so a fleet thread that builds and tears down hundreds of
// machines maps each stack once and reuses it warm: no per-machine
// allocation, no zero-fill, and its pages are faulted in only as deep as a
// fiber ever reaches. Per thread rather than process-wide because a
// scheduler runs all its fibers on one thread, so acquire/release never
// contend, and a stack never migrates between threads (nothing for TSan
// to order). The stacks are unmapped when the thread exits.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  ~StackPool() {
    for (char* stack : free_) {
      munmap(stack - kGuardBytes, kGuardBytes + kFiberStackBytes);
    }
  }

  // Returns the lowest usable byte of a kFiberStackBytes stack.
  char* Acquire() {
    char* stack = nullptr;
    if (!free_.empty()) {
      stack = free_.back();
      free_.pop_back();
    } else {
      void* base = mmap(nullptr, kGuardBytes + kFiberStackBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
      if (base == MAP_FAILED || mprotect(base, kGuardBytes, PROT_NONE) != 0) {
        std::perror("graysim: fiber stack mmap");
        std::abort();
      }
      stack = static_cast<char*>(base) + kGuardBytes;
    }
#if defined(GRAYSIM_ASAN_FIBERS)
    // Stale poison, which SeedStack's writes to the top frame would trip: a
    // reused stack's last frames never return (the fiber switches away for
    // good), so their redzones stay poisoned; and a fresh mapping inherits
    // the shadow of whatever stack was mapped at its address before (an
    // exited thread's pool, say).
    __asan_unpoison_memory_region(stack, kFiberStackBytes);
#endif
    return stack;
  }

  void Release(char* stack) { free_.push_back(stack); }

 private:
  std::vector<char*> free_;
};

thread_local StackPool t_stack_pool;

// The trampoline a fresh stack returns into takes no arguments, so the
// scheduler whose Run() is executing parks itself here. thread_local, not
// global: every machine runs its fibers wholly on one host thread, so N
// machines on N threads each get their own slot and never observe a
// neighbor's scheduler — the one cross-machine global the fleet refactor
// removed. Nested Run() calls remain forbidden per thread.
thread_local Scheduler* t_running = nullptr;

// Lays out on a fresh stack the frame graysim_fiber_switch pops (see the
// .S file), so the first switch into it returns into `entry`. The caller's
// MXCSR and x87 control word seed the fiber's, as a call would pass them
// on. Above the entry address sits a zero return address: `entry` starts
// with the stack 16-byte aligned as after a call, and an unwinder or
// debugger walking out of it stops there. Returns the saved stack pointer.
void* SeedStack(char* stack, void (*entry)()) {
  auto* top = reinterpret_cast<std::uint64_t*>(stack + kFiberStackBytes);
  std::uint64_t* sp = top - 9;
  std::uint16_t x87_cw = 0;
  __asm__("fnstcw %0" : "=m"(x87_cw));
  sp[0] = __builtin_ia32_stmxcsr() | std::uint64_t{x87_cw} << 32;
  std::fill(sp + 1, sp + 7, 0);  // r15, r14, r13, r12, rbx, rbp
  sp[7] = reinterpret_cast<std::uint64_t>(entry);
  sp[8] = 0;
  return sp;
}

}  // namespace

void Scheduler::Trampoline() { t_running->FiberMain(); }

void Scheduler::FiberMain() {
  const int me = current_;
#if defined(GRAYSIM_ASAN_FIBERS)
  // First entry to this fiber: complete the switch and capture the bounds
  // of the stack we came from (the dispatch loop's host stack).
  __sanitizer_finish_switch_fiber(nullptr, &main_stack_bottom_, &main_stack_size_);
#endif
  (*bodies_)[me](me);
  fibers_[me]->state = State::kDone;
  ++done_count_;
  SwitchToMain(/*dying=*/true);
  assert(false && "resumed a finished fiber");
  std::abort();
}

void Scheduler::SwitchToFiber(int i) {
  Fiber& f = *fibers_[i];
  assert(f.state == State::kReady);
  current_ = i;
  f.slice_used = 0;
#if defined(GRAYSIM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&main_fake_stack_, f.stack, kFiberStackBytes);
#endif
#if defined(GRAYSIM_TSAN_FIBERS)
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
  const bool traced = trace_ != nullptr && static_cast<std::size_t>(i) < fiber_tracks_.size();
  if (traced) {
    trace_->Begin(fiber_tracks_[i], "run", clock_->now());
  }
  graysim_fiber_switch(&main_sp_, f.sp);
#if defined(GRAYSIM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(main_fake_stack_, nullptr, nullptr);
#endif
  if (traced) {
    trace_->End(fiber_tracks_[i], "run", clock_->now());
  }
  current_ = -1;
}

void Scheduler::SwitchToMain(bool dying) {
  Fiber& f = *fibers_[current_];
#if defined(GRAYSIM_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(dying ? nullptr : &f.fake_stack, main_stack_bottom_,
                                 main_stack_size_);
#else
  (void)dying;
#endif
#if defined(GRAYSIM_TSAN_FIBERS)
  __tsan_switch_to_fiber(main_tsan_fiber_, 0);
#endif
  graysim_fiber_switch(&f.sp, main_sp_);
  // Resumed (never reached when dying).
#if defined(GRAYSIM_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
#endif
}

void Scheduler::Run(const std::vector<std::function<void(int)>>& bodies) {
  const int n = static_cast<int>(bodies.size());
  if (n == 0) {
    return;  // nothing to schedule
  }
  assert(!active_ && t_running == nullptr && "nested Scheduler::Run on this thread");
  bodies_ = &bodies;
  fibers_.clear();
  fibers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto f = std::make_unique<Fiber>();
    f->stack = t_stack_pool.Acquire();
    f->sp = SeedStack(f->stack, &Scheduler::Trampoline);
#if defined(GRAYSIM_TSAN_FIBERS)
    f->tsan_fiber = __tsan_create_fiber(0);
#endif
    fibers_.push_back(std::move(f));
  }
#if defined(GRAYSIM_TSAN_FIBERS)
  main_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  if (trace_ != nullptr) {
    // One "thread" row per fiber. RegisterTrack is idempotent by name, so
    // repeated Run() batches reuse the same rows.
    fiber_tracks_.resize(n);
    for (int i = 0; i < n; ++i) {
      fiber_tracks_[i] = trace_->RegisterTrack("fiber/" + std::to_string(i));
    }
  }
  done_count_ = 0;
  active_ = true;
  t_running = this;

  int last = n - 1;  // round-robin starts at proc 0
  while (done_count_ < n) {
    const int next = PickNext(last);
    if (next >= 0) {
      SwitchToFiber(next);
      last = next;
      continue;
    }
    // Nobody runnable: every live fiber sleeps on an event (its own wake,
    // or an I/O completion it waits behind). Jump to the next event.
    const Nanos when = events_->next_time();
    if (when == EventQueue::kNever) {
      std::fprintf(stderr, "graysim: scheduler deadlock — no runnable process, no event\n");
      std::abort();
    }
    clock_->AdvanceTo(std::max(clock_->now(), when));
    events_->RunDue(clock_->now());
  }

  t_running = nullptr;
  active_ = false;
  bodies_ = nullptr;
  for (auto& f : fibers_) {
#if defined(GRAYSIM_TSAN_FIBERS)
    __tsan_destroy_fiber(f->tsan_fiber);
#endif
    t_stack_pool.Release(f->stack);
  }
  fibers_.clear();
}

int Scheduler::PickNext(int from) const {
  const int n = static_cast<int>(fibers_.size());
  for (int k = 1; k <= n; ++k) {
    const int j = (from + k) % n;
    if (fibers_[j]->state == State::kReady) {
      return j;
    }
  }
  return -1;
}

void Scheduler::Charge(int proc, Nanos cost) {
  assert(proc == current_);
  clock_->Advance(cost);
  Fiber& f = *fibers_[proc];
  f.slice_used += cost;
  // Fast path: one heap-front comparison, no locks, no syscalls.
  if (events_->next_time() <= clock_->now()) {
    events_->RunDue(clock_->now());
  }
  if (f.slice_used >= slice_) {
    SwitchToMain(/*dying=*/false);  // stays kReady; dispatched again in turn
  }
}

void Scheduler::SleepUntil(int proc, Nanos deadline) {
  assert(proc == current_);
  if (deadline <= clock_->now()) {
    events_->RunDue(clock_->now());
    return;
  }
  Fiber& f = *fibers_[proc];
  f.state = State::kSleeping;
  // The closure re-checks the fiber before waking it: after a crash-stop,
  // WakeAll readies every sleeper and the unwound fibers are gone, but this
  // wake event may still be pending (Recover discards the queue, yet the
  // crash event itself dispatches from the same due-batch as its
  // neighbors). A stale wake must not index a cleared fiber table or
  // re-ready a fiber that already progressed.
  events_->ScheduleAt(deadline, EventQueue::Band::kWake, [this, proc] {
    if (static_cast<std::size_t>(proc) < fibers_.size() &&
        fibers_[proc]->state == State::kSleeping) {
      fibers_[proc]->state = State::kReady;
    }
  });
  SwitchToMain(/*dying=*/false);
}

void Scheduler::WakeAll() {
  for (auto& f : fibers_) {
    if (f->state == State::kSleeping) {
      f->state = State::kReady;
    }
  }
}

void Scheduler::Sleep(int proc, Nanos duration) {
  SleepUntil(proc, clock_->now() + duration);
}

void Scheduler::Yield([[maybe_unused]] int proc) {
  assert(proc == current_);
  events_->RunDue(clock_->now());
  SwitchToMain(/*dying=*/false);
}

}  // namespace graysim
