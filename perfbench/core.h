// perfbench core: digests, the benchmark's own span recorder, and the three
// workload shapes that main.cc times.
//
// Everything here sits OUTSIDE the simulator: it calls only the layers'
// public functions and times those calls from the benchmark's side. The
// span recorder never touches a simulated machine, so a traced pass must
// reproduce the untraced pass's digests and exact counts bit for bit; the
// traced run checks that every time.
#ifndef PERFBENCH_CORE_H_
#define PERFBENCH_CORE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// FNV-1a 64, byte-wise over little-endian words: the same mixing the load
// service uses for its fleet latency digest.
class Fnv {
 public:
  void Mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (value >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void MixDouble(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] inline double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory host-time spans around the benchmark's calls into each layer.
// A span is named "<layer>.<call>"; `n` is how many calls it covers, so a
// span around a batch of 4096 touches yields a per-touch time. Spans nest
// by the open-span stack (single host thread; a span opened inside a
// simulated process must close before that process yields).
class Spans {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t n = 1;
  };

  class Scope {
   public:
    Scope(Spans* owner, int index) : owner_(owner), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (owner_ != nullptr) {
        owner_->Close(index_);
      }
    }

   private:
    Spans* owner_;
    int index_;
  };

  Spans() : origin_(std::chrono::steady_clock::now()) {}

  // Disabled recorders hand out inert scopes and record nothing.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] Scope Open(const char* name, std::uint64_t n = 1) {
    if (!enabled_) {
      return Scope(nullptr, -1);
    }
    spans_.push_back(Span{name, 0, 0, open_, n});
    open_ = static_cast<int>(spans_.size()) - 1;
    spans_.back().start_ns = Now();
    return Scope(this, open_);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Per-call durations (span duration / n) of every span named `name`.
  [[nodiscard]] std::vector<double> PerCallNs(std::string_view name) const;
  // Self time (duration minus the time its child spans cover), summed per
  // layer, in the order layers first appear.
  [[nodiscard]] std::vector<std::pair<std::string, double>> LayerSelfNs() const;
  // Chrome trace_event JSON ("X" events, one track), loadable in Perfetto.
  [[nodiscard]] bool WriteChromeTrace(const std::string& path,
                                      const std::string& process_name) const;

 private:
  [[nodiscard]] std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  void Close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = Now();
    open_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  int open_ = -1;
  std::vector<Span> spans_;
};

// Simulated-work counters, exact and deterministic per (shape, size, seed).
struct ExactCounts {
  std::uint64_t events = 0;  // kernel events scheduled
  std::uint64_t syscalls = 0;
  std::uint64_t disk_requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t swap_ins = 0;
  std::uint64_t swap_outs = 0;
  std::uint64_t evictions = 0;    // MemStats (mac_pressure, checkpoint)
  std::uint64_t requests = 0;     // load-service requests (service)
  std::uint64_t late_starts = 0;  // load-service late starts (service)

  friend bool operator==(const ExactCounts&, const ExactCounts&) = default;
};

// Exact per-layer facts a shape measures besides host time (heap counts,
// image sizes). Deterministic, so traced and untraced passes must agree.
using Facts = std::vector<std::pair<std::string, double>>;

// One execution of a shape: its set-up, its fixed simulated work, checks.
struct ShapeRun {
  double setup_s = 0.0;  // host seconds building the starting state
  double run_s = 0.0;    // host seconds of the fixed simulated work
  std::uint64_t digest = 0;  // virtual-time output digest
  std::uint64_t ops = 0;     // operations attempted
  std::uint64_t failed = 0;  // operations whose internal check failed
  ExactCounts counts;
  Facts facts;
};

[[nodiscard]] inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0);
}

enum class Size { kFull, kTiny };

// service: the load service's steady10k fleet, one host thread.
[[nodiscard]] ShapeRun RunServiceShape(Size size, std::uint64_t seed, Spans& spans);
// mac_pressure: on each of several memory-tight machines, four competing
// static-pass fastsorts past the paging cliff, then four MAC-guided ones.
[[nodiscard]] ShapeRun RunMacShape(Size size, std::uint64_t seed, Spans& spans);
// How long the checkpoint shape keeps a round's image and its loaded copy.
enum class ImageLifetime { kKeepLatest, kFreeEachRound };
// checkpoint: snapshot -> save -> load -> fork -> continue rounds on a
// warmed service-shaped machine; each fork must match the original.
[[nodiscard]] ShapeRun RunCheckpointShape(Size size, std::uint64_t seed, Spans& spans,
                                          const std::string& image_path,
                                          ImageLifetime lifetime);
// Per-layer probes timed only in traced runs: machine build/teardown,
// fiber spawn, unlink, one request of each kind, Mac::GbAlloc, VmTouch.
// Returns exact heap counts per Machine build.
[[nodiscard]] Facts RunLayerProbes(Size size, std::uint64_t seed, Spans& spans);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_H_
