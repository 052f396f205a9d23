// Gray-glass metrics: one registry for every counter, gauge, and histogram
// the stack exposes.
//
// Before this layer, diagnostics were ad-hoc: OsStats printed by hand here,
// a ProbeReport printed there, ChaosStats somewhere else. The registry
// replaces the *printing*, not the structs — components keep their cheap
// plain-uint64 counters (the determinism tests compare those structs
// bit-for-bit), and bind them into a registry by name at dump time. Benches
// collect the registry into the results/BENCH_*.json writer, so every run
// ships its kernel-side story next to its timings.
//
// Histograms are log2-bucketed with fixed storage: Record() is a couple of
// arithmetic ops and never allocates, so hot paths (disk service times,
// probe latencies) can feed one unconditionally.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace obs {

// Log-bucketed histogram of non-negative 64-bit samples. Bucket 0 holds the
// value 0; bucket i (i >= 1) holds [2^(i-1), 2^i). Fixed storage, so a
// Histogram can live by value inside hot-path objects.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void Record(std::uint64_t value) {
    ++buckets_[BucketOf(value)];
    ++count_;
    sum_ += value;
    min_ = value < min_ ? value : min_;
    max_ = value > max_ ? value : max_;
  }

  [[nodiscard]] static int BucketOf(std::uint64_t value) {
    return value == 0 ? 0 : 64 - std::countl_zero(value);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t bucket(int i) const { return buckets_[i]; }

  // Quantile estimate (q in [0, 1]): finds the bucket holding the q-th
  // sample and interpolates linearly inside it. Log buckets bound the
  // relative error at 2x — plenty for "did p99 move an order of magnitude".
  [[nodiscard]] double Quantile(double q) const;

  void Reset() { *this = Histogram{}; }

  void Merge(const Histogram& other);

  // Checkpoint form (src/sim/archive.h): buckets, count, sum, min(), max.
  // An empty histogram writes min() = 0 and re-derives the all-ones
  // sentinel on load, so a later Record() still tracks the true minimum.
  template <typename Ar>
  void Transfer(Ar& ar) {
    std::uint64_t min = this->min();
    ar(buckets_, count_, sum_, min, max_);
    if constexpr (Ar::kReading) {
      min_ = count_ == 0 ? ~std::uint64_t{0} : min;
    }
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

class MetricsRegistry;

// A self-contained, mergeable copy of a registry's state at one instant:
// scalar values by value and histograms with their full bucket arrays (not
// just pre-computed percentiles, which cannot be combined). This is the
// fleet roll-up unit — each machine snapshots its registry when it
// finishes, the owning shard merges machine snapshots, and the driver
// merges shard snapshots, so fleet-wide p50/p99 come from genuinely merged
// buckets rather than averaged per-machine quantiles.
class MetricsSnapshot {
 public:
  struct Scalar {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct NamedHistogram {
    std::string name;
    std::string unit;
    Histogram histogram;
  };

  // Combines `other` into this snapshot, matching entries by name: scalar
  // values add (counters and gauges both roll up to fleet totals) and
  // histograms merge bucket-wise. Names present only in `other` are
  // appended, so merging heterogeneous machines (different disk counts,
  // chaos on/off) keeps every series.
  void Merge(const MetricsSnapshot& other);

  // Flattens to named samples, histograms expanded exactly like
  // MetricsRegistry::Collect (<name>.count/.mean/.p50/.p90/.p99/.max).
  [[nodiscard]] std::vector<Scalar> Samples() const;

  [[nodiscard]] const Histogram* FindHistogram(std::string_view name) const;
  [[nodiscard]] double ScalarValue(std::string_view name, double fallback = 0.0) const;

  [[nodiscard]] const std::vector<Scalar>& scalars() const { return scalars_; }
  [[nodiscard]] const std::vector<NamedHistogram>& histograms() const { return histograms_; }
  [[nodiscard]] bool empty() const { return scalars_.empty() && histograms_.empty(); }

 private:
  friend class MetricsRegistry;

  std::vector<Scalar> scalars_;
  std::vector<NamedHistogram> histograms_;
};

// A named view over metrics owned elsewhere. Sources are read lazily at
// Collect() time, so one registry bound once stays current run after run.
// Registration allocates (names, closures); binding happens at setup or
// dump time, never on a hot path.
class MetricsRegistry {
 public:
  struct Sample {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  // Pull-gauge: read through an arbitrary closure.
  void AddGauge(std::string name, std::string unit, std::function<double()> read);
  // Monotonic counter read straight from the owner's field. The pointee
  // must outlive the registry's Collect() calls.
  void AddCounter(std::string name, const std::uint64_t* source, std::string unit = "");
  // Histogram: expands to <name>.count/.mean/.p50/.p90/.p99/.max samples.
  void AddHistogram(std::string name, std::string unit, const Histogram* source);

  [[nodiscard]] std::vector<Sample> Collect() const;

  // Reads every source once into an owned, mergeable snapshot (see
  // MetricsSnapshot). Safe to take on the machine's own thread and ship
  // across threads by value.
  [[nodiscard]] MetricsSnapshot Snapshot() const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    std::function<double()> read;     // null for histograms
    const Histogram* histogram = nullptr;
  };
  std::vector<Entry> entries_;
};

}  // namespace obs

#endif  // SRC_OBS_METRICS_H_
