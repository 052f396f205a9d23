// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload service|mac_pressure|checkpoint --seed N --seconds S
//             --trace 0|1 [--size full|tiny] [--out DIR]
//
// Untraced (--trace 0): repeats the workload's shape — set-up, then the
// fixed simulated work — each time in a fresh child process, as often as
// whole repetitions fit in S host seconds (at least once), and reports the
// median set-up and run seconds and the largest peak RSS. Every
// repetition must reproduce the same virtual-time digest, and for a pinned
// seed the pinned digest; a repetition that does not counts all its
// operations as failed.
//
// Traced (--trace 1): every per-layer metric, whatever the workload. It
// first runs the checkpoint shape with images freed every round, in fresh
// child processes. Then each round runs all three shapes twice, untraced
// then with spans around the benchmark's calls into the layers, checks
// that both passes give the same digests, exact counts and heap counts
// (tracing is passive), and then runs the per-layer probes. Rounds repeat
// while another whole round fits in S seconds (at least one round). Spans
// are written to DIR as Chrome trace JSON (open in Perfetto).
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/core.h"

namespace {

using perfbench::ExactCounts;
using perfbench::ImageLifetime;
using perfbench::ShapeRun;
using perfbench::Size;
using perfbench::Spans;

constexpr const char* kShapes[] = {"service", "mac_pressure", "checkpoint"};
// Fresh-process runs of the checkpoint shape with images freed every round.
constexpr int kFreeEachRoundRuns = 3;

// Virtual-time digests of the full-size shapes, pinned for the default
// seed (1) and one held-out seed (1009). A change that moves simulated
// behaviour changes these and fails the benchmark until it is re-pinned
// on purpose.
struct Pin {
  const char* shape;
  std::uint64_t seed;
  std::uint64_t digest;
};
constexpr Pin kPins[] = {
    {"service", 1, 0x41d51da7a92511eb},      {"service", 1009, 0x7da7bf494bf6996c},
    {"mac_pressure", 1, 0x67cb10653875a842}, {"mac_pressure", 1009, 0x4e16e305826e04dc},
    {"checkpoint", 1, 0x44160fd06aa506da},   {"checkpoint", 1009, 0xc82d95673f9100f2},
};

std::optional<std::uint64_t> PinnedDigest(const std::string& shape, Size size,
                                          std::uint64_t seed) {
  if (size != Size::kFull) {
    return std::nullopt;
  }
  for (const Pin& p : kPins) {
    if (shape == p.shape && seed == p.seed) {
      return p.digest;
    }
  }
  return std::nullopt;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        return false;
      }
      args->size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) {
    return false;
  }
  return std::find(std::begin(kShapes), std::end(kShapes), args->workload) !=
         std::end(kShapes);
}

ShapeRun RunShape(const std::string& shape, const Args& args, Spans& spans,
                  ImageLifetime lifetime = ImageLifetime::kKeepLatest) {
  if (shape == "service") {
    return perfbench::RunServiceShape(args.size, args.seed, spans);
  }
  if (shape == "mac_pressure") {
    return perfbench::RunMacShape(args.size, args.seed, spans);
  }
  return perfbench::RunCheckpointShape(
      args.size, args.seed, spans,
      args.out + "/checkpoint_" + std::to_string(::getpid()) + ".gsim", lifetime);
}

using perfbench::Median;

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// Checks each execution of one shape against the pinned digest (or, for an
// unpinned seed, the first execution's) and against the first execution's
// exact counts and heap counts. Returns the operations to count as failed.
class DigestCheck {
 public:
  DigestCheck(std::string shape, std::optional<std::uint64_t> pinned)
      : shape_(std::move(shape)), pinned_(pinned) {}

  std::uint64_t Check(const ShapeRun& run, const char* pass) {
    if (!first_.has_value()) {
      first_ = run;
    }
    const std::uint64_t expected = pinned_.value_or(first_->digest);
    const bool counts_ok = run.counts == first_->counts;
    const bool facts_ok = run.facts == first_->facts;
    if (run.digest == expected && counts_ok && facts_ok) {
      return run.failed;
    }
    std::printf("MISMATCH %s (%s pass): digest 0x%016" PRIx64 ", expected 0x%016" PRIx64
                "%s%s%s\n",
                shape_.c_str(), pass, run.digest, expected, pinned() ? " (pinned)" : "",
                counts_ok ? "" : "; exact counts differ",
                facts_ok ? "" : "; heap or image counts differ");
    return run.ops;
  }
  [[nodiscard]] bool pinned() const { return pinned_.has_value(); }

 private:
  std::string shape_;
  std::optional<std::uint64_t> pinned_;
  std::optional<ShapeRun> first_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(const std::vector<Metric>& metrics, std::uint64_t attempted,
                 std::uint64_t failed) {
  std::printf("\n%-34s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6f  %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("%-34s %18" PRIu64 "  count\n", "ops", attempted);
  std::printf("%-34s %18" PRIu64 "  count\n", "ops_failed", failed);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// Runs one repetition of `shape` in a fresh child process, untraced, so
// that repetitions do not inherit each other's heap state (within one
// long-lived process the checkpoint shape drifts between two speeds 25%
// apart). Returns false when the child did not report a result.
bool RunInChild(const std::string& shape, const Args& args, ImageLifetime lifetime,
                ShapeRun* out) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (::pipe(fds) != 0) {
    return false;
  }
  const pid_t child = ::fork();
  if (child < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (child == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive an interrupted run
    ::close(fds[0]);
    Spans off;
    const ShapeRun r = RunShape(shape, args, off, lifetime);
    std::FILE* f = ::fdopen(fds[1], "w");
    if (f == nullptr) {
      ::_exit(1);
    }
    const ExactCounts& c = r.counts;
    std::fprintf(f, "%.17g %.17g %" PRIu64 " %" PRIu64 " %" PRIu64, r.setup_s, r.run_s,
                 r.digest, r.ops, r.failed);
    for (const std::uint64_t v : {c.events, c.syscalls, c.disk_requests, c.cache_hits,
                                  c.cache_misses, c.swap_ins, c.swap_outs, c.evictions,
                                  c.requests, c.late_starts}) {
      std::fprintf(f, " %" PRIu64, v);
    }
    std::fprintf(f, " %zu", r.facts.size());
    for (const auto& [name, value] : r.facts) {
      std::fprintf(f, " %s %.17g", name.c_str(), value);
    }
    std::fprintf(f, "\n");
    ::_exit(std::fclose(f) == 0 ? 0 : 1);
  }
  ::close(fds[1]);
  std::FILE* f = ::fdopen(fds[0], "r");
  ExactCounts& c = out->counts;
  std::size_t facts = 0;
  bool ok = f != nullptr && std::fscanf(f,
                        "%lf %lf %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                        " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                        " %" SCNu64 " %" SCNu64 " %" SCNu64 " %zu",
                        &out->setup_s, &out->run_s, &out->digest, &out->ops, &out->failed,
                        &c.events, &c.syscalls, &c.disk_requests, &c.cache_hits,
                        &c.cache_misses, &c.swap_ins, &c.swap_outs, &c.evictions,
                        &c.requests, &c.late_starts, &facts) == 16;
  for (std::size_t i = 0; ok && i < facts; ++i) {
    char name[64];
    double value = 0.0;
    ok = std::fscanf(f, " %63s %lf", name, &value) == 2;
    out->facts.emplace_back(name, value);
  }
  if (f != nullptr) {
    std::fclose(f);
  } else {
    ::close(fds[0]);
  }
  int status = 0;
  ok = ::waitpid(child, &status, 0) == child && ok && WIFEXITED(status) &&
       WEXITSTATUS(status) == 0;
  return ok;
}

// Peak RSS of this process and of its largest child.
double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;  // KiB
}

int RunUntraced(const Args& args) {
  DigestCheck check(args.workload, PinnedDigest(args.workload, args.size, args.seed));
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  const double start = perfbench::HostSeconds();
  double longest = 0.0;  // the longest repetition so far, fork included
  do {
    const double rep_start = perfbench::HostSeconds();
    ShapeRun r;
    if (!RunInChild(args.workload, args, ImageLifetime::kKeepLatest, &r)) {
      std::printf("repetition %zu: no result from the child process\n", run_s.size() + 1);
      ++attempted;
      ++failed;
      break;
    }
    setup_s.push_back(r.setup_s);
    run_s.push_back(r.run_s);
    attempted += r.ops;
    failed += check.Check(r, "untraced");
    digest = r.digest;
    std::printf("repetition %zu: setup_s %.4f run_s %.4f ops %" PRIu64 "\n", run_s.size(),
                r.setup_s, r.run_s, r.ops);
    longest = std::max(longest, perfbench::HostSeconds() - rep_start);
  } while (perfbench::HostSeconds() - start + longest <= args.seconds);

  std::printf("digest.%s = 0x%016" PRIx64 " (%s)\n", args.workload.c_str(), digest,
              check.pinned() ? "pinned" : "not pinned for this seed");
  PrintResult({{"setup_s", Median(setup_s), "s"},
               {"run_s", Median(run_s), "s"},
               {"peak_rss_mb", PeakRssMb(), "MB"}},
              attempted, failed);
  return failed == 0 ? 0 : 1;
}

// Per-shape accumulators of a traced run.
struct ShapeTally {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  ExactCounts counts;
  std::uint64_t digest = 0;
  perfbench::Facts facts;
};

int RunTraced(const Args& args) {
  Spans spans;
  std::map<std::string, ShapeTally> tally;
  std::map<std::string, DigestCheck> checks;
  for (const char* shape : kShapes) {
    checks.emplace(shape, DigestCheck(shape, PinnedDigest(shape, args.size, args.seed)));
  }
  perfbench::Facts probe_facts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const double start = perfbench::HostSeconds();

  // Before this process's heap grows: the checkpoint shape as a caller that
  // frees its images every round runs it (see RunCheckpointShape).
  std::vector<double> free_each_round_s;
  for (int i = 0; i < kFreeEachRoundRuns; ++i) {
    ShapeRun r;
    if (!RunInChild("checkpoint", args, ImageLifetime::kFreeEachRound, &r)) {
      std::printf("free-each-round checkpoint: no result from the child process\n");
      ++attempted;
      ++failed;
      break;
    }
    free_each_round_s.push_back(r.run_s);
    attempted += r.ops;
    failed += checks.at("checkpoint").Check(r, "free-each-round");
    std::printf("checkpoint, images freed every round: run_s %.4f\n", r.run_s);
  }

  int rounds = 0;
  double longest = 0.0;  // the longest round so far
  do {
    const double round_start = perfbench::HostSeconds();
    ++rounds;
    for (const char* shape : kShapes) {
      spans.set_enabled(false);
      const ShapeRun untraced = RunShape(shape, args, spans);
      spans.set_enabled(true);
      const ShapeRun traced = RunShape(shape, args, spans);
      DigestCheck& check = checks.at(shape);
      failed += check.Check(untraced, "untraced") + check.Check(traced, "traced");
      attempted += untraced.ops + traced.ops;
      ShapeTally& t = tally[shape];
      t.untraced_s.push_back(untraced.run_s);
      t.traced_s.push_back(traced.run_s);
      t.counts = traced.counts;
      t.digest = traced.digest;
      t.facts = traced.facts;
      std::printf("round %d %-12s untraced %.4fs traced %.4fs digest 0x%016" PRIx64 "\n",
                  rounds, shape, untraced.run_s, traced.run_s, traced.digest);
      std::fflush(stdout);
    }
    spans.set_enabled(true);
    probe_facts = perfbench::RunLayerProbes(args.size, args.seed, spans);
    spans.set_enabled(false);
    longest = std::max(longest, perfbench::HostSeconds() - round_start);
  } while (perfbench::HostSeconds() - start + longest <= args.seconds);

  for (const char* shape : kShapes) {
    std::printf("digest.%s = 0x%016" PRIx64 " (%s)\n", shape, tally[shape].digest,
                checks.at(shape).pinned() ? "pinned" : "not pinned for this seed");
  }

  auto median_of = [&spans](const char* span, double scale) {
    return Median(spans.PerCallNs(span)) / scale;
  };
  std::vector<Metric> metrics = {
      {"service.machine_p50_ms", median_of("service.RunLoadMachine", 1e6), "ms"},
      {"service.machine_p90_ms",
       Percentile(spans.PerCallNs("service.RunLoadMachine"), 0.9) / 1e6, "ms"},
      {"os.machine_build_ms", median_of("os.machine_build", 1e6), "ms"},
      {"os.machine_teardown_ms", median_of("os.machine_teardown", 1e6), "ms"},
      {"os.spawn_fiber_us", median_of("os.RunProcesses", 1e3), "us"},
      {"fs.unlink_us", median_of("fs.Unlink", 1e3), "us"},
      {"workloads.grep_ms", median_of("workloads.grep", 1e6), "ms"},
      {"workloads.fastsort_read_ms", median_of("workloads.fastsort_read", 1e6), "ms"},
      {"workloads.aging_epoch_ms", median_of("workloads.aging_epoch", 1e6), "ms"},
      {"workloads.filegen_ms", median_of("workloads.filegen", 1e6), "ms"},
      {"workloads.fastsort_static_ms", median_of("workloads.fastsort_static", 1e6), "ms"},
      {"workloads.fastsort_mac_ms", median_of("workloads.fastsort_mac", 1e6), "ms"},
      {"gray.mac_gballoc_ms", median_of("gray.Mac::GbAlloc", 1e6), "ms"},
      {"vm.touch_resident_ns", median_of("vm.VmTouch(resident)", 1.0), "ns"},
      {"vm.touch_paging_ns", median_of("vm.VmTouch(paging)", 1.0), "ns"},
      {"cache.flush_ms", median_of("cache.FlushFileCache", 1e6), "ms"},
      {"os.snapshot_ms", median_of("os.Snapshot", 1e6), "ms"},
      {"os.save_image_ms", median_of("os.SaveMachineImage", 1e6), "ms"},
      {"os.load_image_ms", median_of("os.LoadMachineImage", 1e6), "ms"},
      {"os.fork_ms", median_of("os.Fork", 1e6), "ms"},
      {"os.fork_run_ms", median_of("os.fork_run", 1e6), "ms"},
      {"checkpoint.free_each_round_run_s", Median(free_each_round_s), "s"},
  };
  const std::map<std::string, const char*> fact_units = {
      {"os.machine_build_allocs", "count"}, {"os.machine_build_mb", "MB"},
      {"os.fork_allocs", "count"},          {"os.fork_mb", "MB"},
      {"os.image_file_kb", "KB"},
      {"os.image_bytes_mb", "MB"}};
  for (const perfbench::Facts* facts : {&probe_facts, &tally["checkpoint"].facts}) {
    for (const auto& [name, value] : *facts) {
      metrics.push_back({name, value, fact_units.at(name)});
    }
  }
  for (const char* shape : kShapes) {
    const ShapeTally& t = tally[shape];
    const ExactCounts& c = t.counts;
    const std::string p = std::string(shape) + ".";
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    metrics.push_back({p + "sim.events", count(c.events), "count"});
    metrics.push_back({p + "os.syscalls", count(c.syscalls), "count"});
    metrics.push_back({p + "disk.requests", count(c.disk_requests), "count"});
    metrics.push_back({p + "cache.hit_ratio",
                       count(c.cache_hits) / std::max(1.0, count(c.cache_hits + c.cache_misses)),
                       "ratio"});
    // Counts a shape cannot move (no paging on service-shaped machines, no
    // load service outside `service`) are left to the digest.
    if (std::string(shape) == "service") {
      metrics.push_back({"service.requests", count(c.requests), "count"});
      metrics.push_back({"service.late_starts", count(c.late_starts), "count"});
    } else if (std::string(shape) == "mac_pressure") {
      metrics.push_back({p + "os.swap_ins", count(c.swap_ins), "count"});
      metrics.push_back({p + "os.swap_outs", count(c.swap_outs), "count"});
      metrics.push_back({p + "mem.evictions", count(c.evictions), "count"});
    }
    metrics.push_back({p + "sim.host_ns_per_event",
                       Median(t.untraced_s) * 1e9 / std::max(1.0, count(c.events)), "ns"});
    metrics.push_back(
        {p + "obs.trace_overhead", Median(t.traced_s) / Median(t.untraced_s) - 1.0, "ratio"});
  }

  // Self time per layer, per round: span time minus the child spans in it.
  std::printf("\n%-12s %14s\n", "layer", "self_s/round");
  for (const auto& [layer, ns] : spans.LayerSelfNs()) {
    const double per_round = ns / 1e9 / rounds;
    std::printf("%-12s %14.6f\n", layer.c_str(), per_round);
    metrics.push_back({"self." + layer + "_s", per_round, "s"});
  }

  const std::string trace_path = args.out + "/perfbench_trace_" + args.workload + "_seed" +
                                 std::to_string(args.seed) + ".json";
  if (spans.WriteChromeTrace(trace_path, "perfbench " + args.workload)) {
    std::printf("wrote %s (%zu spans)\n", trace_path.c_str(), spans.spans().size());
  } else {
    std::printf("could not write %s\n", trace_path.c_str());
    ++failed;
  }
  PrintResult(metrics, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload service|mac_pressure|checkpoint --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] [--out DIR]\n");
    return 2;
  }
  return args.trace ? RunTraced(args) : RunUntraced(args);
}
