// The three workload shapes and the per-layer probes (see core.h).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/alloc_hook.h"
#include "perfbench/core.h"
#include "src/gray/mac/mac.h"
#include "src/gray/sim_sys.h"
#include "src/os/machine.h"
#include "src/os/machine_image_io.h"
#include "src/service/load_service.h"
#include "src/sim/fault_plan.h"
#include "src/sim/rng.h"
#include "src/workloads/aging.h"
#include "src/workloads/fastsort.h"
#include "src/workloads/filegen.h"
#include "src/workloads/grep.h"

namespace perfbench {

namespace {

using graysim::Machine;
using graysim::MachineConfig;
using graysim::Nanos;
using graysim::Os;
using graysim::Pid;
using graysim::PlatformProfile;

constexpr std::uint64_t kKb = 1024;
constexpr std::uint64_t kMb = 1024 * kKb;
constexpr int kSorters = 4;
constexpr int kServiceWarmMachines = 4;

// Seed-derivation tags for the benchmark's own streams.
constexpr std::uint64_t kChaosStream = 0xBE7C4A05;
constexpr std::uint64_t kWarmStream = 0xBE7C0000;
constexpr std::uint64_t kRoundStream = 0xBE7D0000;

// ---------------------------------------------------------------- digests

void Fold(Fnv& h, const graysim::OsStats& s) {
  for (const std::uint64_t v :
       {s.syscalls, s.batch_syscalls, s.batched_ops, s.cache_hits, s.cache_misses,
        s.disk_reads, s.disk_writes, s.swap_ins, s.swap_outs, s.readahead_pages,
        s.writeback_pages, s.daemon_wakeups, s.queued_disk_requests, s.net_sends,
        s.net_recvs, s.fsyncs, s.syncfs_calls}) {
    h.Mix(v);
  }
}

void Fold(Fnv& h, const graysim::MemStats& s) {
  for (const std::uint64_t v :
       {s.evictions, s.file_evictions, s.anon_evictions, s.admissions_denied}) {
    h.Mix(v);
  }
}

void Fold(Fnv& h, const graysim::ChaosStats& s) {
  for (const std::uint64_t v :
       {s.injected_read_errors, s.injected_stat_errors, s.injected_write_errors,
        s.short_writes, s.disk_spikes, s.degraded_requests, s.reader_ticks,
        s.dirtier_ticks, s.antagonist_pages, s.pressure_shocks, s.stalled_allocs,
        s.injected_net_drops, s.delayed_net_messages}) {
    h.Mix(v);
  }
}

// End clock plus every kernel, memory and chaos counter of one machine.
void FoldMachine(Fnv& h, const Os& os) {
  h.Mix(os.Now());
  h.Mix(os.events_scheduled());
  Fold(h, os.stats());
  Fold(h, os.mem_stats());
  Fold(h, os.chaos_stats());
}

void Fold(Fnv& h, const graywork::FastsortReport& r) {
  for (const std::uint64_t v : {r.total, r.read, r.sort, r.write, r.probe_overhead,
                                r.wait_overhead, r.bytes_sorted}) {
    h.Mix(v);
  }
  h.Mix(static_cast<std::uint64_t>(r.passes));
  h.Mix(static_cast<std::uint64_t>(r.io_errors));
  h.MixDouble(r.avg_pass_mb);
}

ExactCounts CountsOf(const Os& os) {
  ExactCounts c;
  c.events = os.events_scheduled();
  c.syscalls = os.stats().syscalls;
  for (int d = 0; d < os.num_disks(); ++d) {
    c.disk_requests += os.disk_stats(d).requests;
  }
  c.cache_hits = os.stats().cache_hits;
  c.cache_misses = os.stats().cache_misses;
  c.swap_ins = os.stats().swap_ins;
  c.swap_outs = os.stats().swap_outs;
  c.evictions = os.mem_stats().evictions;
  return c;
}

// ---------------------------------------------------------------- service

grayservice::LoadScenario ServiceScenario(Size size, std::uint64_t seed) {
  // load_replay's built-in steady10k shape; tiny keeps the pipeline.
  grayservice::LoadScenario s;
  s.arrival = grayservice::ArrivalKind::kPoisson;
  s.chaos = 0.1;
  s.slow_ms = 100.0;
  s.timeout_ms = 500.0;
  s.seed = seed;
  if (size == Size::kTiny) {
    s.name = "perfbench_tiny";
    s.machines = 4;
    s.clients = 8;
    s.rate_hz = 4.0;
    s.duration_s = 0.5;
  } else {
    s.name = "steady10k";
    s.machines = 128;
    s.clients = 80;
    s.rate_hz = 1.0;
    s.duration_s = 1.5;
  }
  return s;
}

// Kernel counts from a (fleet-merged) metrics snapshot.
ExactCounts CountsOf(const obs::MetricsSnapshot& m, const grayservice::LoadCounts& load) {
  auto count = [&m](std::string_view name) {
    return static_cast<std::uint64_t>(m.ScalarValue(name));
  };
  ExactCounts c;
  c.events = count("os.events_scheduled");
  c.syscalls = count("os.syscalls");
  for (const obs::MetricsSnapshot::Scalar& s : m.scalars()) {
    const std::string_view name = s.name;
    if (name.starts_with("disk") && name.ends_with(".requests")) {
      c.disk_requests += static_cast<std::uint64_t>(s.value);
    }
  }
  c.cache_hits = count("os.cache_hits");
  c.cache_misses = count("os.cache_misses");
  c.swap_ins = count("os.swap_ins");
  c.swap_outs = count("os.swap_outs");
  c.requests = load.requests;
  c.late_starts = load.late_starts;
  return c;
}

// ------------------------------------------------- service-shaped machines

// The load service's per-machine host (64 MB, 16 MB reserved, two disks)
// and file population, rebuilt from public calls for the probes and the
// checkpoint shape.
MachineConfig ServiceConfig() {
  MachineConfig cfg;
  cfg.phys_mem_bytes = 64 * kMb;
  cfg.kernel_reserved_bytes = 16 * kMb;
  cfg.num_disks = 2;
  return cfg;
}

struct ServiceFiles {
  std::vector<std::string> grep_paths;
  int clients = 0;
};

ServiceFiles PopulateServiceMachine(Os& os, int clients) {
  const Pid pid = os.default_pid();
  ServiceFiles files;
  files.clients = clients;
  (void)graywork::MakeFile(os, pid, "/d0/sort_in", 256 * kKb);
  files.grep_paths = graywork::MakeFileSet(os, pid, "/d1/src", 4, 64 * kKb);
  for (int c = 0; c < clients; ++c) {
    (void)graywork::MakeFileSet(os, pid, "/d0/age" + std::to_string(c), 2, 16 * kKb);
  }
  os.FlushFileCache();
  return files;
}

enum class Request { kFastsort, kGrep, kAging, kFilegen };

// One bounded request, as the load service issues them. Returns true when
// a syscall inside it failed (chaos-injected EIO/ENOSPC).
bool RunRequest(Os& os, Pid pid, Request kind, const ServiceFiles& files,
                graywork::DirectoryAger& ager, const std::string& scratch) {
  switch (kind) {
    case Request::kFastsort: {
      graywork::FastsortOptions opt;
      opt.input = "/d0/sort_in";
      opt.record_bytes = 128;
      opt.write_runs = false;
      return graywork::Fastsort(&os, pid).Run(opt).io_errors > 0;
    }
    case Request::kGrep:
      return graywork::Grep(&os, pid).Run(files.grep_paths).io_errors > 0;
    case Request::kAging:
      return ager.RunEpoch(2) > 0;
    case Request::kFilegen:
      return !graywork::MakeFile(os, pid, scratch, 32 * kKb);
  }
  return false;
}

// `procs` concurrent clients, each issuing `requests` requests drawn from
// its own derived stream. Returns a digest of every client's virtual
// latency, its error count, and the machine's end state.
std::uint64_t RunClients(Machine& m, const ServiceFiles& files, int procs, int requests,
                         std::uint64_t stream) {
  Os& os = m.os();
  std::vector<Nanos> latency(static_cast<std::size_t>(procs), 0);
  std::vector<std::uint64_t> errors(static_cast<std::size_t>(procs), 0);
  std::vector<std::function<void(Pid)>> bodies;
  for (int c = 0; c < procs; ++c) {
    bodies.push_back([&, c](Pid pid) {
      const auto cc = static_cast<std::uint64_t>(c);
      graysim::Rng rng(m.DeriveSeed(stream + cc));
      const int slot = c % files.clients;
      graywork::DirectoryAger ager(&os, pid, "/d0/age" + std::to_string(slot), 16 * kKb,
                                   rng.Next());
      const std::string scratch = "/d0/scratch" + std::to_string(slot);
      const Nanos start = os.Now();
      for (int k = 0; k < requests; ++k) {
        const auto kind = static_cast<Request>(rng.Below(4));
        errors[cc] += RunRequest(os, pid, kind, files, ager, scratch) ? 1 : 0;
      }
      latency[cc] = os.Now() - start;
    });
  }
  m.RunProcesses(bodies);
  Fnv h;
  for (int c = 0; c < procs; ++c) {
    h.Mix(latency[static_cast<std::size_t>(c)]);
    h.Mix(errors[static_cast<std::size_t>(c)]);
  }
  FoldMachine(h, os);
  return h.value();
}

// -------------------------------------------------------------- mac_pressure

struct MacSize {
  std::uint64_t phys_mb;
  std::uint64_t reserved_mb;
  std::uint64_t input_mb;
  std::uint64_t static_pass_mb;  // 4 x pass overcommits usable memory
  std::uint64_t mac_min_mb;
  int machines;  // independent machines per repetition
  int rounds;    // static + MAC round pairs per machine
};

MacSize MacSizeFor(Size size) {
  return size == Size::kTiny ? MacSize{64, 16, 24, 16, 4, 1, 1}
                             : MacSize{224, 16, 120, 60, 16, 6, 1};
}

MachineConfig MacConfig(const MacSize& z) {
  MachineConfig cfg;  // five disks: four inputs plus the paging disk
  cfg.phys_mem_bytes = z.phys_mb * kMb;
  cfg.kernel_reserved_bytes = z.reserved_mb * kMb;
  return cfg;
}

// ---------------------------------------------------------------- checkpoint

struct CheckpointSize {
  int clients;        // per-client aging directories, as on a service machine
  int warm_requests;  // requests per client in the warm-up run
  int round_procs;    // clients in each round's continuation
  int rounds;
};

CheckpointSize CheckpointSizeFor(Size size) {
  return size == Size::kTiny ? CheckpointSize{8, 2, 4, 2} : CheckpointSize{80, 8, 8, 20};
}

}  // namespace

// ------------------------------------------------------------------ shapes

ShapeRun RunServiceShape(Size size, std::uint64_t seed, Spans& spans) {
  const grayservice::LoadScenario scenario = ServiceScenario(size, seed);
  ShapeRun run;

  // Set-up: the fleet has no starting state of its own (every machine is
  // built inside the run), so set-up replays its first machines; their
  // digests must equal the same machines' inside the fleet run.
  const double t0 = HostSeconds();
  std::vector<std::uint64_t> warm_digests;
  {
    auto span = spans.Open("setup.service");
    for (int id = 0; id < std::min(kServiceWarmMachines, scenario.machines); ++id) {
      warm_digests.push_back(
          grayservice::RunLoadMachine(scenario, static_cast<std::uint32_t>(id)).digest);
    }
  }
  const double t1 = HostSeconds();
  grayservice::FleetLoadReport report;
  {
    auto span = spans.Open("service.RunLoadFleet");
    report = grayservice::RunLoadFleet(scenario, /*threads=*/1);
  }
  const double t2 = HostSeconds();

  run.setup_s = t1 - t0;
  run.run_s = t2 - t1;
  run.digest = report.digest;
  run.ops = report.counts.requests;
  if (!std::equal(warm_digests.begin(), warm_digests.end(), report.machine_digests.begin())) {
    std::fprintf(stderr, "service: a set-up replay differs from the same machine's fleet run\n");
    run.failed = run.ops;
  }
  // Traced only, after the timed run: the same machines one by one, each
  // timed and checked against its digest inside the fleet.
  if (spans.enabled()) {
    auto span = spans.Open("bench.service_machines");
    for (int id = 0; id < scenario.machines; ++id) {
      auto machine_span = spans.Open("service.RunLoadMachine");
      if (grayservice::RunLoadMachine(scenario, static_cast<std::uint32_t>(id)).digest !=
          report.machine_digests[static_cast<std::size_t>(id)]) {
        std::fprintf(stderr, "service: machine %d differs from its fleet run\n", id);
        run.failed = run.ops;
      }
    }
  }
  run.counts = CountsOf(report.metrics, report.counts);
  return run;
}

ShapeRun RunMacShape(Size size, std::uint64_t seed, Spans& spans) {
  const MacSize z = MacSizeFor(size);
  const std::uint64_t input_bytes = z.input_mb * kMb / 100 * 100;
  ShapeRun run;
  Fnv digest;
  // Past the paging cliff the simulated work is chaotic: one machine's
  // kernel events differed by 50% between seeds. Machines with distinct ids
  // are independent draws, so a repetition sums several.
  for (int id = 0; id < z.machines; ++id) {
    // Set-up: the memory-tight machine and its four inputs, cache flushed.
    const double t0 = HostSeconds();
    std::unique_ptr<Machine> m;
    {
      auto span = spans.Open("setup.mac_pressure");
      m = std::make_unique<Machine>(PlatformProfile::Linux22(), MacConfig(z),
                                    static_cast<std::uint32_t>(id), seed);
      for (int i = 0; i < kSorters; ++i) {
        if (!graywork::MakeFile(m->os(), m->default_pid(),
                                "/d" + std::to_string(i) + "/input", z.input_mb * kMb)) {
          std::fprintf(stderr, "mac_pressure: input %d creation failed\n", i);
          ++run.failed;
        }
      }
      m->os().FlushFileCache();
    }
    const double t1 = HostSeconds();

    Os& os = m->os();
    {
      auto span = spans.Open("bench.mac_pressure");
      for (int round = 0; round < z.rounds; ++round) {
        for (const bool use_mac : {false, true}) {
          {
            auto flush_span = spans.Open("cache.FlushFileCache");
            os.FlushFileCache();
          }
          std::vector<graywork::FastsortReport> reports(kSorters);
          std::vector<std::function<void(Pid)>> bodies;
          for (int i = 0; i < kSorters; ++i) {
            bodies.push_back([&, i](Pid pid) {
              graywork::FastsortOptions opt;
              opt.input = "/d" + std::to_string(i) + "/input";
              opt.run_dir = "/d" + std::to_string(i) + "/runs";
              opt.record_bytes = 100;
              if (use_mac) {
                opt.use_mac = true;
                opt.mac_min = z.mac_min_mb * kMb;
                opt.mac_max = 0;
              } else {
                opt.pass_bytes = z.static_pass_mb * kMb;
              }
              reports[static_cast<std::size_t>(i)] = graywork::Fastsort(&os, pid).Run(opt);
            });
          }
          {
            auto sort_span = spans.Open(use_mac ? "workloads.fastsort_mac"
                                                : "workloads.fastsort_static");
            m->RunProcesses(bodies);
          }
          for (const graywork::FastsortReport& r : reports) {
            Fold(digest, r);
            ++run.ops;
            if (r.io_errors != 0 || r.bytes_sorted != input_bytes) {
              ++run.failed;
            }
          }
        }
      }
    }
    const double t2 = HostSeconds();

    FoldMachine(digest, os);
    run.setup_s += t1 - t0;
    run.run_s += t2 - t1;
    const ExactCounts c = CountsOf(os);
    run.counts.events += c.events;
    run.counts.syscalls += c.syscalls;
    run.counts.disk_requests += c.disk_requests;
    run.counts.cache_hits += c.cache_hits;
    run.counts.cache_misses += c.cache_misses;
    run.counts.swap_ins += c.swap_ins;
    run.counts.swap_outs += c.swap_outs;
    run.counts.evictions += c.evictions;
  }
  run.digest = digest.value();
  return run;
}

ShapeRun RunCheckpointShape(Size size, std::uint64_t seed, Spans& spans,
                            const std::string& image_path, ImageLifetime lifetime) {
  const CheckpointSize z = CheckpointSizeFor(size);
  ShapeRun run;

  // Set-up: a service-shaped machine with its files, chaos armed, warmed by
  // one round of client requests so the snapshots carry pending events.
  const double t0 = HostSeconds();
  std::unique_ptr<Machine> m;
  ServiceFiles files;
  {
    auto span = spans.Open("setup.checkpoint");
    m = std::make_unique<Machine>(PlatformProfile::Linux22(), ServiceConfig(), 0, seed);
    files = PopulateServiceMachine(m->os(), z.clients);
    m->os().ArmChaos(graysim::FaultPlan::Interference(0.1, m->DeriveSeed(kChaosStream)));
    (void)RunClients(*m, files, z.clients, z.warm_requests, kWarmStream);
  }
  const double t1 = HostSeconds();

  Fnv digest;
  std::vector<double> fork_allocs;
  std::vector<double> fork_bytes;
  std::uint64_t image_file_bytes = 0;
  std::uint64_t image_bytes = 0;
  // kKeepLatest: the newest snapshot and its loaded copy live until the
  // next round replaces them, as a checkpointing supervisor keeps its latest
  // image. kFreeEachRound frees both at the end of every round; that puts
  // some seeds on glibc's heap-trim path in every round (2.5-2.7 s instead
  // of about 2.0 s), so run_s would depend on the seed rather than on the
  // code. The traced run reports that lifetime as a per-layer metric.
  graysim::MachineImage image;
  graysim::MachineImage loaded;
  {
    auto span = spans.Open("bench.checkpoint");
    for (int round = 0; round < z.rounds; ++round) {
      auto round_span = spans.Open("bench.checkpoint_round");
      ++run.ops;
      const std::uint64_t stream = kRoundStream + static_cast<std::uint64_t>(round) * 64;
      {
        auto s = spans.Open("os.Snapshot");
        image = m->Snapshot();
      }
      image_bytes = image.os.ApproxBytes();
      std::string error;
      bool saved = false;
      {
        auto s = spans.Open("os.SaveMachineImage");
        saved = graysim::SaveMachineImage(image, image_path, &error);
      }
      bool ok = saved;
      if (saved) {
        auto s = spans.Open("os.LoadMachineImage");
        ok = graysim::LoadMachineImage(image_path, &loaded, &error);
      }
      if (!ok) {
        std::fprintf(stderr, "checkpoint: round %d: %s\n", round, error.c_str());
        ++run.failed;
        continue;
      }
      if (std::FILE* f = std::fopen(image_path.c_str(), "rb")) {
        std::fseek(f, 0, SEEK_END);
        image_file_bytes = static_cast<std::uint64_t>(std::ftell(f));
        std::fclose(f);
      }
      std::unique_ptr<Machine> fork;
      {
        auto s = spans.Open("os.Fork");
        const gbench::AllocCounts before = gbench::ThreadAllocSnapshot();
        fork = Machine::Fork(loaded);
        const gbench::AllocCounts after = gbench::ThreadAllocSnapshot();
        fork_allocs.push_back(static_cast<double>(after.allocs - before.allocs));
        fork_bytes.push_back(static_cast<double>(after.bytes - before.bytes));
      }
      std::uint64_t fork_result = 0;
      {
        auto s = spans.Open("os.fork_run");
        fork_result = RunClients(*fork, files, z.round_procs, 1, stream);
      }
      {
        auto s = spans.Open("os.fork_teardown");
        fork.reset();
      }
      std::uint64_t original_result = 0;
      {
        auto s = spans.Open("os.original_run");
        original_result = RunClients(*m, files, z.round_procs, 1, stream);
      }
      if (fork_result != original_result) {
        std::fprintf(stderr, "checkpoint: round %d: fork diverged from the original\n",
                     round);
        ++run.failed;
      }
      digest.Mix(original_result);
      if (lifetime == ImageLifetime::kFreeEachRound) {
        image = {};
        loaded = {};
      }
    }
  }
  const double t2 = HostSeconds();
  std::remove(image_path.c_str());

  FoldMachine(digest, m->os());
  run.setup_s = t1 - t0;
  run.run_s = t2 - t1;
  run.digest = digest.value();
  run.counts = CountsOf(m->os());
  run.facts = {{"os.fork_allocs", Median(fork_allocs)},
               {"os.fork_mb", Median(fork_bytes) / kMb},
               {"os.image_file_kb", static_cast<double>(image_file_bytes) / kKb},
               {"os.image_bytes_mb", static_cast<double>(image_bytes) / kMb}};
  return run;
}

// ------------------------------------------------------------------ probes

Facts RunLayerProbes(Size size, std::uint64_t seed, Spans& spans) {
  auto probes_span = spans.Open("bench.probes");
  const int reps = size == Size::kTiny ? 2 : 8;
  Facts facts;

  // Machine build and teardown, service shape, with exact heap counts.
  std::vector<double> build_allocs;
  std::vector<double> build_bytes;
  for (int i = 0; i < reps; ++i) {
    std::unique_ptr<Machine> m;
    {
      auto s = spans.Open("os.machine_build");
      const gbench::AllocCounts before = gbench::ThreadAllocSnapshot();
      m = std::make_unique<Machine>(PlatformProfile::Linux22(), ServiceConfig(),
                                    static_cast<std::uint32_t>(i), seed);
      const gbench::AllocCounts after = gbench::ThreadAllocSnapshot();
      build_allocs.push_back(static_cast<double>(after.allocs - before.allocs));
      build_bytes.push_back(static_cast<double>(after.bytes - before.bytes));
    }
    auto s = spans.Open("os.machine_teardown");
    m.reset();
  }
  facts.emplace_back("os.machine_build_allocs", Median(build_allocs));
  facts.emplace_back("os.machine_build_mb", Median(build_bytes) / kMb);

  // A populated service-shaped machine: fibers, one request of each kind,
  // then unlinks of cache-warm files.
  {
    Machine m(PlatformProfile::Linux22(), ServiceConfig(), 0, seed);
    Os& os = m.os();
    const ServiceFiles files = PopulateServiceMachine(os, 80);
    const std::vector<std::function<void(Pid)>> trivial(80, [](Pid) {});
    for (int i = 0; i < reps; ++i) {
      auto s = spans.Open("os.RunProcesses", trivial.size());
      m.RunProcesses(trivial);
    }
    m.RunProcesses({[&](Pid pid) {
      graywork::DirectoryAger ager(&os, pid, "/d0/age0", 16 * kKb, m.DeriveSeed(1));
      for (int i = 0; i < reps; ++i) {
        {
          auto s = spans.Open("workloads.grep");
          (void)RunRequest(os, pid, Request::kGrep, files, ager, "/d0/scratch0");
        }
        {
          auto s = spans.Open("workloads.fastsort_read");
          (void)RunRequest(os, pid, Request::kFastsort, files, ager, "/d0/scratch0");
        }
        {
          auto s = spans.Open("workloads.aging_epoch");
          (void)RunRequest(os, pid, Request::kAging, files, ager, "/d0/scratch0");
        }
        {
          auto s = spans.Open("workloads.filegen");
          (void)RunRequest(os, pid, Request::kFilegen, files, ager, "/d0/scratch0");
        }
      }
    }});
    const std::vector<std::string> doomed =
        graywork::MakeFileSet(os, os.default_pid(), "/d1/unlink", 8 * reps, 16 * kKb);
    for (const std::string& path : doomed) {
      auto s = spans.Open("fs.Unlink");
      (void)os.Unlink(os.default_pid(), path);
    }
  }

  // Memory: Mac::GbAlloc at idle, then VmTouch on a resident area and on
  // one larger than usable memory (every touch pages).
  {
    const MacSize z = MacSizeFor(size);
    Machine m(PlatformProfile::Linux22(), MacConfig(z), 1, seed);
    Os& os = m.os();
    const std::uint64_t usable = os.UsableMemBytes();
    constexpr std::uint64_t kBatch = 4096;
    m.RunProcesses({[&](Pid pid) {
      gray::SimSys sys(&os, pid);
      gray::Mac mac(&sys);
      for (int i = 0; i < reps / 2 + 1; ++i) {
        std::optional<gray::GbAllocation> a;
        {
          auto s = spans.Open("gray.Mac::GbAlloc");
          a = mac.GbAlloc(usable / 16, usable / 2, kMb);
        }
        if (a.has_value()) {
          a->Release();
        }
      }
      const std::uint64_t page = os.page_size();
      const std::uint64_t resident_pages = std::min<std::uint64_t>(usable / 8, 16 * kMb) / page;
      const graysim::VmAreaId resident = os.VmAlloc(pid, resident_pages * page);
      for (int sweep = 0; sweep <= reps; ++sweep) {
        for (std::uint64_t p = 0; p < resident_pages; p += kBatch) {
          const std::uint64_t end = std::min(resident_pages, p + kBatch);
          auto s = spans.Open(sweep == 0 ? "vm.VmTouch(first)" : "vm.VmTouch(resident)",
                              end - p);
          for (std::uint64_t q = p; q < end; ++q) {
            os.VmTouch(pid, resident, q, /*write=*/true);
          }
        }
      }
      os.VmFree(pid, resident);
      const std::uint64_t paging_pages = (usable + usable / 4) / page;
      const graysim::VmAreaId paging = os.VmAlloc(pid, paging_pages * page);
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (std::uint64_t p = 0; p < paging_pages; p += kBatch) {
          const std::uint64_t end = std::min(paging_pages, p + kBatch);
          auto s = spans.Open(sweep == 0 ? "vm.VmTouch(first)" : "vm.VmTouch(paging)",
                              end - p);
          for (std::uint64_t q = p; q < end; ++q) {
            os.VmTouch(pid, paging, q, /*write=*/true);
          }
        }
      }
      os.VmFree(pid, paging);
    }});
  }
  return facts;
}

}  // namespace perfbench
