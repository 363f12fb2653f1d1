// perfbench: closed-loop end-to-end benchmark of ats::Runtime, with a
// per-layer ledger and a traced pass.  See ../README.md for the
// workloads, the metrics and how to run it.
//
//   perfbench --workload <lulesh_fine|dag_random|matmul_coarse>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test [--seed <n>]
//   perfbench --setup-once --workload <w> --seed <n>   (one cold set-up;
//             the benchmark runs itself this way for setup_s)
//
// Every line but the last is for people; the last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
// exit code is 0 only when every check passed.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "common/timing.hpp"
#include "dag_random.hpp"
#include "deps/object_table.hpp"
#include "instr/trace_analyzer.hpp"
#include "instr/tracer.hpp"
#include "ledger.hpp"
#include "memory/pool_allocator.hpp"
#include "runtime/runtime.hpp"

extern char** environ;

namespace {

using perfbench::DagRandom;

/// Blocks of the untraced pass (see benchmark()).
constexpr std::size_t kBlocks = 8;
/// Cold set-ups for setup_s at the start of each block, each in a child
/// process of its own; the median over all of them is reported.
constexpr std::size_t kSetupsPerBlock = 4;
/// At least this many timed runs per block, so the 90th percentile has
/// ten samples above it.
constexpr std::size_t kMinRuns = 100;
/// dag_random runs in the ledger's round-trip pass.
constexpr std::size_t kRoundTripRuns = 60;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selfTest = false;
  bool setupOnce = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <lulesh_fine|dag_random|"
               "matmul_coarse> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --self-test [--seed <n>]\n",
               why);
  std::exit(2);
}

template <typename T>
T parseNumber(const char* text, const char* flag) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "perfbench: bad value '%s' for %s\n", text, flag);
    std::exit(2);
  }
  return value;
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      opt.selfTest = true;
      continue;
    }
    if (flag == "--setup-once") {
      opt.setupOnce = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value after a flag");
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parseNumber<std::uint64_t>(value, "--seed");
    } else if (flag == "--seconds") {
      opt.seconds = parseNumber<double>(value, "--seconds");
      if (!(opt.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      const int trace = parseNumber<int>(value, "--trace");
      if (trace != 0 && trace != 1) usage("--trace takes 0 or 1");
      opt.trace = trace == 1;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!opt.selfTest && opt.workload.empty()) usage("--workload is required");
  return opt;
}

/// Logical CPUs this process may run on (what `nproc` prints).
std::size_t availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// Linear interpolation between closest ranks (numpy's default).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Workloads

/// What one closed-loop run reports: the whole graph spawned by this
/// (spawner) thread, one taskwait, then verification (untimed).
struct RunOutcome {
  std::uint64_t wallNs = 0;      ///< first spawn to taskwait's return
  std::uint64_t spawnNs = 0;     ///< dag_random: the spawn loop
  std::uint64_t taskwaitNs = 0;  ///< dag_random: the taskwait call
  std::size_t spawned = 0;       ///< tasks spawned, nested ones included
  bool verified = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// How the inputs are made, for the output header.
  virtual std::string inputs() const = 0;
  /// Compute the single-threaded reference once; false if it fails its
  /// own check.
  virtual bool runSerial() = 0;
  /// One run; `corrupt` damages this run's answer (or the oracle), so
  /// verification must reject it.
  virtual RunOutcome run(ats::Runtime& rt, bool corrupt) = 0;
};

class AppWorkload final : public Workload {
 public:
  AppWorkload(const char* app, std::size_t block)
      : app_(ats::makeApp(app, ats::AppScale::Full)), block_(block) {}

  std::string inputs() const override {
    return app_->name() + " AppScale::Full, block " + std::to_string(block_) +
           "; fixed by construction, --seed does not change them";
  }

  bool runSerial() override {
    app_->ensureSerial();
    return true;
  }

  RunOutcome run(ats::Runtime& rt, bool corrupt) override {
    app_->initParallel(block_);
    RunOutcome out;
    const std::uint64_t t0 = ats::nowNanos();
    out.spawned = app_->runParallel(rt, block_);
    out.wallNs = ats::nowNanos() - t0;
    if (corrupt) app_->corruptOutput();
    out.verified = app_->verify().ok;
    return out;
  }

 private:
  std::unique_ptr<ats::App> app_;
  std::size_t block_;
};

class DagWorkload final : public Workload {
 public:
  explicit DagWorkload(std::uint64_t seed) : dag_(seed), seed_(seed) {}

  const DagRandom& dag() const { return dag_; }

  std::string inputs() const override {
    return "dag_random graph from seed " + std::to_string(seed_) + ": " +
           std::to_string(DagRandom::kTopTasks) + " spawner tasks + " +
           std::to_string(DagRandom::kParents * DagRandom::kChildrenPerParent) +
           " nested, " + std::to_string(DagRandom::kObjects) + " objects (" +
           std::to_string(DagRandom::kHotObjects) + " hot)";
  }

  bool runSerial() override { return dag_.runSerial(); }

  RunOutcome run(ats::Runtime& rt, bool corrupt) override {
    const DagRandom::Outcome o = dag_.runParallel(rt, corrupt);
    RunOutcome out;
    out.wallNs = o.spawnNs + o.taskwaitNs;
    out.spawnNs = o.spawnNs;
    out.taskwaitNs = o.taskwaitNs;
    out.spawned = o.spawned;
    out.verified = o.verified;
    return out;
  }

 private:
  DagRandom dag_;
  std::uint64_t seed_;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "lulesh_fine") return std::make_unique<AppWorkload>("lulesh", 256);
  if (name == "dag_random") return std::make_unique<DagWorkload>(seed);
  if (name == "matmul_coarse") return std::make_unique<AppWorkload>("matmul", 48);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Checked runs and timed passes

/// One run with every check the benchmark makes: the workload's own
/// verification; tasksRetired() grew by exactly the tasks spawned, nested
/// ones included; no task failed or was skipped; no descriptor is alive;
/// and the run spawned the same number of tasks as every other run
/// (`expectedTasks`, 0 on the very first run).
bool checkedRun(ats::Runtime& rt, Workload& wl, bool corrupt,
                std::size_t expectedTasks, RunOutcome& out) {
  const std::uint64_t retired = rt.tasksRetired();
  const std::uint64_t failed = rt.tasksFailed();
  const std::uint64_t skipped = rt.tasksSkipped();
  out = wl.run(rt, corrupt);
  return out.verified && rt.tasksRetired() - retired == out.spawned &&
         rt.tasksFailed() == failed && rt.tasksSkipped() == skipped &&
         rt.liveDescriptors() == 0 &&
         (expectedTasks == 0 || out.spawned == expectedTasks);
}

/// Sums over the traced runs' analyses (per-run traces, so ratios are
/// taken over totals, not averaged per run).
struct TraceTotals {
  double busyUs = 0;
  double idleUs = 0;
  double workerSpanUs = 0;  ///< trace span x worker streams
  std::uint64_t serveCount = 0;
  std::uint64_t servedTasks = 0;
  std::uint64_t drainedTasks = 0;
  std::uint64_t contended = 0;
  std::uint64_t taskStarts = 0;
  std::uint64_t dropped = 0;
};

struct Pass {
  std::vector<double> runMs;  ///< verified runs only
  std::vector<double> spawnNsPerTask;
  std::vector<double> taskwaitMs;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double cpuMsPerRun = 0;
  std::uint64_t tlsHits = 0;
  std::uint64_t tlsMisses = 0;
  TraceTotals trace;
};

/// Closed loop: run, check, repeat, for `seconds` and at least `minRuns`
/// runs.  With a tracer, each run gets a fresh trace (reset at quiescence)
/// that must have dropped nothing, and its analysis is accumulated.
Pass runPass(ats::Runtime& rt, Workload& wl, std::size_t tasksPerRun,
             double seconds, std::size_t minRuns, ats::Tracer* tracer,
             std::size_t workers) {
  Pass pass;
  const ats::ObjectTableCacheCounters tls0 = ats::objectTableThreadCacheCounters();
  const double cpu0 = cpuSeconds();
  const std::uint64_t end =
      ats::nowNanos() + static_cast<std::uint64_t>(seconds * 1e9);
  while (pass.attempted < minRuns || ats::nowNanos() < end) {
    if (tracer != nullptr) tracer->reset();
    RunOutcome out;
    bool ok = checkedRun(rt, wl, false, tasksPerRun, out);
    if (tracer != nullptr) {
      const std::uint64_t dropped = tracer->dropped();
      pass.trace.dropped += dropped;
      if (dropped != 0) {
        ok = false;
      } else {
        const ats::TraceAnalysis a = ats::analyzeTrace(tracer->collect(), workers);
        for (const ats::ThreadTraceStats& t : a.threads) {
          pass.trace.busyUs += t.busyUs;
          pass.trace.idleUs += t.idleUs;
        }
        pass.trace.workerSpanUs += a.spanUs * static_cast<double>(workers);
        pass.trace.serveCount += a.serveCount;
        pass.trace.servedTasks += a.servedTasks;
        pass.trace.drainedTasks += a.drainedTasks;
        pass.trace.contended += a.contendedCount;
        pass.trace.taskStarts += a.taskStartCount;
      }
    }
    ++pass.attempted;
    if (!ok) {
      ++pass.failed;
      continue;
    }
    pass.runMs.push_back(static_cast<double>(out.wallNs) * 1e-6);
    pass.spawnNsPerTask.push_back(static_cast<double>(out.spawnNs) /
                                  static_cast<double>(DagRandom::kTopTasks));
    pass.taskwaitMs.push_back(static_cast<double>(out.taskwaitNs) * 1e-6);
  }
  pass.cpuMsPerRun = (cpuSeconds() - cpu0) * 1e3 /
                     static_cast<double>(pass.attempted);
  const ats::ObjectTableCacheCounters tls1 = ats::objectTableThreadCacheCounters();
  pass.tlsHits = tls1.hits - tls0.hits;
  pass.tlsMisses = tls1.misses - tls0.misses;
  return pass;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string formatNumber(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

void printMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-28s %14s %s\n", m.name.c_str(), formatNumber(m.value).c_str(),
                m.unit);
}

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            formatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

ats::RuntimeConfig benchConfig(std::size_t workers) {
  ats::RuntimeConfig config =
      ats::optimizedConfig(ats::makeTopology(ats::MachinePreset::Host, workers));
  config.watchdogTimeoutMs = 0;
  return config;
}

// ---------------------------------------------------------------------------
// Modes

/// The checks must catch errors: a corrupted app answer and a perturbed
/// dag_random oracle expectation must both count as failed runs, with
/// clean runs on either side of them passing.
int selfTest(const Options& opt, std::size_t workers) {
  bool pass = true;
  for (const char* name : {"lulesh_fine", "dag_random"}) {
    std::unique_ptr<Workload> wl = makeWorkload(name, opt.seed);
    ats::Runtime rt(benchConfig(workers));
    RunOutcome out;
    const bool serial = wl->runSerial();
    const bool before = checkedRun(rt, *wl, false, 0, out);
    const std::size_t tasks = out.spawned;
    const bool corrupted = checkedRun(rt, *wl, true, tasks, out);
    const bool after = checkedRun(rt, *wl, false, tasks, out);
    const bool ok = serial && before && !corrupted && after;
    std::printf("self-test %-12s clean run %s, corrupted run %s, clean run %s: %s\n",
                name, before ? "passed" : "FAILED",
                corrupted ? "PASSED" : "counted as failed",
                after ? "passed" : "FAILED", ok ? "ok" : "FAIL");
    pass = pass && ok;
  }
  std::printf("self-test: %s\n", pass ? "ok" : "FAIL");
  return pass ? 0 : 1;
}

/// --setup-once: Runtime construction through the end of the first
/// verified run, in a fresh process whose process-wide PoolAllocator has
/// carved nothing yet (the serial reference is computed first, untimed).
/// Prints "<seconds> <tasks spawned>"; exits 0 only if the run passed
/// every check.
int setUpOnce(const Options& opt, std::size_t workers) {
  std::unique_ptr<Workload> wl = makeWorkload(opt.workload, opt.seed);
  if (wl == nullptr) usage(("unknown workload " + opt.workload).c_str());
  if (!wl->runSerial()) return 1;
  const std::uint64_t t0 = ats::nowNanos();
  ats::Runtime rt(benchConfig(workers));
  RunOutcome out;
  const bool ok = checkedRun(rt, *wl, false, 0, out);
  const double seconds = static_cast<double>(ats::nowNanos() - t0) * 1e-9;
  std::printf("%s %zu\n", formatNumber(seconds).c_str(), out.spawned);
  return ok ? 0 : 1;
}

/// One cold set-up: this program run again with --setup-once in a child
/// process, because the PoolAllocator is process-wide and never returns
/// memory, so only a new process carves its pool again.  The caller holds
/// no runtime meanwhile, so load stays at nproc threads.  False when the
/// child could not run or its run failed a check.
bool coldSetUp(const Options& opt, double& seconds, std::size_t& tasks) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string workload = opt.workload;
  std::string seed = std::to_string(opt.seed);
  std::string self = "perfbench", once = "--setup-once", wflag = "--workload",
              sflag = "--seed";
  char* argv[] = {self.data(), once.data(), wflag.data(), workload.data(),
                  sflag.data(), seed.data(), nullptr};
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  if (rc == 0) {
    char buf[256];
    for (;;) {
      const ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n > 0) {
        text.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (rc != 0) return false;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         std::sscanf(text.c_str(), "%lf %zu", &seconds, &tasks) == 2;
}

int benchmark(const Options& opt, std::size_t nproc, std::size_t workers) {
  std::unique_ptr<Workload> wl = makeWorkload(opt.workload, opt.seed);
  if (wl == nullptr) usage(("unknown workload " + opt.workload).c_str());

  std::printf("perfbench workload=%s seed=%llu nproc=%zu workers=%zu threads=%zu "
              "build=%s trace=%d seconds=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              nproc, workers, workers + 1, PERFBENCH_BUILD_TYPE, opt.trace ? 1 : 0,
              formatNumber(opt.seconds).c_str());
  std::printf("inputs: %s\n", wl->inputs().c_str());

  bool correct = true;
  const ats::RuntimeConfig config = benchConfig(workers);

  const std::uint64_t s0 = ats::nowNanos();
  correct = wl->runSerial() && correct;
  const double serialMs = static_cast<double>(ats::nowNanos() - s0) * 1e-6;

  // Set-up: cold set-ups in child processes (coldSetUp).  Every block of
  // the timed pass starts with kSetupsPerBlock of them, so the set-ups
  // sample the host over the whole run like the timed runs do, not only
  // its first fraction of a second.  The block then builds its own
  // runtime and warms it with one untimed checked run.
  std::vector<double> setupS;
  std::unique_ptr<ats::Runtime> rt;
  std::size_t tasksPerRun = 0;
  auto setUp = [&] {
    double seconds = 0;
    std::size_t tasks = 0;
    const bool ok = coldSetUp(opt, seconds, tasks) &&
                    (tasksPerRun == 0 || tasks == tasksPerRun);
    correct = ok && correct;
    if (ok) setupS.push_back(seconds);
    if (tasksPerRun == 0) tasksPerRun = tasks;
  };

  // Untraced timed pass: every end-to-end number comes from here.  It runs
  // in kBlocks blocks and each timing metric is the median of its
  // per-block values, so a burst of preemption by the host moves one
  // block, not the metric.
  const double untracedSeconds = opt.trace ? opt.seconds * 0.4 : opt.seconds;
  Pass untraced;
  std::vector<double> blockP50, blockP90, blockCpuMs;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    rt.reset();  // one runtime at a time: load stays at nproc threads
    for (std::size_t i = 0; i < kSetupsPerBlock; ++i) setUp();
    rt = std::make_unique<ats::Runtime>(config);
    RunOutcome warm;
    correct = checkedRun(*rt, *wl, false, tasksPerRun, warm) && correct;
    if (tasksPerRun == 0) tasksPerRun = warm.spawned;
    if (b == 0) {
      // The checks themselves must catch a wrong answer.
      RunOutcome out;
      const bool caught = !checkedRun(*rt, *wl, true, tasksPerRun, out);
      std::printf("self-check: corrupted run %s\n",
                  caught ? "counted as failed" : "PASSED (checks are broken)");
      correct = caught && correct;
    }
    Pass block = runPass(*rt, *wl, tasksPerRun, untracedSeconds / kBlocks,
                         kMinRuns, nullptr, workers);
    blockP50.push_back(percentile(block.runMs, 0.5));
    blockP90.push_back(percentile(block.runMs, 0.9));
    blockCpuMs.push_back(block.cpuMsPerRun);
    untraced.runMs.insert(untraced.runMs.end(), block.runMs.begin(), block.runMs.end());
    untraced.attempted += block.attempted;
    untraced.failed += block.failed;
    untraced.tlsHits += block.tlsHits;
    untraced.tlsMisses += block.tlsMisses;
  }
  const double poolMb =
      static_cast<double>(ats::PoolAllocator::instance().reservedBytes()) / 1e6;
  std::size_t attempted = untraced.attempted;
  std::size_t failed = untraced.failed;

  const double failRatio = ratio(static_cast<double>(untraced.failed),
                                 static_cast<double>(untraced.attempted));
  const std::vector<Metric> endToEnd = {
      {"run_ms_p50", percentile(blockP50, 0.5), "ms"},
      {"run_ms_p90", percentile(blockP90, 0.5), "ms"},
      {"cpu_ms_per_run", percentile(blockCpuMs, 0.5), "ms"},
      {"setup_s", percentile(setupS, 0.5), "s"},
      {"ok_ratio", 1.0 - failRatio, "ratio"},
  };
  std::printf("timed runs: %zu attempted, %zu failed, %zu samples in %zu blocks; "
              "fail_ratio %s\n",
              untraced.attempted, untraced.failed, untraced.runMs.size(), kBlocks,
              formatNumber(failRatio).c_str());
  std::printf("run_ms_p50 per block:");
  for (double v : blockP50) std::printf(" %.3f", v);
  std::printf("\n");
  printMetrics("end-to-end (untraced):", endToEnd);

  if (!opt.trace) {
    correct = correct && failed == 0;
    printResult(correct, attempted, failed, endToEnd);
    return correct ? 0 : 1;
  }

  // Ledger: the dag_random stream's round trip through this runtime, and
  // each layer's entry points timed alone over the same stream.
  std::unique_ptr<DagWorkload> ownDag;
  DagWorkload* dagWl = dynamic_cast<DagWorkload*>(wl.get());
  if (dagWl == nullptr) {
    ownDag = std::make_unique<DagWorkload>(opt.seed);
    dagWl = ownDag.get();
  }
  const Pass roundTrip = runPass(*rt, *dagWl, DagRandom::totalTasks(), 0,
                                 kRoundTripRuns, nullptr, workers);
  attempted += roundTrip.attempted;
  failed += roundTrip.failed;
  const perfbench::LedgerRows ledger = perfbench::measureLedger(*rt, dagWl->dag());
  correct = ledger.ok && correct;
  rt.reset();  // one runtime at a time: load stays at nproc threads

  // Traced pass: a fresh runtime with exactly topo.numCpus worker streams.
  const std::size_t capacity = 4 * tasksPerRun + 65536;
  ats::Tracer tracer(workers, capacity);
  ats::RuntimeConfig tracedConfig = config;
  tracedConfig.tracer = &tracer;
  Pass traced;
  {
    ats::Runtime tracedRt(tracedConfig);
    RunOutcome warm;
    correct = checkedRun(tracedRt, *wl, false, tasksPerRun, warm) && correct;
    traced = runPass(tracedRt, *wl, tasksPerRun, opt.seconds * 0.4, kMinRuns,
                     &tracer, workers);
  }
  attempted += traced.attempted;
  failed += traced.failed;
  correct = correct && failed == 0 && traced.trace.dropped == 0;

  const double roundTripNs = percentile(roundTrip.runMs, 0.5) * 1e6 /
                             static_cast<double>(DagRandom::totalTasks());
  const double ledgerSumNs =
      ledger.allocFreeNs + ledger.registerReleaseNs + ledger.addGetNs;
  const TraceTotals& tt = traced.trace;
  const double starts = static_cast<double>(tt.taskStarts);
  const std::vector<Metric> perLayer = {
      {"memory.alloc_free_ns", ledger.allocFreeNs, "ns"},
      {"memory.pool_reserved_mb", poolMb, "MB"},
      {"deps.register_release_ns", ledger.registerReleaseNs, "ns"},
      {"deps.tls_hit_ratio",
       ratio(static_cast<double>(untraced.tlsHits),
             static_cast<double>(untraced.tlsHits + untraced.tlsMisses)),
       "ratio"},
      {"sched.add_get_ns", ledger.addGetNs, "ns"},
      {"sched.serve_batch_mean",
       ratio(static_cast<double>(tt.servedTasks), static_cast<double>(tt.serveCount)),
       "tasks"},
      {"sched.drained_per_task", ratio(static_cast<double>(tt.drainedTasks), starts),
       "ratio"},
      {"locks.contended_per_ktask",
       1000.0 * ratio(static_cast<double>(tt.contended), starts), "count"},
      {"runtime.spawn_ns", percentile(roundTrip.spawnNsPerTask, 0.5), "ns"},
      {"runtime.taskwait_ms", percentile(roundTrip.taskwaitMs, 0.5), "ms"},
      {"runtime.busy_pct", 100.0 * ratio(tt.busyUs, tt.workerSpanUs), "%"},
      {"runtime.idle_pct", 100.0 * ratio(tt.idleUs, tt.workerSpanUs), "%"},
      {"runtime.roundtrip_ns", roundTripNs, "ns"},
      {"runtime.ledger_sum_ns", ledgerSumNs, "ns"},
      {"runtime.skeleton_ns", roundTripNs - ledgerSumNs, "ns"},
      {"instr.emit_ns", ledger.emitNs, "ns"},
      {"instr.trace_overhead_pct",
       100.0 * (ratio(percentile(traced.runMs, 0.5), percentile(untraced.runMs, 0.5)) -
                1.0),
       "%"},
      {"instr.dropped", static_cast<double>(tt.dropped), "count"},
      {"apps.serial_ms", serialMs, "ms"},
      {"apps.tasks_per_run", static_cast<double>(tasksPerRun), "count"},
  };
  std::printf("traced runs: %zu attempted, %zu failed; ledger round trip: %zu runs\n",
              traced.attempted, traced.failed, roundTrip.attempted);
  printMetrics("per-layer:", perLayer);
  printResult(correct, attempted, failed, perLayer);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);
  const std::size_t nproc = availableCpus();
  // nproc - 1 workers plus this spawner thread: load never exceeds nproc.
  const std::size_t workers = nproc > 1 ? nproc - 1 : 1;
  if (opt.selfTest) return selfTest(opt, workers);
  if (opt.setupOnce) return setUpOnce(opt, workers);
  return benchmark(opt, nproc, workers);
}
