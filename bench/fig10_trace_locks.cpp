// Figure 10 reproduction: instrumented comparison of the scheduler under
// the plain PTLock versus the wait-free add-buffers + DTLock combination,
// on a fine-grained miniAMR-style task flood (the workload Fig. 10's
// traces show).
//
// The paper's figure is a timeline view; its *claims* are quantitative,
// and this harness reproduces those numbers from the same kind of trace:
//  * PTLock variant: the task-creating core fights every idle worker for
//    the shared lock, ready tasks cannot enter fast enough, and "most
//    cores starve" -> higher mean idle (starvation) percentage.
//  * DTLock variant: creation proceeds independently through the SPSC
//    buffers (SchedDrain events) and the lock owner serves waiting cores
//    (SchedServe events) -> lower starvation.
//
// Trace files (CTF-lite binary + text rendering) are written next to the
// binary for inspection with examples/trace_inspection.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "apps/app.hpp"
#include "common/env.hpp"
#include "instr/trace_analyzer.hpp"
#include "instr/trace_writer.hpp"
#include "instr/tracer.hpp"
#include "runtime/runtime.hpp"

using namespace ats;

namespace {

TraceAnalysis runVariant(const char* label, SchedulerKind sched,
                         const Topology& topo, const std::string& traceDir) {
  const std::size_t threads = topo.numCpus;
  Tracer tracer(threads, 1u << 18);
  RuntimeConfig cfg = optimizedConfig(topo);
  cfg.scheduler = sched;
  cfg.tracer = &tracer;

  auto app = makeApp("miniamr", envFlag("ATS_FULL") ? AppScale::Full
                                                    : AppScale::Quick);
  const auto sizes = app->defaultBlockSizes();
  // Repeat the flood so the traced window is long enough for the
  // starvation percentages to mean something (one quick-scale run is
  // over in a millisecond on a small host).
  const std::size_t reps = envSize("ATS_REPS", 5);
  {
    Runtime rt(cfg);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const AppResult r = app->run(rt, sizes.back());  // finest granularity
      if (!r.verified) {
        std::fprintf(stderr, "FATAL: miniamr failed verification\n");
        std::exit(1);
      }
    }
  }

  const auto records = tracer.collect();
  const TraceAnalysis a = analyzeTrace(records, threads);
  TraceWriter::writeBinary(traceDir + "/fig10_" + label + ".ats", records);
  TraceWriter::writeText(traceDir + "/fig10_" + label + ".txt", records);

  std::printf("[%s]\n%s", label, formatAnalysis(a).c_str());
  std::printf("events=%zu dropped=%llu\n", records.size(),
              static_cast<unsigned long long>(tracer.dropped()));
  std::printf("%s\n", renderTimeline(records, threads).c_str());
  return a;
}

}  // namespace

int main() try {
  const Topology topo = makeTopology(MachinePreset::Host, envThreads(4));
  const std::string traceDir = envString("ATS_TRACE_DIR", ".");
  std::printf("# fig10: scheduler lock comparison under fine-grained "
              "miniAMR flood (%zu threads)\n\n", topo.numCpus);

  const TraceAnalysis dt =
      runVariant("dtlock", SchedulerKind::SyncDelegation, topo, traceDir);
  const TraceAnalysis pt =
      runVariant("ptlock", SchedulerKind::PTLockCentral, topo, traceDir);

  std::printf("# paper claim: the PTLock variant starves cores; the "
              "DTLock variant keeps them fed\n");
  std::printf("starvation(ptlock)=%.1f%%  starvation(dtlock)=%.1f%%  "
              "serves(dtlock)=%llu  drains(dtlock)=%llu\n",
              pt.meanIdlePct, dt.meanIdlePct,
              static_cast<unsigned long long>(dt.serveCount),
              static_cast<unsigned long long>(dt.drainCount));
  return 0;
} catch (const std::out_of_range& e) {  // envThreads' limit
  std::fprintf(stderr, "fig10: %s\n", e.what());
  return 2;
}
