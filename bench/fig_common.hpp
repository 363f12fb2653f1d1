#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "common/topology.hpp"
#include "runtime/runtime_config.hpp"

namespace ats::bench {

/// One runtime variant (a curve in a paper figure).
struct Variant {
  std::string label;
  RuntimeConfig (*make)(const Topology&);
};

/// The four ablation curves of Figures 4-6.
const std::vector<Variant>& ablationVariants();

/// The runtime-comparison curves of Figures 7-9.  "nanos6" is the fully
/// optimized runtime; "gcc-like" and "llvm-like" are the architectural
/// stand-ins for GOMP and the LLVM-family runtimes (the paper notes
/// Intel's and AMD AOCC's runtimes are LLVM-based, and measures AOCC
/// tying LLVM): a central-mutex scheduler and the real Chase–Lev
/// work-stealing scheduler respectively.
const std::vector<Variant>& runtimeComparisonVariants();

/// Sweep parameters resolved from the environment:
///   ATS_THREADS  worker threads   (default: 4 quick / preset count full,
///                capped at the CPUs this process may run on)
///   ATS_FULL     full paper-sized sweep (default: quick)
///   ATS_REPS     repetitions      (default: 2 quick / 5 full)
///   ATS_TRACE_DIR where fig10/fig11 write trace files (default: ".")
struct SweepConfig {
  Topology topo;
  std::size_t reps = 2;
  AppScale scale = AppScale::Quick;
  std::size_t maxPoints = 5;  ///< granularity points per curve (quick cap)
  /// The default thread count before the cap to the CPUs this process
  /// may run on, when the cap lowered it; 0 otherwise.
  std::size_t uncappedThreads = 0;
};

SweepConfig resolveSweepConfig(MachinePreset preset);

/// Run one paper figure: for each app, sweep block sizes on every
/// variant, compute the paper's efficiency metric (percent of the peak
/// median throughput observed across the app's whole grid), and print
/// one table per app.  Each cell is the median efficiency over reps with
/// its [min, max]; the last column names the variant pairs whose ranges
/// overlap at that point (`-` when every pair is separated):
///
///   # fig4 lulesh
///   grain_work_units    optimized            wo_jemalloc          ...  overlap
///   2.1e6               100.0 [ 98.2,101.0]   97.3 [ 96.0, 98.9]  ...  optimized~wo_jemalloc
///   ...
///
/// Every run is verified against the app's serial reference; a
/// verification failure aborts the figure (a benchmark that computes the
/// wrong answer measures nothing).
void runFigure(const std::string& figure, MachinePreset preset,
               const std::vector<std::string>& apps,
               const std::vector<Variant>& variants);

}  // namespace ats::bench
