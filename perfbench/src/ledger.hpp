#pragma once

#include <cstddef>

namespace ats {
class Runtime;
}

namespace perfbench {

class DagRandom;

/// The per-task cost ledger: each layer's public entry points timed
/// alone, outside the runtime, in ns per task of dag_random's stream.
/// Every row is the median over rounds.  `ok` is false when a layer
/// handed back something other than what went in (a lost or duplicated
/// ready task, a null block), which fails the benchmark.
struct LedgerRows {
  double allocFreeNs = 0;        ///< PoolAllocator allocate + deallocate
  double registerReleaseNs = 0;  ///< WaitFreeAsm registerTask + release
  double addGetNs = 0;           ///< scheduler addReadyTask + getReadyTask
  double emitNs = 0;             ///< Tracer::emit
  bool ok = true;
};

/// Measure the ledger rows.  `rt` must be idle (no graph in flight) and
/// untraced; its workers free half of the allocator row's blocks, and its
/// config selects the scheduler row's design.
LedgerRows measureLedger(ats::Runtime& rt, const DagRandom& dag);

}  // namespace perfbench
