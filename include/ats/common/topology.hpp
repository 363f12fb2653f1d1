#pragma once

#include <cstddef>

namespace ats {

/// The machines of the paper's evaluation (§6.1) plus the host we happen
/// to run on.  Presets fix the CPU/NUMA shape so figure output is
/// comparable across hosts; `Host` adapts to the current machine.
enum class MachinePreset {
  Host,      ///< whatever std::thread::hardware_concurrency reports
  Xeon,      ///< 2x Intel Xeon Platinum 8160 (24c each), 2 NUMA domains
  Rome,      ///< 2x AMD EPYC 7742 (64c each), 8 NUMA domains (NPS4)
  Graviton,  ///< AWS Graviton2, 64 cores, single NUMA domain
};

/// CPU/NUMA shape the runtime layers size themselves from: one SPSC
/// add-buffer per CPU, one ready-queue shard per NUMA domain, etc.
struct Topology {
  std::size_t numCpus = 1;
  std::size_t numNumaDomains = 1;
  MachinePreset preset = MachinePreset::Host;

  /// Extra per-thread scheduler slots beyond the real CPUs — the
  /// Runtime reserves one for the spawner.  Kept OUT of numCpus so the
  /// NUMA domain math below stays anchored to the physical layout: a
  /// reserved slot is not a core, and folding it into numCpus would
  /// shift cpusPerDomain and misclassify real workers (slot indices
  /// fold into a domain via the `cpu % numCpus` below instead).
  std::size_t reservedSlots = 0;

  /// Per-thread structure count schedulers size from (SPSC buffers,
  /// DTLock result slots): every worker plus every reserved slot.
  std::size_t slotCount() const { return numCpus + reservedSlots; }

  /// Domain owning scheduler slot `slot` — the ONE place the
  /// slot→domain rule lives (NumaFifoPolicy, the work-stealing victim
  /// split, and the sharded AddBufferSet all route through it).  The
  /// block-cyclic layout every preset machine uses: consecutive CPUs
  /// fill a domain before the next.  Reserved slots (the Runtime's
  /// spawner) fold onto a real CPU's domain via the modulo, and
  /// degenerate hand-built shapes (zero CPUs or domains) collapse to
  /// domain 0 instead of dividing by zero.  Always less than
  /// max(1, numNumaDomains), so callers index per-domain arrays with it
  /// unclamped.
  std::size_t domainOfSlot(std::size_t slot) const {
    if (numCpus < 1 || numNumaDomains <= 1) return 0;
    const std::size_t domain = (slot % numCpus) / cpusPerDomain();
    return domain < numNumaDomains ? domain : numNumaDomains - 1;
  }

  /// CPUs per NUMA domain, rounded up so every CPU maps somewhere.
  std::size_t cpusPerDomain() const {
    return (numCpus + numNumaDomains - 1) / numNumaDomains;
  }
};

/// Build a topology for `preset`.  `numCpus == 0` keeps the preset's
/// native core count; any other value overrides it (the ATS_THREADS
/// knob), shrinking the domain count when fewer CPUs than domains remain.
Topology makeTopology(MachinePreset preset, std::size_t numCpus = 0);

/// Lower-case preset tag used in figure headers ("host", "xeon", ...).
const char* presetName(MachinePreset preset);

}  // namespace ats
