#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "deps/access.hpp"

namespace ats {
class Runtime;
}

namespace perfbench {

/// The dag_random workload: a task graph generated from a seed, with tiny
/// bodies that check per-object version counters against a serial-order
/// oracle.
///
/// Shape (fixed sizes, so seeds differ only in which objects and modes
/// land where, not in how much work a run is):
///   * kTopTasks tasks spawned by the spawner, with 0-4 accesses each
///     (every count equally often), on distinct objects;
///   * modes in fixed shares over all accesses: half `in`, 30% `inout`,
///     20% `out`, so readers fan out between writers;
///   * kObjects objects, four times the ObjectTable's 512-slot TLS cache,
///     with a third of all accesses going to a hot subset of kHotObjects;
///   * kParents bodies each spawn kChildrenPerParent zero-access children
///     from whichever worker runs them.
///
/// The oracle: walking the tasks in program order, every access expects
/// to see its object's version equal to the number of earlier writers on
/// it, and every writer bumps the version.  A body that sees anything
/// else ran out of dependency order.
class DagRandom {
 public:
  static constexpr std::size_t kTopTasks = 8192;
  static constexpr std::size_t kObjects = 2048;
  static constexpr std::size_t kHotObjects = 64;
  static constexpr std::size_t kParents = 1024;
  static constexpr std::size_t kChildrenPerParent = 2;
  static constexpr std::size_t kMaxAccesses = 4;

  explicit DagRandom(std::uint64_t seed);

  DagRandom(const DagRandom&) = delete;
  DagRandom& operator=(const DagRandom&) = delete;

  /// Top-level tasks plus the children their bodies spawn.
  static constexpr std::size_t totalTasks() {
    return kTopTasks + kParents * kChildrenPerParent;
  }

  /// Task `t`'s declared accesses and child count, in program order (the
  /// ledger replays the same stream through the layers one at a time).
  std::span<const ats::Access> accessesOf(std::size_t t) const {
    return {accesses_.data() + first_[t], first_[t + 1] - first_[t]};
  }
  std::size_t childrenOf(std::size_t t) const { return children_[t]; }

  /// Execute the graph serially in program order, no runtime involved,
  /// and verify it: the oracle's own consistency check and the
  /// single-threaded baseline.
  bool runSerial();

  struct Outcome {
    std::uint64_t spawnNs = 0;     ///< the spawner's whole spawn loop
    std::uint64_t taskwaitNs = 0;  ///< the taskwait call
    std::size_t spawned = 0;       ///< top-level plus nested spawns
    bool verified = false;
  };

  /// Reset the versions (untimed), spawn the whole graph on `rt` from the
  /// calling (spawner) thread, taskwait, and verify against the oracle.
  /// `perturb` shifts one oracle expectation for this run only, so a
  /// correct runtime must fail verification (the benchmark self-test).
  Outcome runParallel(ats::Runtime& rt, bool perturb);

 private:
  struct alignas(64) Object {
    std::atomic<std::uint32_t> version{0};
  };

  void resetState();
  void body(std::size_t t);
  void markRan(std::size_t slot);
  bool verify() const;

  std::unique_ptr<Object[]> objects_;
  std::vector<ats::Access> accesses_;     ///< all tasks', program order
  std::vector<std::uint32_t> objectOf_;   ///< per access
  std::vector<std::uint32_t> expect_;     ///< per access: oracle version
  std::vector<std::uint32_t> first_;      ///< per task: first access
  std::vector<std::uint32_t> children_;   ///< per task: children count
  std::vector<std::uint32_t> childSlot_;  ///< per task: first child slot
  std::vector<std::uint32_t> finalVersion_;  ///< per object

  /// Per task slot (top-level, then children): how often it ran.  Each
  /// slot has one writer, so there is no shared counter on the hot path.
  std::unique_ptr<std::atomic<std::uint8_t>[]> ran_;
  std::atomic<std::uint64_t> mismatches_{0};
  std::atomic<std::uint64_t> childSpawns_{0};
  ats::Runtime* rt_ = nullptr;
};

}  // namespace perfbench
