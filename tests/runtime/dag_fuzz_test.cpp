// Randomized differential DAG test: seeded random task graphs run on the
// runtime and checked against their own serial program order.  Every
// object carries a version counter; walking the tasks in program order
// gives each access the version it must see (the number of earlier
// writers) and each writer bumps it.  A body that sees anything else ran
// out of dependency order.  The oracle is a test-local copy of the
// dag_random benchmark workload's, sized for a test instead of a timing
// loop.
//
// The matrix: both dependency systems x 4 schedulers x pool on/off x the
// 3 ready-queue policies (Fifo only for the work-stealing scheduler,
// which has no policy).
//
// The graphs: 1-8 accesses per task over 16 objects, in/out/inout
// drawn uniformly, so chains, reader fan-outs and write-after-read edges
// all appear; every third task captures more than the descriptor's
// inline closure buffer, so its closure spills to the heap; every fourth
// body spawns one or two access-free children from whatever thread runs
// it.
//
// A failing seed is printed; `ATS_FUZZ_SEED=<n>` replays that seed alone.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/env.hpp"
#include "common/failpoint.hpp"
#include "runtime/runtime.hpp"

namespace ats {
namespace {

class DagFuzz {
 public:
  static constexpr std::size_t kObjects = 16;
  static constexpr std::size_t kTopTasks = 300;

  explicit DagFuzz(std::uint64_t seed) : objects_(kObjects) {
    std::mt19937_64 rng(seed);
    first_.push_back(0);
    std::array<std::uint32_t, kObjects> pick{};
    for (std::size_t t = 0; t < kTopTasks; ++t) {
      // Distinct objects per task: a partial Fisher-Yates over all 16.
      for (std::uint32_t o = 0; o < kObjects; ++o) pick[o] = o;
      const std::size_t count = 1 + rng() % kMaxAccessesPerTask;
      for (std::size_t a = 0; a < count; ++a) {
        std::swap(pick[a], pick[a + rng() % (kObjects - a)]);
        const AccessMode mode = static_cast<AccessMode>(rng() % 3);
        objectOf_.push_back(pick[a]);
        accesses_.push_back(Access{&objects_[pick[a]], mode});
      }
      first_.push_back(static_cast<std::uint32_t>(accesses_.size()));
      children_.push_back(rng() % 4 == 0 ? 1 + rng() % 2 : 0);
    }
    std::uint32_t slot = kTopTasks;
    for (std::size_t t = 0; t < kTopTasks; ++t) {
      childSlot_.push_back(slot);
      slot += children_[t];
    }
    ran_ = std::make_unique<std::atomic<std::uint8_t>[]>(slot);
    numSlots_ = slot;

    std::vector<std::uint32_t> version(kObjects, 0);
    for (std::size_t a = 0; a < accesses_.size(); ++a) {
      expect_.push_back(version[objectOf_[a]]);
      if (!accesses_[a].isRead()) ++version[objectOf_[a]];
    }
    finalVersion_ = std::move(version);
  }

  /// Spawn the whole graph on `rt` from the calling (spawner) thread.
  /// The caller waits.
  void spawnAll(Runtime& rt) {
    for (std::size_t o = 0; o < kObjects; ++o)
      objects_[o].store(0, std::memory_order_relaxed);
    for (std::size_t s = 0; s < numSlots_; ++s)
      ran_[s].store(0, std::memory_order_relaxed);
    mismatches_.store(0, std::memory_order_relaxed);
    childSpawns_.store(0, std::memory_order_relaxed);
    rt_ = &rt;
    for (std::size_t t = 0; t < kTopTasks; ++t) {
      const std::span<const Access> accesses(accesses_.data() + first_[t],
                                             first_[t + 1] - first_[t]);
      if (t % 3 == 0) {
        SpilledBody spilled{this, t, {}};
        spilled.canary.fill(canaryOf(t));
        rt.spawn(accesses, spilled);
      } else {
        rt.spawn(accesses, [this, t] { body(t); });
      }
    }
  }

  /// Top-level tasks plus the children their bodies spawned.
  std::uint64_t spawned() const {
    return kTopTasks + childSpawns_.load(std::memory_order_relaxed);
  }

  /// Bodies that ran (top-level and children).
  std::uint64_t executed() const {
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < numSlots_; ++s)
      sum += ran_[s].load(std::memory_order_relaxed);
    return sum;
  }

  /// Empty when the run matched serial program order exactly; otherwise
  /// the first discrepancy.
  std::string verify() const {
    if (const std::uint64_t m = mismatches_.load(std::memory_order_relaxed))
      return std::to_string(m) + " accesses saw the wrong version";
    for (std::size_t s = 0; s < numSlots_; ++s) {
      if (ran_[s].load(std::memory_order_relaxed) != 1)
        return "task slot " + std::to_string(s) + " ran " +
               std::to_string(ran_[s].load()) + " times";
    }
    for (std::size_t o = 0; o < kObjects; ++o) {
      if (objects_[o].load(std::memory_order_relaxed) != finalVersion_[o])
        return "object " + std::to_string(o) + " ended at version " +
               std::to_string(objects_[o].load()) + ", expected " +
               std::to_string(finalVersion_[o]);
    }
    return {};
  }

 private:
  static constexpr std::uint64_t canaryOf(std::size_t t) {
    return 0x9e3779b97f4a7c15ULL ^ t;
  }

  /// A capture set too large for the descriptor's inline buffer; the
  /// canary proves the spilled copy reached the body intact.
  struct SpilledBody {
    DagFuzz* self;
    std::size_t t;
    std::array<std::uint64_t, 6> canary;
    void operator()() const {
      for (std::uint64_t c : canary) {
        if (c != canaryOf(t))
          self->mismatches_.fetch_add(1, std::memory_order_relaxed);
      }
      self->body(t);
    }
  };
  static_assert(sizeof(SpilledBody) > Task::kInlineClosureBytes);

  void body(std::size_t t) {
    // Relaxed is enough: dependency order is what must make these reads
    // see the right version, and that is what is under test.
    for (std::uint32_t a = first_[t]; a < first_[t + 1]; ++a) {
      std::atomic<std::uint32_t>& version = objects_[objectOf_[a]];
      const std::uint32_t seen = version.load(std::memory_order_relaxed);
      if (seen != expect_[a])
        mismatches_.fetch_add(1, std::memory_order_relaxed);
      if (!accesses_[a].isRead())
        version.store(seen + 1, std::memory_order_relaxed);
    }
    for (std::uint32_t c = 0; c < children_[t]; ++c) {
      const std::size_t slot = childSlot_[t] + c;
      childSpawns_.fetch_add(1, std::memory_order_relaxed);
      rt_->spawn(std::span<const Access>{}, [this, slot] { markRan(slot); });
    }
    markRan(t);
  }

  void markRan(std::size_t slot) {
    // One writer per slot; load+store (not an RMW) still counts a rerun.
    ran_[slot].store(ran_[slot].load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }

  std::vector<std::atomic<std::uint32_t>> objects_;
  std::vector<Access> accesses_;          ///< all tasks', program order
  std::vector<std::uint32_t> objectOf_;   ///< per access
  std::vector<std::uint32_t> expect_;     ///< per access: oracle version
  std::vector<std::uint32_t> first_;      ///< per task: first access
  std::vector<std::uint32_t> children_;   ///< per task
  std::vector<std::uint32_t> childSlot_;  ///< per task: first child slot
  std::vector<std::uint32_t> finalVersion_;  ///< per object
  std::unique_ptr<std::atomic<std::uint8_t>[]> ran_;  ///< per task slot
  std::size_t numSlots_ = 0;
  std::atomic<std::uint64_t> mismatches_{0};
  std::atomic<std::uint64_t> childSpawns_{0};
  Runtime* rt_ = nullptr;
};

/// The fixed seeds, or the single `ATS_FUZZ_SEED` to replay.
std::vector<std::uint64_t> fuzzSeeds() {
  const std::string replay = envString("ATS_FUZZ_SEED", "");
  if (!replay.empty()) return {std::stoull(replay)};
  return {1, 2, 3, 4, 5, 6};
}

/// NumaFifo runs on the Rome preset shrunk to 4 CPUs — four one-CPU
/// domains — so its per-domain queues, the per-waiter serve view and
/// the cross-domain fallback all face serial program order.  On the
/// one-domain host shape it would be one global FIFO.
RuntimeConfig fuzzConfig(DepsKind deps, SchedulerKind sched, bool usePool,
                         PolicyKind policy = PolicyKind::Fifo) {
  const MachinePreset preset = policy == PolicyKind::NumaFifo
                                   ? MachinePreset::Rome
                                   : MachinePreset::Host;
  RuntimeConfig config = optimizedConfig(makeTopology(preset, 4));
  config.deps = deps;
  config.scheduler = sched;
  config.usePoolAllocator = usePool;
  config.policy = policy;
  return config;
}

/// Disarms a failpoint on scope exit, so a failed assertion cannot leave
/// it armed for the next test in the same process.
struct ArmedFailpoint {
  const char* name;
  ArmedFailpoint(const char* site, FailpointMode mode, double prob,
                 std::uint64_t count, std::uint64_t delayUs = 0)
      : name(site) {
    FailpointRegistry::instance().arm(site, mode, prob, count, delayUs);
  }
  ~ArmedFailpoint() { FailpointRegistry::instance().disarm(name); }
  ArmedFailpoint(const ArmedFailpoint&) = delete;
  ArmedFailpoint& operator=(const ArmedFailpoint&) = delete;
};

using Matrix = std::tuple<DepsKind, SchedulerKind, bool, PolicyKind>;

class DagFuzzMatrixTest : public ::testing::TestWithParam<Matrix> {};

/// Every combination, except the work-stealing scheduler with a policy
/// other than the default: it has no policy, so those would rerun the
/// same configuration.
std::vector<Matrix> fuzzMatrix() {
  std::vector<Matrix> matrix;
  for (const DepsKind deps :
       {DepsKind::WaitFreeAsm, DepsKind::FineGrainedLocks})
    for (const SchedulerKind sched :
         {SchedulerKind::SyncDelegation, SchedulerKind::PTLockCentral,
          SchedulerKind::CentralMutex, SchedulerKind::WorkStealing})
      for (const bool usePool : {false, true})
        for (const PolicyKind policy :
             {PolicyKind::Fifo, PolicyKind::Lifo, PolicyKind::NumaFifo})
          if (policy == PolicyKind::Fifo ||
              sched != SchedulerKind::WorkStealing)
            matrix.emplace_back(deps, sched, usePool, policy);
  return matrix;
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, DagFuzzMatrixTest, ::testing::ValuesIn(fuzzMatrix()),
    [](const auto& info) {
      // The default Fifo policy keeps the name it had before the policy
      // dimension existed.
      const PolicyKind policy = std::get<3>(info.param);
      std::string name = std::get<0>(info.param) == DepsKind::WaitFreeAsm
                             ? "WaitFreeAsm"
                             : "FineGrainedLocks";
      name += '_';
      name += schedulerKindName(std::get<1>(info.param));
      name += std::get<2>(info.param) ? "_PoolAlloc" : "_SystemAlloc";
      if (policy != PolicyKind::Fifo) {
        name += '_';
        name += policyKindName(policy);
      }
      return name;
    });

// Every seed's graph on one runtime, so later graphs also run on
// recycled descriptors and reset chains.
TEST_P(DagFuzzMatrixTest, MatchesSerialProgramOrder) {
  const auto [deps, sched, usePool, policy] = GetParam();
  Runtime rt(fuzzConfig(deps, sched, usePool, policy));
  for (const std::uint64_t seed : fuzzSeeds()) {
    DagFuzz graph(seed);
    graph.spawnAll(rt);
    rt.taskwait();
    ASSERT_EQ(graph.verify(), "") << "replay with ATS_FUZZ_SEED=" << seed;
    EXPECT_EQ(rt.liveDescriptors(), 0u) << "seed " << seed;
  }
}

// Delays at body start and inside the delegation holder's serve stretch
// the interleavings the hand-off and the DTLock see; order must hold.
TEST(DagFuzzTest, DelayedInvokeAndServeKeepSerialOrder) {
  const ArmedFailpoint invoke("task_invoke", FailpointMode::DelayUs, 0.05,
                              0, 20);
  const ArmedFailpoint serve("serve_batch", FailpointMode::DelayUs, 0.05, 0,
                             20);
  Runtime rt(fuzzConfig(DepsKind::WaitFreeAsm, SchedulerKind::SyncDelegation,
                        true));
  for (const std::uint64_t seed : fuzzSeeds()) {
    DagFuzz graph(seed);
    graph.spawnAll(rt);
    rt.taskwait();
    ASSERT_EQ(graph.verify(), "") << "replay with ATS_FUZZ_SEED=" << seed;
    EXPECT_EQ(rt.liveDescriptors(), 0u) << "seed " << seed;
  }
}

// One injected body failure per graph, at a seed-dependent point: the
// graph drains, and every spawned task is accounted for exactly once as
// executed, failed or skipped.
TEST(DagFuzzTest, ThrowingInvokeConservesEveryTask) {
  Runtime rt(fuzzConfig(DepsKind::WaitFreeAsm, SchedulerKind::SyncDelegation,
                        true));
  for (const std::uint64_t seed : fuzzSeeds()) {
    const std::uint64_t failedBefore = rt.tasksFailed();
    const std::uint64_t skippedBefore = rt.tasksSkipped();
    DagFuzz graph(seed);
    {
      const ArmedFailpoint invoke("task_invoke", FailpointMode::Throw, 0.02,
                                  1);
      graph.spawnAll(rt);
      rt.taskwait();
    }
    const std::uint64_t failed = rt.tasksFailed() - failedBefore;
    const std::uint64_t skipped = rt.tasksSkipped() - skippedBefore;
    EXPECT_LE(failed, 1u) << "seed " << seed;
    EXPECT_EQ(graph.executed() + failed + skipped, graph.spawned())
        << "replay with ATS_FUZZ_SEED=" << seed;
    EXPECT_EQ(rt.liveDescriptors(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ats
