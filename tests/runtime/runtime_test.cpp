#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "instr/tracer.hpp"
#include "memory/pool_allocator.hpp"

namespace ats {
namespace {

RuntimeConfig testConfig(DepsKind deps, SchedulerKind sched,
                         std::size_t workers, bool usePool = true) {
  RuntimeConfig config = optimizedConfig(
      makeTopology(MachinePreset::Host, workers));
  config.deps = deps;
  config.scheduler = sched;
  config.usePoolAllocator = usePool;
  return config;
}

std::string kindName(DepsKind kind) {
  return kind == DepsKind::WaitFreeAsm ? "WaitFreeAsm" : "FineGrainedLocks";
}

std::string schedName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::CentralMutex: return "CentralMutex";
    case SchedulerKind::PTLockCentral: return "PTLockCentral";
    case SchedulerKind::SyncDelegation: return "SyncDelegation";
    case SchedulerKind::WorkStealing: return "WorkStealing";
  }
  return "unknown";
}

using Matrix = std::tuple<DepsKind, SchedulerKind, bool>;

/// The full deps x scheduler x allocator matrix under 8 worker threads —
/// the ISSUE's conservation shape, run under the same TSan job as
/// everything else.  The allocator dimension reruns every shape with
/// `usePoolAllocator` on and off, so both §4 paths keep the exactly-once
/// and ordering contracts.
class RuntimeMatrixTest : public ::testing::TestWithParam<Matrix> {};

INSTANTIATE_TEST_SUITE_P(
    Configs, RuntimeMatrixTest,
    ::testing::Combine(::testing::Values(DepsKind::WaitFreeAsm,
                                         DepsKind::FineGrainedLocks),
                       ::testing::Values(SchedulerKind::SyncDelegation,
                                         SchedulerKind::PTLockCentral,
                                         SchedulerKind::CentralMutex,
                                         SchedulerKind::WorkStealing),
                       ::testing::Bool()),
    [](const auto& info) {
      return kindName(std::get<0>(info.param)) + "_" +
             schedName(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_PoolAlloc" : "_SystemAlloc");
    });

TEST_P(RuntimeMatrixTest, SpawnTaskwaitConservesEveryTaskExactlyOnce) {
  constexpr int kTasks = 2000;
  const auto [deps, sched, usePool] = GetParam();
  Runtime rt(testConfig(deps, sched, 8, usePool));

  // Two batches through the same runtime so the second one exercises
  // descriptor recycling and dependency-chain reset.
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<std::atomic<int>> ran(kTasks);
    std::atomic<int> total{0};
    for (int i = 0; i < kTasks; ++i) {
      rt.spawn({}, [&ran, &total, i] {
        ran[static_cast<std::size_t>(i)].fetch_add(
            1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
    rt.taskwait();
    EXPECT_EQ(total.load(), kTasks) << "batch " << batch;
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_EQ(ran[static_cast<std::size_t>(i)].load(), 1)
          << "task " << i << " in batch " << batch
          << " ran zero or multiple times";
    }
  }
}

TEST_P(RuntimeMatrixTest, InoutChainObservesStrictlyIncreasingValues) {
  constexpr int kLinks = 300;
  const auto [deps, sched, usePool] = GetParam();
  Runtime rt(testConfig(deps, sched, 8, usePool));

  // The counter is deliberately NOT atomic: only a correct inout chain
  // makes these bodies mutually exclusive and ordered, and TSan will
  // flag any overlap the dependency system lets through.
  long long counter = 0;
  std::vector<long long> observed(kLinks, -1);
  for (int i = 0; i < kLinks; ++i) {
    rt.spawn({inout(counter)}, [&counter, &observed, i] {
      observed[static_cast<std::size_t>(i)] = counter;
      ++counter;
    });
  }
  rt.taskwait();

  EXPECT_EQ(counter, kLinks);
  for (int i = 0; i < kLinks; ++i) {
    ASSERT_EQ(observed[static_cast<std::size_t>(i)], i)
        << "chain link " << i << " ran out of order";
  }
}

TEST_P(RuntimeMatrixTest, ReadFanNeverObservesTornWriter) {
  constexpr int kRounds = 40;
  constexpr int kReadersPerRound = 8;
  const auto [deps, sched, usePool] = GetParam();
  Runtime rt(testConfig(deps, sched, 8, usePool));

  // The writer bumps both halves non-atomically; a reader overlapping
  // the writer (or another round's readers overlapping a later writer)
  // sees a != b — and TSan sees a plain-memory race.
  struct Pair {
    long long a = 0;
    long long b = 0;
  } pair;
  std::atomic<int> torn{0};
  std::atomic<int> reads{0};
  for (int round = 0; round < kRounds; ++round) {
    rt.spawn({inout(pair)}, [&pair] {
      ++pair.a;
      ++pair.b;
    });
    for (int r = 0; r < kReadersPerRound; ++r) {
      rt.spawn({in(pair)}, [&pair, &torn, &reads] {
        if (pair.a != pair.b) torn.fetch_add(1, std::memory_order_relaxed);
        reads.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  rt.taskwait();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(reads.load(), kRounds * kReadersPerRound);
  EXPECT_EQ(pair.a, kRounds);
  EXPECT_EQ(pair.b, kRounds);
}

/// Quiescence when tasks spawn tasks: taskwait sums the per-slot retired
/// counters before the spawned ones, and a body's spawns are counted on
/// the body's own slot before its retirement is published.  Each batch
/// is a spawn tree whose bodies spawn their children, so taskwait must
/// see through every level, on every scheduler x deps pairing.  The same
/// matrix covers tasks that wait in a thread's successor slot instead of
/// the scheduler.
class QuiescenceMatrixTest
    : public ::testing::TestWithParam<std::tuple<DepsKind, SchedulerKind>> {};

INSTANTIATE_TEST_SUITE_P(
    Configs, QuiescenceMatrixTest,
    ::testing::Combine(::testing::Values(DepsKind::WaitFreeAsm,
                                         DepsKind::FineGrainedLocks),
                       ::testing::Values(SchedulerKind::SyncDelegation,
                                         SchedulerKind::PTLockCentral,
                                         SchedulerKind::CentralMutex,
                                         SchedulerKind::WorkStealing)),
    [](const auto& info) {
      return kindName(std::get<0>(info.param)) + "_" +
             schedName(std::get<1>(info.param));
    });

TEST_P(QuiescenceMatrixTest, NestedSpawnTreeFinishesBeforeTaskwaitReturns) {
  // Depth 6, fan-out 3, heap-numbered: node i's children are 3i+1..3i+3.
  constexpr std::size_t kFanOut = 3;
  constexpr std::size_t kNodes = (729 * 3 - 1) / 2;  // 1 + 3 + ... + 3^6
  constexpr int kBatches = 12;
  struct Tree {
    Runtime& rt;
    std::vector<std::atomic<int>> ran;
    std::vector<long long> value;  // each node's own `out` object
    std::atomic<std::size_t> done{0};
    std::atomic<bool> returned{false};  // set once taskwait came back
    std::atomic<int> late{0};

    explicit Tree(Runtime& runtime)
        : rt(runtime), ran(kNodes), value(kNodes, -1) {}

    void spawnNode(std::size_t node) {
      rt.spawn({out(value[node])}, [this, node] { visit(node); });
    }

    void visit(std::size_t node) {
      if (returned.load(std::memory_order_acquire))
        late.fetch_add(1, std::memory_order_relaxed);
      ran[node].fetch_add(1, std::memory_order_relaxed);
      value[node] = static_cast<long long>(node);
      for (std::size_t c = kFanOut * node + 1;
           c <= kFanOut * node + kFanOut && c < kNodes; ++c) {
        spawnNode(c);
      }
      done.fetch_add(1, std::memory_order_release);
    }
  };

  // Every tree outlives the runtime, so a body that (wrongly) ran after
  // its taskwait returned is caught by `late`, not by a use-after-free.
  std::vector<std::unique_ptr<Tree>> trees;
  const auto [deps, sched] = GetParam();
  Runtime rt(testConfig(deps, sched, 4));
  for (int batch = 0; batch < kBatches; ++batch) {
    trees.push_back(std::make_unique<Tree>(rt));
    Tree& tree = *trees.back();
    const std::uint64_t retiredBefore = rt.tasksRetired();
    tree.spawnNode(0);
    rt.taskwait();
    tree.returned.store(true, std::memory_order_release);

    ASSERT_EQ(tree.done.load(std::memory_order_acquire), kNodes)
        << "taskwait returned with bodies unfinished in batch " << batch;
    for (std::size_t i = 0; i < kNodes; ++i) {
      ASSERT_EQ(tree.ran[i].load(), 1) << "node " << i << ", batch " << batch;
      ASSERT_EQ(tree.value[i], static_cast<long long>(i));
    }
    EXPECT_EQ(rt.tasksRetired() - retiredBefore, kNodes);
    EXPECT_EQ(rt.liveDescriptors(), 0u);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (const auto& tree : trees) {
    EXPECT_EQ(tree->late.load(), 0) << "a body ran after taskwait returned";
    EXPECT_EQ(tree->done.load(), kNodes);
  }
}

/// Immediate successor hand-off: an inout chain whose head is held
/// until the spawner has registered every link, so each successor is
/// readied by its predecessor's release, never at spawn.  Every one of
/// them must then bypass the scheduler and run on the releasing thread.
TEST_P(QuiescenceMatrixTest, EveryChainSuccessorIsHandedOff) {
  constexpr int kLinks = 512;
  const auto [deps, sched] = GetParam();
  Runtime rt(testConfig(deps, sched, 4));

  std::atomic<bool> registered{false};
  long long counter = 0;  // non-atomic: only the chain orders the bodies
  std::vector<long long> observed(kLinks, -1);
  rt.spawn({inout(counter)}, [&registered, &counter, &observed] {
    while (!registered.load(std::memory_order_acquire))
      std::this_thread::yield();
    observed[0] = counter++;
  });
  for (int i = 1; i < kLinks; ++i) {
    rt.spawn({inout(counter)}, [&counter, &observed, i] {
      observed[static_cast<std::size_t>(i)] = counter++;
    });
  }
  const std::uint64_t handedOffBefore = rt.tasksHandedOff();
  registered.store(true, std::memory_order_release);
  rt.taskwait();

  EXPECT_EQ(counter, kLinks);
  for (int i = 0; i < kLinks; ++i)
    ASSERT_EQ(observed[static_cast<std::size_t>(i)], i) << "link " << i;
  EXPECT_EQ(rt.tasksHandedOff() - handedOffBefore,
            static_cast<std::uint64_t>(kLinks - 1));
  EXPECT_EQ(rt.liveDescriptors(), 0u);
}

/// The same held chain, cancelled from inside link kCancelAt: the links
/// after it still arrive through the hand-off, and each must be skipped
/// at its start rather than run, and counted as skipped.
TEST_P(QuiescenceMatrixTest, CancelSkipsHandedOffSuccessors) {
  constexpr int kLinks = 512;
  constexpr int kCancelAt = 100;
  const auto [deps, sched] = GetParam();
  Runtime rt(testConfig(deps, sched, 4));

  std::atomic<bool> registered{false};
  long long counter = 0;
  rt.spawn({inout(counter)}, [&registered, &counter] {
    while (!registered.load(std::memory_order_acquire))
      std::this_thread::yield();
    ++counter;
  });
  for (int i = 1; i < kLinks; ++i) {
    rt.spawn({inout(counter)}, [&rt, &counter, i] {
      ++counter;
      if (i == kCancelAt) rt.cancel();
    });
  }
  const std::uint64_t handedOffBefore = rt.tasksHandedOff();
  const std::uint64_t skippedBefore = rt.tasksSkipped();
  registered.store(true, std::memory_order_release);
  EXPECT_NO_THROW(rt.taskwaitChecked());

  EXPECT_EQ(counter, kCancelAt + 1) << "a link after the cancel ran";
  EXPECT_EQ(rt.tasksSkipped() - skippedBefore,
            static_cast<std::uint64_t>(kLinks - kCancelAt - 1));
  EXPECT_EQ(rt.tasksHandedOff() - handedOffBefore,
            static_cast<std::uint64_t>(kLinks - 1));
  EXPECT_EQ(rt.liveDescriptors(), 0u);
}

/// A ready-queue policy as a test parameter.  gtest prints it by name, so
/// the discovered tests read `.../fifo` rather than a byte dump.
struct Policy {
  PolicyKind kind;
  friend void PrintTo(const Policy& policy, std::ostream* os) {
    *os << policyKindName(policy.kind);
  }
};

/// Every PolicyKind on the optimized SyncDelegation/WaitFreeAsm runtime
/// under 8 workers.  The conservation and ordering laws must be
/// policy-independent.
class SchedTuningMatrixTest : public ::testing::TestWithParam<Policy> {};

INSTANTIATE_TEST_SUITE_P(Knobs, SchedTuningMatrixTest,
                         ::testing::Values(Policy{PolicyKind::Fifo},
                                           Policy{PolicyKind::Lifo},
                                           Policy{PolicyKind::NumaFifo}));

TEST_P(SchedTuningMatrixTest, SpawnTaskwaitConservesEveryTaskExactlyOnce) {
  constexpr int kTasks = 2000;
  RuntimeConfig config =
      testConfig(DepsKind::WaitFreeAsm, SchedulerKind::SyncDelegation, 8);
  config.policy = GetParam().kind;
  // Small buffers so the overflow help-drain path runs under every policy.
  config.spscCapacity = 32;
  Runtime rt(config);

  std::vector<std::atomic<int>> ran(kTasks);
  std::atomic<int> total{0};
  for (int i = 0; i < kTasks; ++i) {
    rt.spawn({}, [&ran, &total, i] {
      ran[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  rt.taskwait();
  EXPECT_EQ(total.load(), kTasks);
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(ran[static_cast<std::size_t>(i)].load(), 1)
        << "task " << i << " ran zero or multiple times";
  }
}

TEST_P(SchedTuningMatrixTest, InoutChainStaysStrictlyOrdered) {
  constexpr int kLinks = 300;
  RuntimeConfig config =
      testConfig(DepsKind::WaitFreeAsm, SchedulerKind::SyncDelegation, 8);
  config.policy = GetParam().kind;
  Runtime rt(config);

  // Dependency order must override ANY ready-queue policy: the chain
  // admits one ready task at a time, so even LIFO cannot reorder it —
  // and TSan would flag overlap if a policy handed a task out twice.
  long long counter = 0;
  std::vector<long long> observed(kLinks, -1);
  for (int i = 0; i < kLinks; ++i) {
    rt.spawn({inout(counter)}, [&counter, &observed, i] {
      observed[static_cast<std::size_t>(i)] = counter;
      ++counter;
    });
  }
  rt.taskwait();

  EXPECT_EQ(counter, kLinks);
  for (int i = 0; i < kLinks; ++i) {
    ASSERT_EQ(observed[static_cast<std::size_t>(i)], i)
        << "chain link " << i << " ran out of order";
  }
}

/// The Rome preset (8 domains at full width, several at 8 workers)
/// crossed with a plain-vs-NUMA policy, so the waiter-grouped serve keeps
/// the conservation and ordering laws on a genuinely multi-domain map.
class NumaMatrixTest : public ::testing::TestWithParam<Policy> {};

INSTANTIATE_TEST_SUITE_P(Knobs, NumaMatrixTest,
                         ::testing::Values(Policy{PolicyKind::Fifo},
                                           Policy{PolicyKind::NumaFifo}));

TEST_P(NumaMatrixTest, SpawnTaskwaitConservesEveryTaskExactlyOnce) {
  constexpr int kTasks = 2000;
  RuntimeConfig config = makeRomeConfig(8);
  config.policy = GetParam().kind;
  // Small buffers so the domain-sharded overflow drain runs constantly.
  config.spscCapacity = 32;
  Runtime rt(config);

  // Two batches so the second exercises descriptor recycling through the
  // domain-sharded pool depots too.
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<std::atomic<int>> ran(kTasks);
    std::atomic<int> total{0};
    for (int i = 0; i < kTasks; ++i) {
      rt.spawn({}, [&ran, &total, i] {
        ran[static_cast<std::size_t>(i)].fetch_add(
            1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
    rt.taskwait();
    EXPECT_EQ(total.load(), kTasks) << "batch " << batch;
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_EQ(ran[static_cast<std::size_t>(i)].load(), 1)
          << "task " << i << " in batch " << batch
          << " ran zero or multiple times";
    }
  }
}

TEST_P(NumaMatrixTest, InoutChainStaysStrictlyOrdered) {
  constexpr int kLinks = 300;
  RuntimeConfig config = makeRomeConfig(8);
  config.policy = GetParam().kind;
  Runtime rt(config);

  // Dependency order must survive the domain-grouped serve: a group
  // being answered from its own domain's view must never let a link
  // start before its predecessor's release publishes the chain.
  long long counter = 0;
  std::vector<long long> observed(kLinks, -1);
  for (int i = 0; i < kLinks; ++i) {
    rt.spawn({inout(counter)}, [&counter, &observed, i] {
      observed[static_cast<std::size_t>(i)] = counter;
      ++counter;
    });
  }
  rt.taskwait();

  EXPECT_EQ(counter, kLinks);
  for (int i = 0; i < kLinks; ++i) {
    ASSERT_EQ(observed[static_cast<std::size_t>(i)], i)
        << "chain link " << i << " ran out of order";
  }
}

/// Non-matrix runtime behaviors, default (optimized) configuration.
TEST(RuntimeTest, LargeClosureSpillsToHeapAndStillRuns) {
  Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 2)));
  std::array<long long, 32> payload{};  // 256 bytes: > inline capacity
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<long long>(i);
  static_assert(sizeof(payload) > Task::kInlineClosureBytes);

  long long sum = 0;
  rt.spawn({out(sum)}, [payload, &sum] {
    for (long long v : payload) sum += v;
  });
  rt.taskwait();
  EXPECT_EQ(sum, 31 * 32 / 2);
}

/// A capture aligned past Allocator::kAlignment cannot live in the
/// descriptor or the pool, so installClosure spills it through aligned
/// operator new on either allocator setting.
TEST(RuntimeTest, OverAlignedClosureSpillRunsAndDestroysOnce) {
  struct Counts {
    std::atomic<int> runs{0};
    std::atomic<int> misaligned{0};
    std::atomic<int> destroyed{0};
  };
  struct alignas(64) Capture {
    Counts* counts;
    void operator()() const {
      counts->runs.fetch_add(1);
      if (reinterpret_cast<std::uintptr_t>(this) % 64 != 0)
        counts->misaligned.fetch_add(1);
    }
    ~Capture() { counts->destroyed.fetch_add(1); }
  };
  static_assert(alignof(Capture) > Allocator::kAlignment);

  for (bool usePool : {true, false}) {
    SCOPED_TRACE(usePool ? "pool allocator" : "system allocator");
    Counts counts;
    Runtime rt(testConfig(DepsKind::WaitFreeAsm,
                          SchedulerKind::SyncDelegation, 2, usePool));
    const Capture capture{&counts};
    rt.spawn({}, capture);  // copied into the spill; ours outlives it
    rt.taskwait();
    EXPECT_EQ(counts.runs.load(), 1);
    EXPECT_EQ(counts.misaligned.load(), 0);
    EXPECT_EQ(counts.destroyed.load(), 1);
    EXPECT_EQ(rt.liveDescriptors(), 0u);
  }
}

TEST(RuntimeTest, TaskwaitWithNothingSpawnedIsANoOp) {
  Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 2)));
  rt.taskwait();
  rt.taskwait();
}

TEST(RuntimeTest, MixedObjectsRespectCrossObjectJoin) {
  Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 4)));
  long long x = 0, y = 0, joined = -1;
  rt.spawn({out(x)}, [&x] { x = 21; });
  rt.spawn({out(y)}, [&y] { y = 21; });
  rt.spawn({in(x), in(y), out(joined)},
           [&x, &y, &joined] { joined = x + y; });
  rt.taskwait();
  EXPECT_EQ(joined, 42);
}

/// §4 eager reclamation: a spawn-heavy dependency chain with NO taskwait
/// must keep live descriptor memory bounded by the in-flight window —
/// completed descriptors go back to the allocator as soon as the chains
/// can no longer reach them, not at the next quiescent point.  Run for
/// both allocator settings (the refcount protocol is allocator-agnostic).
class EagerReclamationTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Allocators, EagerReclamationTest,
                         ::testing::Bool(), [](const auto& info) {
                           return info.param ? std::string("PoolAlloc")
                                             : std::string("SystemAlloc");
                         });

TEST_P(EagerReclamationTest, NoTaskwaitChainKeepsDescriptorsBounded) {
  constexpr int kWaves = 25;
  constexpr int kTasksPerWave = 400;
  // Post-wave settle target: the final write of the chain stays pinned
  // by the deps layer's lastWrite reference, and a straggler can still
  // be inside its completion path — anything beyond a handful means
  // completed descriptors are accumulating like the old slab did.
  constexpr std::size_t kSettledBound = 4;

  Runtime rt(testConfig(DepsKind::WaitFreeAsm,
                        SchedulerKind::SyncDelegation, 4, GetParam()));
  long long x = 0;
  std::atomic<int> done{0};
  for (int wave = 0; wave < kWaves; ++wave) {
    for (int i = 0; i < kTasksPerWave; ++i) {
      rt.spawn({inout(x)}, [&x, &done] {
        ++x;
        done.fetch_add(1, std::memory_order_release);
      });
    }
    // Wait for the wave to finish WITHOUT a taskwait, then for the
    // reclamation drops (which trail the done counter) to settle.
    const int target = (wave + 1) * kTasksPerWave;
    while (done.load(std::memory_order_acquire) < target)
      std::this_thread::yield();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (rt.liveDescriptors() > kSettledBound &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    ASSERT_LE(rt.liveDescriptors(), kSettledBound)
        << "wave " << wave << ": completed descriptors are not being "
        << "reclaimed eagerly";
  }

  rt.taskwait();
  EXPECT_EQ(x, kWaves * kTasksPerWave);
  EXPECT_EQ(rt.liveDescriptors(), 0u)
      << "taskwait quiescence left descriptors live";
}

// One cache line per access node, a line-aligned descriptor, and the
// descriptor's pool class: the layout the deps and pool layers rely on.
static_assert(sizeof(AccessNode) == 64 && alignof(AccessNode) == 64);
static_assert(alignof(Task) == 64);
static_assert(sizeof(Task) <= 704);

/// Every descriptor either allocator hands the runtime starts on a
/// cache line.  The traced TaskStart payload is the descriptor address,
/// so the check covers the runtime's own allocations, not a replica.
class DescriptorLayoutTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Allocators, DescriptorLayoutTest,
                         ::testing::Bool(), [](const auto& info) {
                           return info.param ? std::string("PoolAlloc")
                                             : std::string("SystemAlloc");
                         });

TEST_P(DescriptorLayoutTest, EveryDescriptorStartsOnACacheLine) {
  EXPECT_LE(PoolAllocator::blockSizeFor(sizeof(Task)), 768u);

  constexpr std::size_t kWorkers = 3;
  constexpr int kTasks = 2000;
  Tracer tracer(kWorkers, 1u << 14);
  RuntimeConfig config = testConfig(DepsKind::WaitFreeAsm,
                                    SchedulerKind::SyncDelegation, kWorkers,
                                    GetParam());
  config.tracer = &tracer;
  {
    Runtime rt(config);
    std::array<long long, 16> objs{};
    for (int i = 0; i < kTasks; ++i) {
      long long& obj = objs[static_cast<std::size_t>(i) % objs.size()];
      rt.spawn({inout(obj)}, [&obj] { ++obj; });
    }
    rt.taskwait();
  }

  std::size_t starts = 0;
  for (const TraceRecord& record : tracer.collect()) {
    if (record.event != TraceEvent::TaskStart) continue;
    ++starts;
    EXPECT_EQ(record.payload % 64, 0u)
        << "descriptor at " << record.payload << " is not line-aligned";
  }
  EXPECT_EQ(starts, static_cast<std::size_t>(kTasks));
}

/// The per-machine §6.1 configs must agree on every default except the
/// topology, and both allocator settings must produce a working runtime
/// (the usePoolAllocator knob was silently ignored before the §4 layer).
TEST(RuntimeConfigTest, MachinePresetConfigsShareConsistentDefaults) {
  const RuntimeConfig xeon = makeXeonConfig();
  const RuntimeConfig rome = makeRomeConfig();
  const RuntimeConfig graviton = makeGravitonConfig();
  const RuntimeConfig reference =
      optimizedConfig(makeTopology(MachinePreset::Host));

  for (const RuntimeConfig* config : {&xeon, &rome, &graviton}) {
    EXPECT_EQ(config->scheduler, reference.scheduler);
    EXPECT_EQ(config->deps, reference.deps);
    EXPECT_EQ(config->usePoolAllocator, reference.usePoolAllocator);
    EXPECT_EQ(config->policy, reference.policy);
    EXPECT_EQ(config->spscCapacity, reference.spscCapacity);
    EXPECT_EQ(config->tracer, reference.tracer);  // factories never attach one
  }
  EXPECT_EQ(reference.policy, PolicyKind::Fifo);
  EXPECT_EQ(xeon.topo.preset, MachinePreset::Xeon);
  EXPECT_EQ(rome.topo.preset, MachinePreset::Rome);
  EXPECT_EQ(graviton.topo.preset, MachinePreset::Graviton);
}

TEST(RuntimeConfigTest, BothAllocatorSettingsProduceAWorkingRuntime) {
  for (const bool usePool : {true, false}) {
    RuntimeConfig config = makeXeonConfig(2);  // 2 workers on CI hosts
    config.usePoolAllocator = usePool;
    Runtime rt(config);
    EXPECT_STREQ(rt.allocator().name(), usePool ? "pool" : "system");
    std::atomic<int> hits{0};
    for (int i = 0; i < 200; ++i) {
      rt.spawn({}, [&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
    }
    rt.taskwait();
    EXPECT_EQ(hits.load(), 200);
  }
}

TEST(RuntimeTest, SpanSpawnOrdersVariableArityAccessLists) {
  // The apps layer's halo idiom: arity decided at run time (boundary
  // blocks drop a neighbor), accesses passed through the span overload.
  // A double-buffered 1D stencil's cross-step ordering only holds if the
  // span-registered accesses carry the same dependency semantics as the
  // braced-list overload.
  constexpr std::size_t kBlocks = 8;
  constexpr int kSteps = 20;
  Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 4)));
  std::vector<long long> bufA(kBlocks, 0), bufB(kBlocks, 0);
  std::vector<long long>* src = &bufA;
  std::vector<long long>* dst = &bufB;
  for (int t = 0; t < kSteps; ++t) {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::array<Access, 4> acc;
      std::size_t na = 0;
      if (b > 0) acc[na++] = in((*src)[b - 1]);
      acc[na++] = in((*src)[b]);
      if (b + 1 < kBlocks) acc[na++] = in((*src)[b + 1]);
      acc[na++] = out((*dst)[b]);
      rt.spawn(std::span<const Access>(acc.data(), na), [src, dst, b] {
        const long long left = b > 0 ? (*src)[b - 1] : 0;
        const long long right = b + 1 < kBlocks ? (*src)[b + 1] : 0;
        (*dst)[b] = (*src)[b] + left + right + 1;
      });
    }
    std::swap(src, dst);
  }
  rt.taskwait();

  // Serial replay must agree exactly (TSan additionally proves the span
  // accesses made the parallel version race-free).
  std::vector<long long> refA(kBlocks, 0), refB(kBlocks, 0);
  std::vector<long long>*rs = &refA, *rd = &refB;
  for (int t = 0; t < kSteps; ++t) {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const long long left = b > 0 ? (*rs)[b - 1] : 0;
      const long long right = b + 1 < kBlocks ? (*rs)[b + 1] : 0;
      (*rd)[b] = (*rs)[b] + left + right + 1;
    }
    std::swap(rs, rd);
  }
  EXPECT_EQ(*src, *rs);
}

TEST(RuntimeTest, SchedulerAndDepsMatchConfig) {
  RuntimeConfig config = withoutWaitFreeDepsConfig(
      makeTopology(MachinePreset::Host, 2));
  Runtime rt(config);
  EXPECT_STREQ(rt.deps().name(), "fine_grained_locks");
  EXPECT_STREQ(rt.scheduler().name(), "sync_dtlock");

  Runtime rtOpt(optimizedConfig(makeTopology(MachinePreset::Host, 2)));
  EXPECT_STREQ(rtOpt.deps().name(), "waitfree_asm");
}

}  // namespace
}  // namespace ats
