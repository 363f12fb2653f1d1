#include "ledger.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/timing.hpp"
#include "dag_random.hpp"
#include "deps/dependency_system.hpp"
#include "instr/tracer.hpp"
#include "memory/pool_allocator.hpp"
#include "runtime/runtime.hpp"
#include "runtime/scheduler_factory.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRounds = 41;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Blocks of a descriptor's size: the spawner allocates them all and frees
/// half; a task on one of the runtime's workers frees the other half, so
/// the next round's allocations also drain the remote-free list.
double allocFreeRow(ats::Runtime& rt) {
  constexpr std::size_t kBlocks = 512;
  ats::PoolAllocator& pool = ats::PoolAllocator::instance();
  std::vector<void*> blocks(kBlocks);
  std::vector<double> rows;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::uint64_t t0 = ats::nowNanos();
    for (void*& b : blocks) b = pool.allocate(sizeof(ats::Task));
    const std::uint64_t t1 = ats::nowNanos();
    for (std::size_t i = 0; i < kBlocks; i += 2)
      pool.deallocate(blocks[i], sizeof(ats::Task));
    const std::uint64_t t2 = ats::nowNanos();

    std::atomic<std::uint64_t> remoteNs{0};
    std::atomic<bool> done{false};
    rt.spawn(std::span<const ats::Access>{}, [&blocks, &pool, &remoteNs, &done] {
      const std::uint64_t r0 = ats::nowNanos();
      for (std::size_t i = 1; i < kBlocks; i += 2)
        pool.deallocate(blocks[i], sizeof(ats::Task));
      remoteNs.store(ats::nowNanos() - r0, std::memory_order_relaxed);
      done.store(true, std::memory_order_release);
    });
    // Spin instead of taskwait, which would let this thread run the task
    // itself: the point is that a worker frees these blocks.
    while (!done.load(std::memory_order_acquire)) ats::cpuRelax();
    rt.taskwait();
    rows.push_back(static_cast<double>(t1 - t0 + t2 - t1 + remoteNs.load()) /
                   kBlocks);
  }
  return median(std::move(rows));
}

struct LedgerTask : ats::DepTask {
  std::vector<LedgerTask*>* freeList = nullptr;
};

void recycle(ats::DepTask& task) {
  LedgerTask& t = static_cast<LedgerTask&>(task);
  t.freeList->push_back(&t);
}

struct ReadyList {
  std::vector<ats::DepTask*> tasks;
  std::size_t readied = 0;
};

void onReady(void* ctx, ats::DepTask* task, std::size_t) {
  ReadyList& ready = *static_cast<ReadyList*>(ctx);
  ready.tasks.push_back(task);
  ++ready.readied;
}

/// dag_random's stream (children as zero-access tasks after their parent)
/// registered in program order, a window at a time, with every ready task
/// released as soon as the window is in — descriptors recycle through a
/// LIFO free list the moment their reference count drains, as the
/// runtime's do through the pool.
double registerReleaseRow(const DagRandom& dag, bool& ok) {
  constexpr std::size_t kWindow = 64;
  constexpr std::size_t kCpu = 0;
  ReadyList ready;
  ready.tasks.reserve(DagRandom::totalTasks());
  std::unique_ptr<ats::DependencySystem> deps = ats::makeDependencySystem(
      ats::DepsKind::WaitFreeAsm, ats::ReadySink{&onReady, &ready});
  // Enough that chains pinning released writes never exhaust it.
  const std::size_t storageSize = DagRandom::totalTasks();
  auto storage = std::make_unique<LedgerTask[]>(storageSize);
  std::vector<LedgerTask*> freeList;
  freeList.reserve(storageSize);
  for (std::size_t i = storageSize; i-- > 0;) {
    storage[i].freeList = &freeList;
    freeList.push_back(&storage[i]);
  }

  std::size_t released = 0;
  auto drain = [&] {
    while (!ready.tasks.empty()) {
      ats::DepTask* task = ready.tasks.back();
      ready.tasks.pop_back();
      deps->release(task, kCpu);
      task->dropRef();
      ++released;
    }
  };
  auto registerOne = [&](std::span<const ats::Access> accesses) {
    LedgerTask* task = freeList.back();
    freeList.pop_back();
    task->refCount.store(1, std::memory_order_relaxed);
    task->onLastRef = &recycle;
    deps->registerTask(task, accesses.data(), accesses.size(), kCpu);
  };

  std::vector<double> rows;
  for (std::size_t round = 0; round < kRounds; ++round) {
    released = 0;
    ready.readied = 0;
    std::size_t inWindow = 0;
    const std::uint64_t t0 = ats::nowNanos();
    for (std::size_t t = 0; t < DagRandom::kTopTasks; ++t) {
      registerOne(dag.accessesOf(t));
      for (std::size_t c = 0; c < dag.childrenOf(t); ++c)
        registerOne(std::span<const ats::Access>{});
      inWindow += 1 + dag.childrenOf(t);
      if (inWindow >= kWindow) {
        drain();
        inWindow = 0;
      }
    }
    drain();
    const std::uint64_t t1 = ats::nowNanos();
    deps->reset();
    constexpr std::size_t kTasks = DagRandom::totalTasks();
    if (released != kTasks || ready.readied != kTasks ||
        freeList.size() != storageSize)
      ok = false;
    rows.push_back(static_cast<double>(t1 - t0) / kTasks);
  }
  return median(std::move(rows));
}

/// Ready tasks handed to a standalone scheduler of the runtime's own
/// design through the spawner's slot, a batch at a time, and taken back.
double addGetRow(const ats::Runtime& rt, bool& ok) {
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kBatches = 32;
  ats::RuntimeConfig config = rt.config();
  config.tracer = nullptr;
  config.topo.reservedSlots += 1;  // the spawner's slot, as the Runtime does
  const std::size_t slot = config.topo.numCpus;
  std::unique_ptr<ats::Scheduler> sched = ats::makeScheduler(config);
  auto tasks = std::make_unique<ats::Task[]>(kBatch);

  std::vector<double> rows;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::size_t got = 0;
    const std::uint64_t t0 = ats::nowNanos();
    for (std::size_t b = 0; b < kBatches; ++b) {
      for (std::size_t i = 0; i < kBatch; ++i) sched->addReadyTask(&tasks[i], slot);
      for (std::size_t i = 0; i < kBatch; ++i)
        got += sched->getReadyTask(slot) != nullptr ? 1 : 0;
    }
    const std::uint64_t t1 = ats::nowNanos();
    if (got != kBatch * kBatches || sched->getReadyTask(slot) != nullptr)
      ok = false;
    rows.push_back(static_cast<double>(t1 - t0) / (kBatch * kBatches));
  }
  return median(std::move(rows));
}

double emitRow(bool& ok) {
  constexpr std::size_t kEmits = 8192;
  ats::Tracer tracer(1, kEmits);
  std::vector<double> rows;
  for (std::size_t round = 0; round < kRounds; ++round) {
    tracer.reset();
    const std::uint64_t t0 = ats::nowNanos();
    for (std::size_t i = 0; i < kEmits; ++i)
      tracer.emit(0, ats::TraceEvent::TaskStart, i);
    const std::uint64_t t1 = ats::nowNanos();
    if (tracer.dropped() != 0) ok = false;
    rows.push_back(static_cast<double>(t1 - t0) / kEmits);
  }
  return median(std::move(rows));
}

}  // namespace

LedgerRows measureLedger(ats::Runtime& rt, const DagRandom& dag) {
  LedgerRows rows;
  rows.allocFreeNs = allocFreeRow(rt);
  rows.registerReleaseNs = registerReleaseRow(dag, rows.ok);
  rows.addGetNs = addGetRow(rt, rows.ok);
  rows.emitNs = emitRow(rows.ok);
  return rows;
}

}  // namespace perfbench
