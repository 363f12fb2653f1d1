#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/failpoint.hpp"
#include "deps/access.hpp"
#include "deps/dependency_system.hpp"
#include "locks/locks.hpp"
#include "memory/allocator.hpp"
#include "runtime/graph_status.hpp"
#include "runtime/runtime_config.hpp"
#include "runtime/scheduler_factory.hpp"
#include "runtime/task.hpp"

namespace ats {

class Watchdog;  // runtime/watchdog.hpp; only the .cpp needs the type

/// The tasking runtime the paper benchmarks: worker threads (one per
/// Topology CPU, pinned when the host has the cores for it) pulling from
/// the configured scheduler, the configured §2 dependency subsystem in
/// front, and `spawn`/`taskwait` on top.
///
///   Runtime rt(optimizedConfig(makeTopology(MachinePreset::Host, 4)));
///   rt.spawn({inout(x)}, [&x] { ++x; });
///   rt.taskwait();
///
/// Threading contract (the OmpSs model the §2 ASM assumes):
///   * spawn may be called ONLY from the owning "spawner" thread and from
///     task bodies (the per-slot counters' single-writer rule: every
///     non-worker thread counts on the spawner slot); accesses to the
///     SAME object must be registered by one thread at a time (sibling
///     tasks are created in program order).
///   * taskwait is spawner-only (a task body calling it would wait on
///     itself).  While waiting, the spawner helps execute ready tasks
///     through its own reserved CPU slot — the scheduler is built with
///     numCpus + 1 slots so the spawner is a first-class SPSC producer
///     and DTLock delegator without ever colliding with a worker's slot.
///   * when `RuntimeConfig::tracer` is set, workers emit §5 events
///     (TaskStart/End, WorkerIdleBegin/End) into their own per-CPU
///     streams and the scheduler emits its serve/drain/contention
///     events; with the default null tracer every site short-circuits
///     on one branch and the hot paths are byte-for-byte the untraced
///     ones.
///   * a successor that a task's completion readies runs next on the
///     thread that completed it, without a scheduler round trip
///     (runOne; DESIGN.md "Immediate successor hand-off");
///   * descriptors are reclaimed EAGERLY through the §4 allocator
///     (`RuntimeConfig::usePoolAllocator` picks pool vs system): each
///     carries a refcount covering its execution plus every way the
///     dependency chains can still reach its access nodes, and goes
///     back to the allocator the moment the count drains — so long
///     dependency graphs with no taskwait keep live descriptor memory
///     bounded by the in-flight window, not the spawn total.
class Runtime {
 public:
  explicit Runtime(RuntimeConfig config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Spawn a task whose body is any callable; captures up to
  /// Task::kInlineClosureBytes live inline in the descriptor, larger ones
  /// on the heap.  Returns as soon as the accesses are registered — the
  /// body runs when its dependencies resolve, on whatever worker gets it.
  ///
  /// Both overloads funnel into registerAndSubmit — one descriptor
  /// set-up and registration path, so invariants (access-count check,
  /// in-flight accounting, completion wiring) live in exactly one place.
  template <typename Fn>
  void spawn(std::initializer_list<Access> accesses, Fn&& fn) {
    spawn(std::span<const Access>(accesses.begin(), accesses.size()),
          std::forward<Fn>(fn));
  }

  /// Span spawn for access lists whose arity is only known at run time —
  /// the apps layer's halo tasks (a boundary block drops a neighbor
  /// access) build a small Access array and pass it here.  Braced lists
  /// still bind to the initializer_list overload above.
  template <typename Fn>
  void spawn(std::span<const Access> accesses, Fn&& fn) {
    Task* task = allocateTask();
    try {
      installClosure(task, std::forward<Fn>(fn));
    } catch (...) {
      // Closure construction/spill failed (copy ctor threw, or the
      // closure_spill failpoint fired): the descriptor was never
      // registered, so dropping its execution reference reclaims it and
      // conservation holds — liveDescriptors() still returns to zero.
      task->dropRef();
      throw;
    }
    registerAndSubmit(task, accesses);
  }

  /// Wait until every spawned task has completed, helping execute ready
  /// tasks meanwhile, then recycle descriptors and dependency chains.
  /// If a task body threw (or cancel() was called), the graph DRAINS —
  /// remaining ready tasks are skipped, not run — and this variant
  /// silently discards the captured error; use taskwaitChecked() to
  /// observe it.
  void taskwait();

  /// taskwait() that rethrows the FIRST exception captured from a task
  /// body after the graph drains to quiescence (descriptors reclaimed,
  /// chains reset — conservation holds before the throw reaches the
  /// caller).  Returns normally when nothing failed, including after a
  /// caller-initiated cancel().  Either way the failure state is
  /// cleared: the next batch starts clean.
  void taskwaitChecked();

  /// Poison the current graph from any thread: ready tasks dequeued
  /// from here on are skipped (dependencies still released, so the
  /// graph drains), and the next taskwait returns once in-flight
  /// bodies finish.  Idempotent; racing a task failure is fine (first
  /// poisoner wins the trace event, the error slot keeps the first
  /// captured exception).
  void cancel();

  const RuntimeConfig& config() const { return config_; }
  Scheduler& scheduler() { return *sched_; }
  DependencySystem& deps() { return *deps_; }
  Allocator& allocator() { return *alloc_; }

  /// Descriptors currently alive (allocated, not yet reclaimed): the
  /// in-flight window under eager reclamation, zero after a taskwait.
  /// Summed over the per-slot counters, so exact only at quiescence.
  std::size_t liveDescriptors() const {
    const std::int64_t sum = sumSlots(&SlotCounters::live);
    return sum > 0 ? static_cast<std::size_t>(sum) : 0;
  }

  /// Logical CPU slot of the calling thread: a worker's own slot, or the
  /// reserved spawner slot for any non-worker thread.
  std::size_t callerCpu() const;

  /// Lifetime failure counters (they survive taskwait/reset), for
  /// conservation audits: executed + tasksFailed() + tasksSkipped() ==
  /// spawned, across every batch this Runtime ever ran.  Summed over the
  /// per-slot counters like tasksRetired(), so exact at quiescence.
  std::uint64_t tasksFailed() const {
    return static_cast<std::uint64_t>(sumSlots(&SlotCounters::failed));
  }
  std::uint64_t tasksSkipped() const {
    return static_cast<std::uint64_t>(sumSlots(&SlotCounters::skipped));
  }

  /// Monotonic count of retired tasks (completed, failed, or skipped) —
  /// the watchdog's progress probe, public so tests can assert on it.
  std::uint64_t tasksRetired() const {
    return static_cast<std::uint64_t>(sumSlots(&SlotCounters::retired));
  }

  /// Monotonic count of tasks that skipped the scheduler: readied by a
  /// release on some thread and run next by that same thread (DESIGN.md
  /// "Immediate successor hand-off").  A share of tasksRetired().
  std::uint64_t tasksHandedOff() const {
    return static_cast<std::uint64_t>(sumSlots(&SlotCounters::handedOff));
  }

 private:
  template <typename Fn>
  void installClosure(Task* task, Fn&& fn) {
    using F = std::decay_t<Fn>;
    if constexpr (sizeof(F) <= Task::kInlineClosureBytes &&
                  alignof(F) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(task->closureBuf))
          F(std::forward<Fn>(fn));
      task->invoker = [](Task& t) {
        (*std::launder(reinterpret_cast<F*>(t.closureBuf)))();
      };
      task->closureDestroy = [](Task& t) {
        std::launder(reinterpret_cast<F*>(t.closureBuf))->~F();
      };
    } else {
      // Heap spill through the same §4 allocator as the descriptor —
      // closure churn is task churn.  Over-aligned captures (rare) fall
      // back to aligned operator new, which the pool cannot guarantee.
      ATS_FAILPOINT(closure_spill);
      F* spilled;
      if constexpr (alignof(F) <= Allocator::kAlignment) {
        spilled = ::new (alloc_->allocate(sizeof(F))) F(std::forward<Fn>(fn));
        task->closureDestroy = [](Task& t) {
          F* f = spilledClosure<F>(t);
          f->~F();
          static_cast<Runtime*>(t.owner)->alloc_->deallocate(f, sizeof(F));
        };
      } else {
        spilled = new F(std::forward<Fn>(fn));
        task->closureDestroy = [](Task& t) { delete spilledClosure<F>(t); };
      }
      ::new (static_cast<void*>(task->closureBuf)) F*(spilled);
      task->invoker = [](Task& t) { (*spilledClosure<F>(t))(); };
    }
  }

  /// The heap closure whose pointer a spilled installClosure left in
  /// `closureBuf`.
  template <typename F>
  static F* spilledClosure(Task& task) {
    return *std::launder(reinterpret_cast<F**>(task.closureBuf));
  }

  Task* allocateTask();
  void registerAndSubmit(Task* task, std::span<const Access> accesses);
  void workerLoop(std::size_t cpu);
  /// Run one task on `cpu`: the successor this thread's last release
  /// kept, else the scheduler's next one.  False when both are empty.
  /// `endsIdle` emits WorkerIdleEnd just before the task starts.
  bool runOne(std::size_t cpu, bool endsIdle = false);
  /// The one place a dequeued task's body runs: skip check against the
  /// graph's cancellation token, TaskStart/End|Failed tracing, the
  /// catch frame that turns a throwing body into a poisoned graph, and
  /// the unconditional complete() that keeps conservation true on every
  /// path (run, fail, skip).
  void executeTask(Task* task, std::size_t cpu);
  void drainAndHelp();
  /// Destroy the task's closure (inline or spilled) exactly once.
  static void destroyClosure(Task* task);
  void complete(Task* task);
  void quiesce();
  std::string watchdogReport() const;

  static void reclaimThunk(DepTask& task);
  static void readyThunk(void* ctx, DepTask* task, std::size_t cpu);

  /// One counter block per CPU slot (the last is the spawner's).  One
  /// writing thread per slot, so a bump is a plain load+store: no shared
  /// line, no RMW per task.  DESIGN.md "Quiescence without a shared
  /// counter" has the taskwait argument.
  struct alignas(64) SlotCounters {
    std::atomic<std::int64_t> spawned{0};  ///< registered from this slot
    std::atomic<std::int64_t> retired{0};  ///< completed on this slot
    std::atomic<std::int64_t> live{0};  ///< allocated minus reclaimed here
    std::atomic<std::int64_t> failed{0};   ///< bodies that threw here
    std::atomic<std::int64_t> skipped{0};  ///< cancelled, never run here
    std::atomic<std::int64_t> handedOff{0};  ///< run here, bypassing sched_
  };
  using Counter = std::atomic<std::int64_t> SlotCounters::*;

  void bump(Counter counter, std::int64_t by,
            std::memory_order order = std::memory_order_relaxed) {
    std::atomic<std::int64_t>& slot = slots_[callerCpu()].*counter;
    slot.store(slot.load(std::memory_order_relaxed) + by, order);
  }

  std::int64_t sumSlots(Counter counter) const {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i <= config_.topo.numCpus; ++i)
      sum += (slots_[i].*counter).load(std::memory_order_acquire);
    return sum;
  }

  /// Every task spawned so far has retired; sums `retired` FIRST.
  bool quiescent() const {
    const std::int64_t retired = sumSlots(&SlotCounters::retired);
    return retired == sumSlots(&SlotCounters::spawned);
  }

  RuntimeConfig config_;
  std::size_t spawnerCpu_;
  Allocator* alloc_;
  std::unique_ptr<DependencySystem> deps_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<SlotCounters[]> slots_;

  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;

  GraphStatus graph_;
  std::unique_ptr<Watchdog> watchdog_;  // destroyed first: see ~Runtime
};

}  // namespace ats
