#pragma once

#include <cstddef>

#include "instr/tracer.hpp"

namespace ats {

struct Task;

/// The synchronized scheduler surface the runtime's worker loop talks to.
/// `cpu` is the caller's logical CPU index within the runtime's Topology;
/// implementations may use it for SPSC buffer selection or NUMA affinity.
/// `getReadyTask` is non-blocking: nullptr means "nothing ready now".
///
/// Every scheduler optionally carries a §5 Tracer.  The contract for
/// emission sites (kept by all three designs here):
///   * null-guard every emit, so the untraced configuration's hot paths
///     compile to exactly what they were before the instr layer;
///   * emit into the CALLER's stream (`cpu`) only — streams are
///     single-writer;
///   * emit only on bounded-frequency transitions (a successful serve,
///     a non-empty drain, a contended add).  Never on per-poll outcomes:
///     idle workers poll continuously and would saturate their rings
///     with noise the analyzer then mistakes for the whole story.
class Scheduler {
 public:
  explicit Scheduler(Tracer* tracer = nullptr) : tracer_(tracer) {}
  virtual ~Scheduler() = default;

  /// Failure-domain audit (all four kinds): a scheduler only ever moves
  /// opaque Task pointers — it never reads task state that depends on
  /// the body having run, and it never learns whether a task it handed
  /// out executed, failed, or was skipped by a cancellation drain.  The
  /// one obligation the drain adds is already the base contract: every
  /// task accepted by addReadyTask is handed out exactly once (none
  /// dropped, none duplicated), because the runtime's skip path still
  /// needs to dequeue the task to release its dependencies.
  virtual void addReadyTask(Task* task, std::size_t cpu) = 0;
  virtual Task* getReadyTask(std::size_t cpu) = 0;

  virtual const char* name() const = 0;

 protected:
  /// The one way drains are traced, shared by every buffered scheduler
  /// so the event's semantics (caller's stream, payload = tasks moved,
  /// silent when nothing moved) cannot drift per call site.  Feed it
  /// `drain`'s return value: `emitDrain(cpu, buffers.drain(p))`.
  void emitDrain(std::size_t cpu, std::size_t drained) {
    if (tracer_ != nullptr && drained != 0)
      tracer_->emit(cpu, TraceEvent::SchedDrain, drained);
  }

  Tracer* tracer_;  ///< null = untraced (the common case)
};

/// An *unsynchronized* ready-queue policy.  The paper's point in §3.2 is
/// that once the DTLock serializes access, the policy inside can be
/// written as plain single-threaded code and swapped freely (FIFO, LIFO,
/// NUMA-aware...).  Callers guarantee mutual exclusion.
/// The concrete policies live in sched/policies.hpp behind PolicyKind.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual void addTask(Task* task, std::size_t cpu) = 0;
  virtual Task* getTask(std::size_t cpu) = 0;

  /// Whether any task is queued.  The buffered schedulers ask once per
  /// lock hold, so idle getters can skip the lock (AddBufferSet::
  /// nothingReady).
  virtual bool hasTasks() = 0;

  virtual const char* policyName() const = 0;
};

}  // namespace ats
