#pragma once

#include <memory>

#include "common/topology.hpp"
#include "locks/locks.hpp"
#include "sched/add_buffer_set.hpp"
#include "sched/scheduler.hpp"

namespace ats {

/// The paper's scheduler (§3): per-CPU wait-free SPSC add-buffers in
/// front of a single policy object, everything serialized by a DTLock.
///
///   * addReadyTask: push into the caller CPU's own SPSC buffer — no
///     shared-lock traffic at all on the common path.  When the buffer is
///     full, the caller takes the DTLock itself, drains the buffers
///     into the policy, and serves any queued delegation requests
///     while it is there (the overflow "help-drain" protocol).
///   * getReadyTask: `lockOrDelegate`.  Usually some other thread already
///     holds the lock and simply hands a task back; the waiter never owns
///     the lock, never drains, never touches the policy's cache lines.
///     Whichever thread does hold the lock drains the add-buffers, takes
///     its own task, and serves the delegation queue before releasing.
///
/// Serving is batched (§8 flat combining): the holder snapshots a run of
/// queued requests with one `popWaiters` pass, answers each waiter with
/// one `getTask` in that waiter's own locality view, and publishes every
/// answer behind a single release fence (`serveBatch`).  A miss refills
/// from the add-buffers until a refill comes back empty.
class SyncScheduler final : public Scheduler {
 public:
  /// Most waiters a single combining batch answers.  Also bounds each
  /// refill drain and sizes the serve loop's stack arrays — more
  /// waiters than this simply take another batch within the same lock
  /// hold.
  static constexpr std::size_t kServeBurst = 16;

  /// Traced variant emits SchedDrain per non-empty add-buffer drain and
  /// one SchedServe per serve burst with the number of tasks handed off
  /// as payload.
  /// `spscCapacity` is §3.1's per-CPU buffer size ("can be configured
  /// from a single one to one per core"); the paper's Listing 5
  /// hardcodes 100, the default is the next power of two up.
  SyncScheduler(Topology topo, std::unique_ptr<SchedulerPolicy> policy,
                std::size_t spscCapacity = 256, Tracer* tracer = nullptr);

  void addReadyTask(Task* task, std::size_t cpu) override;
  Task* getReadyTask(std::size_t cpu) override;

  const char* name() const override { return "sync_dtlock"; }

 private:
  /// Answer queued getReadyTask delegations.  Caller must hold lock_;
  /// `cpu` is the holder's slot (trace emissions go into its stream).
  void serveWaiters(std::size_t cpu);

  /// Serves one lock hold may answer, `4 * numCpus + 4`: a served
  /// waiter can requeue while we still hold the lock, so the combining
  /// loop is capped to keep the holder's own latency bounded.
  std::size_t maxServes_;
  DTLock lock_;
  std::unique_ptr<SchedulerPolicy> policy_;
  AddBufferSet addBuffers_;
};

}  // namespace ats
