#pragma once

#include <memory>

#include "common/topology.hpp"
#include "locks/locks.hpp"
#include "sched/add_buffer_set.hpp"
#include "sched/scheduler.hpp"

namespace ats {

/// The paper's "w/o DTLock" ablation point: structurally the same
/// scheduler as SyncScheduler — per-CPU SPSC add-buffers in front of one
/// policy — but the serializing lock is a plain PTLock with no
/// delegation.  A getter that finds the lock busy walks away empty
/// instead of handing its request to the holder; that difference is
/// exactly what the dtlock-vs-ptlock comparison isolates (the paper's
/// 4x), while serial_mutex-vs-ptlock isolates the add-buffers (the 12x).
class PTLockScheduler final : public Scheduler {
 public:
  /// Traced variant emits SchedDrain per non-empty drain and
  /// SchedLockContended once per overflow episode that finds the lock
  /// busy — the "creator core fights for the lock" signal of fig10.
  PTLockScheduler(Topology topo, std::unique_ptr<SchedulerPolicy> policy,
                  std::size_t spscCapacity = 256,
                  Tracer* tracer = nullptr);

  void addReadyTask(Task* task, std::size_t cpu) override;
  Task* getReadyTask(std::size_t cpu) override;

  const char* name() const override { return "ptlock_central"; }

 private:
  PTLock lock_;
  std::unique_ptr<SchedulerPolicy> policy_;
  AddBufferSet addBuffers_;
};

}  // namespace ats
