#include "sched/ptlock_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/failpoint.hpp"
#include "instr/tracer.hpp"

namespace ats {

namespace {
/// Cap on the refill drain in getReadyTask, bounding work done per lock
/// hold.
constexpr std::size_t kLocalDrainBurst = 64;
}  // namespace

PTLockScheduler::PTLockScheduler(Topology topo,
                                 std::unique_ptr<SchedulerPolicy> policy,
                                 std::size_t spscCapacity,
                                 Tracer* tracer)
    // Waiting-array slots must cover every thread that can contend; size
    // for at least the topology and leave headroom for oversubscription.
    : Scheduler(tracer),
      lock_(std::max<std::size_t>(64, topo.slotCount() * 2)),
      policy_(std::move(policy)),
      addBuffers_(topo, spscCapacity) {}

void PTLockScheduler::addReadyTask(Task* task, std::size_t cpu) {
  assert(cpu < addBuffers_.numCpus());
  // Buffer full: bid for the lock to drain it ourselves, but keep
  // retrying the wait-free push meanwhile — the current holder's drain
  // frees space, so whichever unblocks first wins.  Adds must not drop,
  // and they must not park a reserved ticket in the FIFO queue either
  // (a preempted adder's queued ticket would lock every poller out for
  // whole timeslices on a timeshared host).
  SpinWait w;
  bool contendedLogged = false;
  while (!addBuffers_.tryPush(task, cpu)) {
    // Failpoint: delay/abort drills only (a throw would lose the task);
    // fires once per retry poll while the ring stays full.
    ATS_FAILPOINT(addbuf_overflow);
    if (lock_.tryLock()) {
      emitDrain(cpu, addBuffers_.drain(*policy_));
      policy_->addTask(task, cpu);
      addBuffers_.notePolicyState(*policy_);
      lock_.unlock();
      return;
    }
    // The add-side contention event of fig10: a full buffer AND a busy
    // lock means the creating core is stuck behind whoever holds it.
    // Once per episode — the retry loop itself spins at poll frequency.
    if (tracer_ != nullptr && !contendedLogged) {
      tracer_->emit(cpu, TraceEvent::SchedLockContended, cpu);
      contendedLogged = true;
    }
    w.spin();
  }
}

Task* PTLockScheduler::getReadyTask(std::size_t cpu) {
  // Non-blocking poll, per the Scheduler contract: a failed tryLock is
  // externally indistinguishable from an empty queue.  Without
  // delegation this is the best a waiter can do — walk away and retry —
  // and that wasted poll is precisely the cost the DTLock removes.  No
  // contention event here: get-side lock misses happen at poll frequency
  // and the starvation they cause is already visible as WorkerIdle*.
  // An idle poll only reads: nothing anywhere, so no tryLock RMW.
  if (addBuffers_.nothingReady() || !lock_.tryLock()) return nullptr;
  // Bounded refill: a drain that moved nothing found every ring empty,
  // so one getTask after it is the whole answer.
  emitDrain(cpu, addBuffers_.drain(*policy_, kLocalDrainBurst));
  Task* task = policy_->getTask(cpu);
  addBuffers_.notePolicyState(*policy_);
  lock_.unlock();
  return task;
}

}  // namespace ats
