#include "sched/sync_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

#include "common/failpoint.hpp"
#include "instr/tracer.hpp"

namespace ats {

SyncScheduler::SyncScheduler(Topology topo,
                             std::unique_ptr<SchedulerPolicy> policy,
                             std::size_t spscCapacity, Tracer* tracer)
    : Scheduler(tracer),
      maxServes_(4 * topo.numCpus + 4),
      lock_(std::max<std::size_t>(64, topo.slotCount() * 2),
            std::max<std::size_t>(64, topo.slotCount())),
      policy_(std::move(policy)),
      addBuffers_(topo, spscCapacity) {}

void SyncScheduler::addReadyTask(Task* task, std::size_t cpu) {
  assert(cpu < addBuffers_.numCpus());
  if (addBuffers_.tryPush(task, cpu)) return;

  // Overflow protocol: join the FIFO queue and become the server for a
  // moment — drain, then answer queued getReadyTask delegations.  Unlike
  // the PTLock scheduler, queueing a ticket here is safe AND useful:
  // getters that pile up behind a queued adder land in the delegation
  // queue and are retired in one combined burst when the adder enters,
  // instead of each needing its own lock hand-off.
  // Failpoint: delay/abort drills only — no lock is held yet, but a
  // throw here would lose the task (see DESIGN.md "Failure domains").
  ATS_FAILPOINT(addbuf_overflow);
  lock_.lock();
  // Unbounded, so our full ring is emptied whatever its slot order.
  emitDrain(cpu, addBuffers_.drain(*policy_));
  policy_->addTask(task, cpu);
  serveWaiters(cpu);
  addBuffers_.notePolicyState(*policy_);
  lock_.unlock();
}

Task* SyncScheduler::getReadyTask(std::size_t cpu) {
  assert(cpu < addBuffers_.numCpus());
  // Idle poll: nothing anywhere, so leave the lock's lines alone.
  if (addBuffers_.nothingReady()) return nullptr;
  std::uintptr_t item = 0;
  if (!lock_.lockOrDelegate(cpu, item)) {
    return reinterpret_cast<Task*>(item);  // served by the lock holder
  }
  // Bounded refill, then our own task.  A drain that moved nothing
  // found every ring empty, so a null here means nothing was ready.
  emitDrain(cpu, addBuffers_.drain(*policy_, kServeBurst));
  Task* task = policy_->getTask(cpu);
  serveWaiters(cpu);
  addBuffers_.notePolicyState(*policy_);
  lock_.unlock();
  return task;
}

void SyncScheduler::serveWaiters(std::size_t cpu) {
  // Failpoint: stretches the combining holder's lock hold (delay mode),
  // the latency-injection drill for delegation fairness.  DTLock held —
  // throw mode is off-limits here.
  ATS_FAILPOINT(serve_batch);
  std::uint64_t waiterCpus[kServeBurst];
  std::uintptr_t items[kServeBurst];
  // Refill on a miss: drain at most kServeBurst adds and retry.  A
  // refill that moves nothing marks the rings dry for the rest of this
  // hold, so waiters spinning idle get "nothing ready" without each of
  // them re-draining every ring (DESIGN.md "Burst cap rationale").
  bool ringsDry = false;
  std::size_t served = 0;
  while (served < maxServes_) {
    const std::size_t want = std::min(kServeBurst, maxServes_ - served);
    const std::size_t n = lock_.popWaiters(waiterCpus, want);
    if (n == 0) break;
    std::size_t handed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      // Each waiter is answered in its own locality view, so a
      // NUMA-aware policy serves it from its own domain first.
      const auto waiterCpu = static_cast<std::size_t>(waiterCpus[i]);
      Task* task = policy_->getTask(waiterCpu);
      if (task == nullptr && !ringsDry) {
        const std::size_t drained = addBuffers_.drain(*policy_, kServeBurst);
        emitDrain(cpu, drained);
        ringsDry = drained == 0;
        task = policy_->getTask(waiterCpu);
      }
      items[i] = reinterpret_cast<std::uintptr_t>(task);
      if (task != nullptr) ++handed;
    }
    lock_.serveBatch(waiterCpus, items, n);
    // One coalesced SchedServe per batch, payload = tasks handed off —
    // and only when something was (idle waiters re-delegate
    // continuously; see the Scheduler contract).
    if (tracer_ != nullptr && handed != 0)
      tracer_->emit(cpu, TraceEvent::SchedServe, handed);
    served += n;
    if (handed < n) break;  // policy and rings both dry
  }
}

}  // namespace ats
