#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/topology.hpp"
#include "containers/spsc_queue.hpp"
#include "sched/scheduler.hpp"

namespace ats {

struct Task;

/// The per-CPU wait-free add-buffer front end (§3.1) shared by every
/// scheduler that decouples adds from the central lock.  CPU i is the
/// single producer of buffer i; whichever thread holds the scheduler's
/// lock is the (serialized) consumer of all of them, so the dtlock and
/// ptlock designs drain identical structures and their comparison
/// isolates the lock protocol alone.
///
/// `drain` walks every ring in slot order, so no ring can be stranded.
/// A cap bounds one drain's share of a lock hold; a capped drain that
/// moves nothing proves every ring was empty when visited.
///
/// Idle polls only read: a getter first checks `nothingReady` — every
/// ring empty and the policy empty when the lock was last released —
/// and walks away without touching the lock.  The lock holder records
/// the policy's state with `notePolicyState` just before every unlock,
/// so a stale reading only delays a poll, never strands a task
/// (DESIGN.md "One cache line per dependency edge").
class AddBufferSet {
 public:
  /// "No cap" sentinel for drain's maxTasks.
  static constexpr std::size_t kNoCap = ~std::size_t{0};

  AddBufferSet(const Topology& topo, std::size_t capacity) {
    const std::size_t slots = std::max<std::size_t>(1, topo.slotCount());
    buffers_.reserve(slots);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      buffers_.push_back(std::make_unique<SpscQueue<Task*>>(capacity));
    }
  }

  std::size_t numCpus() const { return buffers_.size(); }

  /// True when no ring holds a task and the policy held none at the
  /// last unlock.  Loads only.
  bool nothingReady() const {
    if (policyHasTasks_.load(std::memory_order_acquire)) return false;
    for (const auto& buffer : buffers_)
      if (!buffer->empty()) return false;
    return true;
  }

  /// Lock holder only, just before unlocking: record whether `policy`
  /// still holds tasks.  Stores only when that changed.
  void notePolicyState(SchedulerPolicy& policy) {
    const bool has = policy.hasTasks();
    if (has != policyHasTasks_.load(std::memory_order_relaxed))
      policyHasTasks_.store(has, std::memory_order_release);
  }

  /// Wait-free; false when cpu's buffer is full (caller runs the
  /// overflow drain protocol under the lock).
  bool tryPush(Task* task, std::size_t cpu) {
    return buffers_[cpu]->push(task);
  }

  /// Move at most `maxTasks` published adds into the policy, rings in
  /// slot order, each ring FIFO with one index update per touched ring,
  /// crediting each task to the CPU that enqueued it.  Caller must hold
  /// the scheduler's lock.  Returns the number moved (the SchedDrain
  /// trace payload).
  std::size_t drain(SchedulerPolicy& policy, std::size_t maxTasks = kNoCap) {
    std::size_t drained = 0;
    for (std::size_t slot = 0; slot < buffers_.size(); ++slot) {
      if (drained >= maxTasks) break;
      drained += buffers_[slot]->consumeN(maxTasks - drained, [&](Task* task) {
        policy.addTask(task, slot);
      });
    }
    return drained;
  }

 private:
  std::vector<std::unique_ptr<SpscQueue<Task*>>> buffers_;
  /// Written only by lock holders, read by every idle getter: its own
  /// line, so neither side drags the other's fields along.
  alignas(64) std::atomic<bool> policyHasTasks_{false};
};

}  // namespace ats
