#include "deps/fine_grained_locks.hpp"

#include <cassert>
#include <mutex>
#include <new>

#include "common/failpoint.hpp"

namespace ats {

void FineGrainedLocksDeps::registerTask(DepTask* task,
                                        const Access* accesses,
                                        std::size_t count, std::size_t cpu) {
  // Failpoint: BEFORE any mutation (same contract as deps_register in
  // the wait-free system) so throw mode is a clean spawn failure.
  ATS_FAILPOINT(deps_register_locked);
  assert(count <= kMaxAccessesPerTask);
#ifndef NDEBUG
  for (std::size_t i = 0; i < count; ++i)
    for (std::size_t j = i + 1; j < count; ++j)
      assert(accesses[i].object != accesses[j].object &&
             "a task must not declare the same object twice");
#endif

  task->pendingDeps.store(static_cast<std::int32_t>(count) + 1,
                          std::memory_order_relaxed);
  task->numAccesses = count;

  // Accesses eligible at registration are batched into the guard drop,
  // mirroring the wait-free system's bookkeeping.
  std::int32_t resolved = 0;

  for (std::size_t i = 0; i < count; ++i) {
    AccessNode* node = ::new (static_cast<void*>(&task->accesses[i]))
        AccessNode;
    node->task = task;
    node->object = accesses[i].object;
    node->read = accesses[i].isRead();
    node->queue.nextQ = nullptr;
    node->queueSatisfied = false;

    ObjectLocked& obj = objects_.lookupOrCreate(node->object);
    node->queue.homeEntry = &obj;

    bool eligible;
    {
      std::lock_guard<SpinLock> guard(obj.lock);
      node->queue.prevQ = obj.tail;
      if (obj.tail != nullptr)
        obj.tail->queue.nextQ = node;
      else
        obj.head = node;
      obj.tail = node;

      eligible = node->read ? obj.queuedWrites == 0 : obj.head == node;
      if (!node->read) ++obj.queuedWrites;
      if (eligible) node->queueSatisfied = true;
    }
    if (eligible) ++resolved;
  }

  finishRegistration(task, static_cast<std::int32_t>(count) + 1,
                     resolved, cpu);
}

void FineGrainedLocksDeps::release(DepTask* task, std::size_t cpu) {
  for (std::size_t i = 0; i < task->numAccesses; ++i) {
    AccessNode* node = &task->accesses[i];
    ObjectLocked& obj = *static_cast<ObjectLocked*>(node->queue.homeEntry);

    // Collect newly eligible accesses under the lock (in queue order, so
    // FIFO fairness survives), resolve outside it — the sink may reenter
    // the scheduler.  The chain reuses the ASM's successor field, unused
    // by this implementation.
    AccessNode* eligibleHead = nullptr;
    AccessNode* eligibleTail = nullptr;
    const auto collect = [&](AccessNode* ready) {
      ready->queueSatisfied = true;
      ready->successor.store(nullptr, std::memory_order_relaxed);
      if (eligibleTail != nullptr)
        eligibleTail->successor.store(ready, std::memory_order_relaxed);
      else
        eligibleHead = ready;
      eligibleTail = ready;
    };
    {
      std::lock_guard<SpinLock> guard(obj.lock);
      QueueLinks& links = node->queue;
      if (links.prevQ != nullptr)
        links.prevQ->queue.nextQ = links.nextQ;
      else
        obj.head = links.nextQ;
      if (links.nextQ != nullptr)
        links.nextQ->queue.prevQ = links.prevQ;
      else
        obj.tail = links.prevQ;
      if (!node->read) --obj.queuedWrites;

      AccessNode* cursor = obj.head;
      if (cursor != nullptr && !cursor->read) {
        if (!cursor->queueSatisfied) collect(cursor);
      } else {
        for (; cursor != nullptr && cursor->read;
             cursor = cursor->queue.nextQ) {
          if (!cursor->queueSatisfied) collect(cursor);
        }
      }
    }
    while (eligibleHead != nullptr) {
      AccessNode* next =
          eligibleHead->successor.load(std::memory_order_relaxed);
      resolveOne(eligibleHead->task, cpu);
      eligibleHead = next;
    }
  }
}

void FineGrainedLocksDeps::reset() {
  objects_.invalidateThreadCaches();  // TLS entries go stale with the epoch
  objects_.forEach([](ObjectLocked& obj) {
    std::lock_guard<SpinLock> guard(obj.lock);
    assert(obj.head == nullptr && "reset with accesses still queued");
    obj.head = nullptr;
    obj.tail = nullptr;
    obj.queuedWrites = 0;
  });
}

}  // namespace ats
