#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace ats {

struct AccessNode;
struct DepTask;

/// The readers between two writes on one object (or before the first
/// write: the object's root group).  The next write "closes" the group
/// by adding `kClosedBias` plus the number of readers that registered
/// into it, and parks itself in `closingWrite`; whoever moves `pending`
/// to exactly `kClosedBias` last-reader-out resolves that write's group
/// precondition.  Embedded in every write access node, so a group lives
/// exactly as long as the task that owns the preceding write.
///
/// Registration never touches `pending`: every reader's membership is
/// a plain `registrations` increment, which the closing write folds
/// into its bias add.  Registration on one object is serialized (the
/// sibling-task rule), so the plain field never races.  Every reader
/// fetch_subs 1 at completion, so `pending` may go negative (down to
/// -registrations) before the close.
struct ReadGroup {
  static constexpr std::int64_t kClosedBias = std::int64_t{1} << 32;

  std::atomic<std::int64_t> pending{0};
  std::atomic<AccessNode*> closingWrite{nullptr};
  std::int64_t registrations = 0;
};

/// The links of a wait-free read access.
struct ReaderLinks {
  /// Our link in the predecessor write's packed reader list.
  AccessNode* nextReader;

  /// The group this access counted itself into at registration.
  ReadGroup* joinedGroup;

  /// The task owning `joinedGroup` (nullptr for an object's root group,
  /// which lives in the table entry).  The reader whose release lands
  /// the closed group's drain drops this task's group reference.
  DepTask* groupOwner;
};

/// The fine-grained-locks implementation's per-object FIFO queue links
/// and the entry the node was queued in, all guarded by that object's
/// lock.
struct QueueLinks {
  AccessNode* prevQ;
  AccessNode* nextQ;
  void* homeEntry;
};

/// One registered access in an object's dependency chain, on exactly
/// one cache line, so a dependency edge touches one line of its
/// predecessor.  The wait-free ASM drives the atomic `state`/
/// `successor` fields; the fine-grained locking fallback queues the
/// node through `queue` under its per-object lock.  Both embed their
/// per-access bookkeeping here so release never allocates or looks
/// anything up.
///
/// NOTE (allocation fast path): nodes are RAW storage in a descriptor
/// (DepTask::accesses); registration constructs each node it uses, and
/// the constructor leaves the union alone.  Every field is written by
/// the registration path before anything reads it (`state` and
/// `successor` start at zero, registerWrite constructs `succGroup`,
/// readers set their links before attaching, the fine-grained queue
/// links are set before the node is queued).
struct alignas(64) AccessNode {
  /// Wait-free ASM packed state word for writes: two low flag bits plus
  /// the head of the pending-reader list in the pointer bits, so one
  /// fetch_or of kCompleted at release atomically (a) marks the write
  /// done, (b) closes and collects the reader list, and (c) reports
  /// whether a successor write is linked.
  static constexpr std::uintptr_t kCompleted = 1;     ///< owner finished
  static constexpr std::uintptr_t kHasSuccessor = 2;  ///< write linked
  static constexpr std::uintptr_t kFlagMask = kCompleted | kHasSuccessor;

  AccessNode() {}

  DepTask* task;
  void* object;
  bool read;

  /// Fine-grained locks: this access's precondition has resolved.
  bool queueSatisfied;

  std::atomic<std::uintptr_t> state;

  /// Writes: the single successor write waiting on our completion.  The
  /// fine-grained locks chain newly eligible nodes through it.
  std::atomic<AccessNode*> successor;

  /// The three link sets never live at once: a node belongs to one
  /// dependency system, and `read` says which role it plays there.
  union {
    ReadGroup succGroup;  ///< wait-free writes: readers registered after us
    ReaderLinks reader;   ///< wait-free reads
    QueueLinks queue;     ///< fine-grained locks, reads and writes
  };
};

static_assert(sizeof(AccessNode) == 64 && alignof(AccessNode) == 64,
              "an access node is exactly one cache line");

/// Per-task accesses are fixed-capacity so a task descriptor is one flat
/// allocation (the §4 pool-allocator PR depends on that).
inline constexpr std::size_t kMaxAccessesPerTask = 8;

/// The dependency-facing part of a task descriptor.  `runtime/task.hpp`'s
/// Task derives from this; the deps layer only ever sees DepTask*, which
/// keeps it below the runtime layer in the include order.
struct DepTask {
  DepTask() {}

  /// Unresolved preconditions + one creation guard.  Reads contribute one
  /// precondition (their chain edge); writes contribute two (chain edge +
  /// read-group drain).  The task is handed to the ready sink by whoever
  /// moves this to zero.
  std::atomic<std::int32_t> pendingDeps{0};

  /// Eager-reclamation reference count.  The runtime arms it with one
  /// "execution" reference at allocation; the wait-free ASM arms two
  /// more per WRITE access during registration (before the task is
  /// published anywhere, so a plain load+store suffices — references
  /// are never added after publication): a lastWrite reference, dropped
  /// by the superseding write's registration or quiescent reset, and a
  /// group reference for the write's own read group, dropped by exactly
  /// one of {the closing write that finds the group already drained,
  /// the reader landing the drain on kClosedBias, reset}.  Readers take
  /// NO references — an unclosed group's owner is pinned by its
  /// lastWrite reference, a closed one by the group reference.  Whoever
  /// drops the last reference runs `onLastRef`, which the runtime
  /// points at its allocator — so a descriptor is reclaimed the instant
  /// nothing can reach it, without waiting for a taskwait.  With no
  /// hook installed (deps-layer unit tests on stack tasks) reaching
  /// zero is a no-op.
  std::atomic<std::int32_t> refCount{0};
  void (*onLastRef)(DepTask& task) = nullptr;
  /// Whoever armed `onLastRef` (the runtime stores itself here), so the
  /// hook finds its allocator.
  void* owner = nullptr;

  /// acq_rel: the releasing thread's writes to the descriptor happen
  /// before whoever reclaims it reuses the storage.  Last-owner
  /// shortcut (the resolveOne idiom): observing exactly our own n means
  /// no other reference exists and none can appear — references are
  /// only ever created on the pre-publication registration path — so
  /// the RMW is skippable.
  void dropRef(std::int32_t n = 1) {
    if (refCount.load(std::memory_order_acquire) == n) {
      refCount.store(0, std::memory_order_relaxed);
      if (onLastRef != nullptr) onLastRef(*this);
      return;
    }
    const std::int32_t before =
        refCount.fetch_sub(n, std::memory_order_acq_rel);
    assert(before >= n && "dropRef without a matching armed reference");
    if (before == n && onLastRef != nullptr) onLastRef(*this);
  }

  std::size_t numAccesses = 0;

  /// Raw storage: registration constructs the first `numAccesses`
  /// nodes.  Constructing all of them with the descriptor would write
  /// eight lines per spawn, most of which the task never uses and the
  /// last task in this storage may have left on another core.
  union {
    AccessNode accesses[kMaxAccessesPerTask];
  };
};

}  // namespace ats
