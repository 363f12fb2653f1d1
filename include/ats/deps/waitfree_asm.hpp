#pragma once

#include "deps/dependency_system.hpp"
#include "deps/object_table.hpp"

namespace ats {

/// The paper's §2 wait-free Atomic State Machine.  Every transition is a
/// single RMW — no access ever takes a lock or spins on another thread.
///
/// Per object the writes form a registration-order chain; readers hang
/// off the write they follow (or run immediately when no write precedes
/// them).  Each access has up to two preconditions, counted into its
/// task's pendingDeps:
///
///   * write -> write edge: registration parks the new write in the
///     predecessor's `successor` slot and fetch_or's kHasSuccessor into
///     its state; completion fetch_or's kCompleted and checks
///     kHasSuccessor in the returned bits.  The total order on that
///     state word means exactly one side resolves the edge.
///   * write -> readers: a reader CASes itself onto the list packed into
///     the predecessor write's state word; the completion fetch_or of
///     kCompleted atomically closes that list and collects everything
///     attached.  A reader whose CAS observes kCompleted resolves itself
///     — again exactly one side acts per reader.
///   * readers -> write (the read group): readers count themselves into
///     the group of the write they follow with a plain increment of its
///     registration count; the next write closes the group by
///     fetch_add'ing ReadGroup::kClosedBias plus that count.  Either the
///     group was already drained (resolved at close) or the reader whose
///     fetch_sub lands on exactly kClosedBias resolves it.
///
/// An edge whose predecessor already completed resolves at registration
/// with loads alone: no lock-prefixed instruction (DESIGN.md "One cache
/// line per dependency edge").
class WaitFreeAsmDeps final : public DependencySystem {
 public:
  explicit WaitFreeAsmDeps(ReadySink sink) : DependencySystem(sink) {}

  void registerTask(DepTask* task, const Access* accesses,
                    std::size_t count, std::size_t cpu) override;
  void release(DepTask* task, std::size_t cpu) override;
  void reset() override;

  const char* name() const override { return "waitfree_asm"; }

 private:
  /// Per-object ASM anchor.  Only touched on the (per object,
  /// serialized) registration path and by the quiescent reset; the
  /// release path works purely through pointers the nodes carry.
  struct ObjectAsm {
    AccessNode* lastWrite = nullptr;
    ReadGroup rootGroup;
  };

  /// Both return how many of the node's preconditions resolved during
  /// registration, so registerTask can batch them into one guard drop.
  std::int32_t registerRead(ObjectAsm& obj, AccessNode* node);
  std::int32_t registerWrite(ObjectAsm& obj, AccessNode* node);

  ObjectTable<ObjectAsm> objects_;
};

}  // namespace ats
