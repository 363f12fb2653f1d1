#pragma once

#include <cstddef>

#include "deps/dep_task.hpp"

namespace ats {

/// Task descriptor.  The schedulers only ever move `Task*` around; the
/// dependency subsystem sees the DepTask base; the runtime owns the
/// closure and completion machinery on top (Runtime::executeTask is the
/// one place a body runs).
///
/// A task body is a type-erased closure installed by `Runtime::spawn`
/// into `closureBuf` (or the heap when it does not fit), invoked through
/// `invoker`.  The closure and its two entry points fill exactly one
/// cache line after the access nodes.
struct Task : DepTask {
  /// Inline closure storage; capture sets larger than this spill to the
  /// heap and leave only their pointer here (Runtime::installClosure
  /// decides and sets the destroyer).
  static constexpr std::size_t kInlineClosureBytes = 48;
  alignas(alignof(std::max_align_t)) unsigned char
      closureBuf[kInlineClosureBytes];
  void (*invoker)(Task& task) = nullptr;
  void (*closureDestroy)(Task& task) = nullptr;
};

}  // namespace ats
