#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <utility>

namespace ats {

/// Bounded wait-free single-producer/single-consumer ring buffer — the
/// paper's §3.1 add-queue.  Every scheduler add from CPU i goes through
/// one of these instead of the central lock, which is where the
/// "twelvefold speedup over serial insertion" comes from.
///
/// Layout follows the usual fast-SPSC recipe: producer and consumer each
/// own one cache line (`tail_`+`cachedHead_` vs `head_`+`cachedTail_`),
/// and each side caches the other's index so the common case touches no
/// shared line at all.  Capacity is rounded up to a power of two so the
/// index wrap is a mask, and indices are free-running (no modulo on the
/// counters themselves, so full/empty never ambiguate).
///
/// Concurrency contract: at most one thread calls `push` and at most one
/// thread calls `pop`/`consumeAll` at any moment.  The two sides may be
/// different threads over time (the SyncScheduler drains buffers from
/// whichever thread holds the DTLock) as long as handoffs are ordered by
/// a happens-before edge — the lock provides it.
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t minCapacity)
      : capacity_(std::bit_ceil(minCapacity < 2 ? std::size_t{2}
                                                : minCapacity)),
        mask_(capacity_ - 1),
        slots_(std::make_unique<T[]>(capacity_)) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Wait-free; false when the ring is full (caller falls back to the
  /// overflow protocol — in the scheduler, "acquire the lock and drain").
  bool push(const T& value) { return emplace(value); }
  bool push(T&& value) { return emplace(std::move(value)); }

  /// Wait-free; false when the ring is empty.
  bool pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cachedTail_) {
      cachedTail_ = tail_.load(std::memory_order_acquire);
      if (head == cachedTail_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Drain everything currently published, in FIFO order, with a single
  /// index update at the end — the batch the DTLock holder uses when it
  /// moves a whole add-buffer into the ready queue.  Returns the count.
  /// An empty ring returns before writing anything, so polling an idle
  /// ring never takes its consumer line away from another reader.
  template <typename F>
  std::size_t consumeAll(F&& fn) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (tail == head) return 0;
    cachedTail_ = tail;
    for (std::size_t i = head; i != tail; ++i) fn(std::move(slots_[i & mask_]));
    head_.store(tail, std::memory_order_release);
    return tail - head;
  }

  /// Bounded consumeAll: drain at most `maxN` published values, FIFO,
  /// still one index update at the end.  The scheduler's capped drains
  /// use this to bound how much work one lock hold performs; what stays
  /// behind remains published for the next drain.  Returns the drained count;
  /// like consumeAll, writes nothing when the ring is empty.
  template <typename F>
  std::size_t consumeN(std::size_t maxN, F&& fn) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (tail == head) return 0;
    cachedTail_ = tail;
    const std::size_t avail = tail - head;
    const std::size_t take = avail < maxN ? avail : maxN;
    const std::size_t end = head + take;
    for (std::size_t i = head; i != end; ++i) fn(std::move(slots_[i & mask_]));
    head_.store(end, std::memory_order_release);
    return take;
  }

  std::size_t capacity() const { return capacity_; }

  /// Approximate when called concurrently with the other side.  Head is
  /// read first so a pop landing between the two loads cannot push head
  /// past the observed tail (which would wrap the unsigned difference).
  std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  bool empty() const { return size() == 0; }

 private:
  template <typename U>
  bool emplace(U&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cachedHead_ == capacity_) {
      cachedHead_ = head_.load(std::memory_order_acquire);
      if (tail - cachedHead_ == capacity_) return false;
    }
    slots_[tail & mask_] = std::forward<U>(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<T[]> slots_;

  // Consumer-owned line: index plus a local copy of the producer's tail.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t cachedTail_ = 0;

  // Producer-owned line: index plus a local copy of the consumer's head.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t cachedHead_ = 0;
};

}  // namespace ats
