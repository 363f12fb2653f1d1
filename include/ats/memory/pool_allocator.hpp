#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "locks/locks.hpp"
#include "memory/allocator.hpp"

namespace ats {

class PoolThreadCache;

/// The §4 thread-caching scalable allocator (the jemalloc role in the
/// paper's ablation), specialized for task-descriptor-sized churn.
///
/// Three tiers, hot to cold:
///
///   * **Magazines** — per-thread, per-size-class LIFO arrays of free
///     blocks.  The hot path (allocate/free on the same thread) is a
///     bump of a thread-local counter: no atomics, no locks, no shared
///     cache lines.
///   * **Remote-free lists** — one Treiber stack per thread cache.  A
///     block freed on a thread other than its allocator goes back to
///     the *owning* thread's remote list (the producer/consumer
///     `crossFree` shape: a successor's releasing thread frees the
///     predecessor's descriptor).  The freeing thread chains such blocks
///     in a thread-local batch and publishes the whole chain with one
///     release-CAS when it holds kRemoteBatch blocks, when the next
///     remote free has another owner, and at thread exit — so at most
///     threads x (kRemoteBatch - 1) blocks are ever in flight unseen.
///     The owner drains the whole list with a single exchange the next
///     time a magazine runs dry, so cross-thread frees never contend on
///     a global lock.
///   * **Central depot** — per-size-class freelist under a SpinLock,
///     refilled by carving chunked slabs from operator new.  Magazines
///     refill from and overflow to the depot in batches of
///     kRefillBatch/kFlushBatch, so depot lock traffic is 1/batch of
///     the allocation rate.  Depots are further sharded by NUMA domain
///     (kNumDepotShards / setThreadDomain): threads on different
///     domains hit disjoint locks and freelists, and carved slabs stay
///     with the carving thread's domain.
///
/// Every block carries a 16-byte header (owning thread cache + size
/// class), so `deallocate` finds the owner without any lookup.  Slabs
/// are carved so that `block + 16` is line-aligned, and every class of
/// 64 bytes or more is a whole number of lines: the user area of such a
/// block starts on a line (Allocator::kLineBytes) with no per-block
/// padding.  Requests too large for the class table fall through to
/// operator new.
///
/// Thread caches are adopted, not destroyed: a cache whose thread exits
/// flushes its magazines to the depot and parks on an inactive list for
/// the next new thread, so its remote-free list keeps accepting frees
/// from surviving threads.  The singleton itself is intentionally
/// leaked — thread-local cache destructors may run arbitrarily late in
/// shutdown and must always find it alive.
///
/// Freed blocks are poisoned with kPoisonByte (default: on in debug
/// builds, off in NDEBUG, toggleable at runtime) so use-after-free of a
/// recycled descriptor surfaces as garbage instead of stale-but-
/// plausible data.
class PoolAllocator final : public Allocator {
 public:
  /// Per-block bookkeeping prefix (owner cache + size class).
  static constexpr std::size_t kHeaderBytes = 16;

  /// Size classes run 32B..8KiB in ~1.5x steps; requests over
  /// kMaxPooledSize fall through to operator new.
  static constexpr std::size_t kNumClasses = 16;
  static constexpr std::size_t kMaxBlockSize = 8192;
  static constexpr std::size_t kMaxPooledSize = kMaxBlockSize - kHeaderBytes;

  /// Magazine geometry: capacity per (thread, class), and the batch
  /// sizes moved per depot interaction.
  static constexpr std::size_t kMagazineCapacity = 64;
  static constexpr std::size_t kRefillBatch = 32;
  static constexpr std::size_t kFlushBatch = 32;

  /// Blocks a thread frees for one other owner before it publishes
  /// them to that owner's remote list with one CAS.
  static constexpr std::size_t kRemoteBatch = 32;

  /// Central depots are sharded by NUMA domain so refill/flush traffic
  /// from different domains never meets on a lock or a freelist cache
  /// line, and carved chunks stay domain-local.  Sized for the largest
  /// preset (Rome's 8 NPS4 domains); larger domain ids wrap.
  static constexpr std::size_t kNumDepotShards = 8;

  static constexpr unsigned char kPoisonByte = 0xDE;

  static PoolAllocator& instance();

  void* allocate(std::size_t size) override;
  void deallocate(void* ptr, std::size_t size) override;
  const char* name() const override { return "pool"; }

  /// Block size (header included) serving a `userSize` request, or 0
  /// when the request falls through to operator new.
  static std::size_t blockSizeFor(std::size_t userSize);

  /// Total slab bytes carved from the system so far (never returned —
  /// the depot keeps chunks for reuse).  A bounded workload plateaus.
  std::size_t reservedBytes() const {
    return reservedBytes_.load(std::memory_order_relaxed);
  }

  /// Bind the calling thread's depot traffic to `domain`'s shard
  /// (modulo kNumDepotShards).  The Runtime calls this per worker with
  /// Topology::domainOfSlot; threads that never call it use shard 0,
  /// which is exactly the pre-sharding single-depot behavior.  Applies
  /// to the caller's current cache immediately and to any cache the
  /// thread adopts later.
  void setThreadDomain(std::size_t domain);

  void setPoisoning(bool on) {
    poison_.store(on, std::memory_order_relaxed);
  }
  bool poisoningEnabled() const {
    return poison_.load(std::memory_order_relaxed);
  }

  /// Test/stats introspection, all relative to the calling thread's
  /// cache: current magazine fill for the class serving `userSize`,
  /// blocks parked in that class's central depots (summed across every
  /// shard; the per-shard variant isolates one), blocks other threads
  /// have published to this thread's remote-free list (a batch still
  /// held by its freeing thread is not counted), and the depot shard
  /// the caller's cache is bound to.
  std::size_t testLocalMagazineFill(std::size_t userSize);
  std::size_t testDepotFree(std::size_t userSize);
  std::size_t testDepotFreeOnShard(std::size_t userSize, std::size_t shard);
  std::size_t testRemotePendingOnCaller();
  std::size_t testCallerDepotShard();

 private:
  friend class PoolThreadCache;

  PoolAllocator();
  ~PoolAllocator() override = default;

  struct alignas(64) Depot {
    SpinLock lock;
    void* freeHead = nullptr;
    std::size_t freeCount = 0;
  };

  PoolThreadCache& localCache();
  void refill(PoolThreadCache& cache, std::size_t cls);
  void drainRemote(PoolThreadCache& cache);
  void stashInMagazine(PoolThreadCache& cache, std::size_t cls,
                       void* block);
  void flushFromMagazine(std::size_t shard, std::size_t cls, void** blocks,
                         std::size_t count);
  // That (shard, cls) depot's lock must be held by the caller.
  void carveChunk(std::size_t shard, std::size_t cls);
  void retireCache(PoolThreadCache* cache);

  Depot depots_[kNumDepotShards][kNumClasses];

  SpinLock cacheLock_;
  std::vector<std::unique_ptr<PoolThreadCache>> caches_;
  PoolThreadCache* inactiveHead_ = nullptr;

  SpinLock chunkLock_;
  std::vector<void*> chunks_;
  std::atomic<std::size_t> reservedBytes_{0};

  std::atomic<bool> poison_;
};

}  // namespace ats
