#include "memory/pool_allocator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "containers/spsc_queue.hpp"
#include "memory/system_allocator.hpp"

namespace ats {
namespace {

bool isFundamentallyAligned(void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % Allocator::kAlignment == 0;
}

/// Run `fn` on a brand-new thread so it starts from a thread cache with
/// empty magazines — magazine-geometry assertions need that determinism
/// (the main gtest thread's cache accumulates state across tests).
template <typename Fn>
void onFreshThread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

TEST(SystemAllocatorTest, RoundTripsAndAligns) {
  SystemAllocator& alloc = SystemAllocator::instance();
  EXPECT_STREQ(alloc.name(), "system");
  for (std::size_t size : {1u, 17u, 256u, 8192u, 100000u}) {
    void* p = alloc.allocate(size);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(isFundamentallyAligned(p));
    std::memset(p, 0xAB, size);
    alloc.deallocate(p, size);
  }
}

TEST(PoolAllocatorTest, SizeClassTableIsSaneAtBoundaries) {
  std::size_t prev = 0;
  for (std::size_t size = 0; size <= PoolAllocator::kMaxPooledSize;
       ++size) {
    const std::size_t block = PoolAllocator::blockSizeFor(size);
    ASSERT_GE(block, size + PoolAllocator::kHeaderBytes)
        << "class too small for request " << size;
    ASSERT_GE(block, prev) << "class table not monotonic at " << size;
    ASSERT_EQ(block % Allocator::kAlignment, 0u)
        << "class " << block << " would misalign user pointers";
    prev = block;
  }
  // One past the pooled ceiling falls through to operator new.
  EXPECT_EQ(PoolAllocator::blockSizeFor(PoolAllocator::kMaxPooledSize + 1),
            0u);
}

TEST(PoolAllocatorTest, AlignmentAndWritabilityAcrossClassesAndLargePath) {
  PoolAllocator& pool = PoolAllocator::instance();
  EXPECT_STREQ(pool.name(), "pool");
  // Class boundaries (block-16 and block-16+1 for every class size),
  // plus the operator-new fallthrough sizes.
  std::vector<std::size_t> sizes = {1, 15, 16, 17, 255, 256, 257};
  for (std::size_t s = 32; s <= PoolAllocator::kMaxBlockSize; s *= 2) {
    sizes.push_back(s - PoolAllocator::kHeaderBytes);
    sizes.push_back(s - PoolAllocator::kHeaderBytes + 1);
  }
  sizes.push_back(PoolAllocator::kMaxPooledSize);
  sizes.push_back(PoolAllocator::kMaxPooledSize + 1);
  sizes.push_back(1 << 20);

  for (std::size_t size : sizes) {
    void* p = pool.allocate(size);
    ASSERT_NE(p, nullptr) << "size " << size;
    EXPECT_TRUE(isFundamentallyAligned(p)) << "size " << size;
    std::memset(p, 0xCD, size);  // every byte must be ours
    pool.deallocate(p, size);
  }
}

TEST(PoolAllocatorTest, MagazineRefillsInBatchesAndRecyclesLifo) {
  onFreshThread([] {
    PoolAllocator& pool = PoolAllocator::instance();
    // A class the runtime's descriptor/closure churn does not use, so
    // depot/magazine counts are all ours.
    constexpr std::size_t kSize = 6000;

    // First allocation forces a refill of kRefillBatch blocks: one
    // comes back to us, the rest sit in the magazine.
    void* p = pool.allocate(kSize);
    EXPECT_EQ(pool.testLocalMagazineFill(kSize),
              PoolAllocator::kRefillBatch - 1);

    // Same-thread free goes back to the magazine (LIFO), and the next
    // allocation returns exactly that block without any refill.
    pool.deallocate(p, kSize);
    EXPECT_EQ(pool.testLocalMagazineFill(kSize),
              PoolAllocator::kRefillBatch);
    void* q = pool.allocate(kSize);
    EXPECT_EQ(q, p);
    pool.deallocate(q, kSize);
  });
}

TEST(PoolAllocatorTest, MagazineOverflowFlushesBatchToDepot) {
  onFreshThread([] {
    PoolAllocator& pool = PoolAllocator::instance();
    constexpr std::size_t kSize = 6000;

    // Hold enough live blocks to overfill one magazine when freed.
    constexpr std::size_t kLive = PoolAllocator::kMagazineCapacity + 8;
    void* live[kLive];
    for (void*& p : live) p = pool.allocate(kSize);

    const std::size_t depotBefore = pool.testDepotFree(kSize);
    for (void* p : live) pool.deallocate(p, kSize);

    // The magazine capped at kMagazineCapacity; the overflow triggered
    // at least one kFlushBatch spill to the central depot.
    EXPECT_LE(pool.testLocalMagazineFill(kSize),
              PoolAllocator::kMagazineCapacity);
    EXPECT_GE(pool.testDepotFree(kSize),
              depotBefore + PoolAllocator::kFlushBatch);
  });
}

TEST(PoolAllocatorTest, RemoteFreesDrainOnRefill) {
  PoolAllocator& pool = PoolAllocator::instance();
  constexpr std::size_t kSize = 6000;
  constexpr std::size_t kBlocks = 16;

  std::vector<void*> blocks(kBlocks);
  std::atomic<bool> freed{false};

  onFreshThread([&] {
    // T0 (this fresh thread) allocates and publishes, then waits for
    // the remote frees to land on its cache's remote list...
    for (void*& p : blocks) p = pool.allocate(kSize);

    std::thread t1([&] {
      for (void* p : blocks) pool.deallocate(p, kSize);
      freed.store(true, std::memory_order_release);
    });
    t1.join();
    ASSERT_TRUE(freed.load(std::memory_order_acquire));
    EXPECT_EQ(pool.testRemotePendingOnCaller(), kBlocks);

    // ...then drains the whole list the next time a magazine refills.
    // Drain the magazine's leftovers first so the next allocate must
    // refill.
    std::vector<void*> warm;
    while (pool.testLocalMagazineFill(kSize) > 0)
      warm.push_back(pool.allocate(kSize));
    void* p = pool.allocate(kSize);
    EXPECT_EQ(pool.testRemotePendingOnCaller(), 0u);
    pool.deallocate(p, kSize);
    for (void* w : warm) pool.deallocate(w, kSize);
  });
}

TEST(PoolAllocatorTest, RemoteFreeBatchesReachTheirOwner) {
  // One freeing thread holds the blocks it frees for another owner and
  // publishes them on a full batch, when the owner changes, and at its
  // exit.  None is lost: the owner gets back exactly its blocks.
  PoolAllocator& pool = PoolAllocator::instance();
  constexpr std::size_t kSize = 6000;
  constexpr std::size_t kBatch = PoolAllocator::kRemoteBatch;
  constexpr std::size_t kOnOwnerChange = 3;
  constexpr std::size_t kAtExit = 5;

  void* otherOwners = pool.allocate(kSize);  // owned by this thread
  const std::size_t otherBefore = pool.testRemotePendingOnCaller();

  onFreshThread([&] {
    std::vector<void*> blocks(kBatch + kOnOwnerChange + kAtExit);
    for (void*& p : blocks) p = pool.allocate(kSize);

    std::atomic<int> step{0};
    const auto waitFor = [&step](int value) {
      while (step.load(std::memory_order_acquire) != value)
        std::this_thread::yield();
    };
    std::thread freer([&] {
      std::size_t next = 0;
      while (next < kBatch - 1) pool.deallocate(blocks[next++], kSize);
      step.store(1, std::memory_order_release);
      waitFor(2);
      pool.deallocate(blocks[next++], kSize);  // fills the batch
      step.store(3, std::memory_order_release);
      waitFor(4);
      for (std::size_t i = 0; i < kOnOwnerChange; ++i)
        pool.deallocate(blocks[next++], kSize);
      pool.deallocate(otherOwners, kSize);  // another owner
      step.store(5, std::memory_order_release);
      waitFor(6);
      while (next < blocks.size()) pool.deallocate(blocks[next++], kSize);
    });

    waitFor(1);
    EXPECT_EQ(pool.testRemotePendingOnCaller(), 0u) << "published early";
    step.store(2, std::memory_order_release);
    waitFor(3);
    EXPECT_EQ(pool.testRemotePendingOnCaller(), kBatch);
    step.store(4, std::memory_order_release);
    waitFor(5);
    EXPECT_EQ(pool.testRemotePendingOnCaller(), kBatch + kOnOwnerChange);
    step.store(6, std::memory_order_release);
    freer.join();
    EXPECT_EQ(pool.testRemotePendingOnCaller(), blocks.size());

    // Empty the magazine, then refill from the remote list: exactly the
    // freed blocks come back.
    std::vector<void*> warm;
    while (pool.testLocalMagazineFill(kSize) > 0)
      warm.push_back(pool.allocate(kSize));
    std::set<void*> back;
    for (std::size_t i = 0; i < blocks.size(); ++i)
      back.insert(pool.allocate(kSize));
    EXPECT_EQ(pool.testRemotePendingOnCaller(), 0u);
    EXPECT_EQ(back, std::set<void*>(blocks.begin(), blocks.end()));
    for (void* p : back) pool.deallocate(p, kSize);
    for (void* w : warm) pool.deallocate(w, kSize);
  });
  // The owner change flushed the earlier batch; the block for this
  // thread went out when the next free switched owners back.
  EXPECT_EQ(pool.testRemotePendingOnCaller(), otherBefore + 1);
}

TEST(PoolAllocatorTest, ReuseAfterFreeIsPoisoned) {
  PoolAllocator& pool = PoolAllocator::instance();
  const bool wasPoisoning = pool.poisoningEnabled();
  pool.setPoisoning(true);

  constexpr std::size_t kSize = 200;
  unsigned char* p = static_cast<unsigned char*>(pool.allocate(kSize));
  std::memset(p, 0xAB, kSize);
  pool.deallocate(p, kSize);

  // LIFO magazine hands the same block straight back — and every byte
  // of the old payload must be gone.
  unsigned char* q = static_cast<unsigned char*>(pool.allocate(kSize));
  ASSERT_EQ(q, p);
  for (std::size_t i = 0; i < kSize; ++i) {
    ASSERT_EQ(q[i], PoolAllocator::kPoisonByte)
        << "stale byte survived free at offset " << i;
  }
  pool.deallocate(q, kSize);
  pool.setPoisoning(wasPoisoning);
}

TEST(PoolAllocatorTest, ThreadDomainRoutesDepotTrafficToItsShard) {
  onFreshThread([] {
    PoolAllocator& pool = PoolAllocator::instance();
    constexpr std::size_t kSize = 6000;
    constexpr std::size_t kShard = 3;

    // Fresh threads start on shard 0; rebinding to domain 3 must move
    // this thread's flush traffic onto shard 3 and leave the rest alone.
    EXPECT_EQ(pool.testCallerDepotShard(), 0u);
    pool.setThreadDomain(kShard);
    EXPECT_EQ(pool.testCallerDepotShard(), kShard);

    std::size_t othersBefore = 0;
    for (std::size_t s = 0; s < PoolAllocator::kNumDepotShards; ++s) {
      if (s != kShard) othersBefore += pool.testDepotFreeOnShard(kSize, s);
    }
    const std::size_t shardBefore = pool.testDepotFreeOnShard(kSize, kShard);

    // Overfill one magazine so freeing everything spills kFlushBatch
    // blocks into the depot — all of it on OUR shard.
    constexpr std::size_t kLive = PoolAllocator::kMagazineCapacity + 8;
    void* live[kLive];
    for (void*& p : live) p = pool.allocate(kSize);
    for (void* p : live) pool.deallocate(p, kSize);

    EXPECT_GE(pool.testDepotFreeOnShard(kSize, kShard),
              shardBefore + PoolAllocator::kFlushBatch);
    std::size_t othersAfter = 0;
    for (std::size_t s = 0; s < PoolAllocator::kNumDepotShards; ++s) {
      if (s != kShard) othersAfter += pool.testDepotFreeOnShard(kSize, s);
    }
    EXPECT_EQ(othersAfter, othersBefore)
        << "a domain-bound thread leaked depot traffic onto foreign shards";
  });
}

TEST(PoolAllocatorTest, ThreadDomainWrapsAroundTheShardCount) {
  onFreshThread([] {
    PoolAllocator& pool = PoolAllocator::instance();
    // More domains than shards (a 16-domain box, say) must fold modulo
    // kNumDepotShards, never index out of the shard array.
    pool.setThreadDomain(PoolAllocator::kNumDepotShards + 2);
    EXPECT_EQ(pool.testCallerDepotShard(), 2u);
    pool.setThreadDomain(0);
    EXPECT_EQ(pool.testCallerDepotShard(), 0u);
  });
}

/// Four threads on four distinct shards churning the same size class:
/// shards must keep them off each other's locks (TSan co-asserts the
/// locking is still right) and blocks must keep round-tripping — the
/// sharding must not turn recycling into unbounded slab growth.
TEST(PoolAllocatorTest, CrossDomainChurnConservesBlocksAcrossShards) {
  PoolAllocator& pool = PoolAllocator::instance();
  constexpr std::size_t kSize = 3000;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  constexpr std::size_t kLive = PoolAllocator::kMagazineCapacity + 8;

  const std::size_t reservedBefore = pool.reservedBytes();
  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&pool, t] {
      pool.setThreadDomain(static_cast<std::size_t>(t));
      std::vector<void*> live(kLive);
      for (int round = 0; round < kRounds; ++round) {
        for (void*& p : live) p = pool.allocate(kSize);
        for (void* p : live) pool.deallocate(p, kSize);
      }
    });
  }
  for (std::thread& t : churners) t.join();

  // Each thread held kLive blocks at once; growth must reflect that
  // window times the shard count, not the round count.
  const std::size_t grown = pool.reservedBytes() - reservedBefore;
  EXPECT_LT(grown, 16u * 1024 * 1024)
      << "per-domain shards are hoarding instead of recycling";
}

/// 8-thread cross-thread free stress: T0 allocates task-descriptor-
/// sized blocks and deals them round-robin into one SPSC pipe per
/// consumer; T1..N free whatever they receive.  Checks the remote-free path under real
/// contention (TSan is the co-assertion), and that recycling keeps slab
/// growth bounded — blocks must round-trip, not accumulate.
TEST(PoolAllocatorTest, CrossThreadFreeStressStaysBounded) {
  PoolAllocator& pool = PoolAllocator::instance();
  constexpr std::size_t kSize = 240;
  constexpr int kRounds = 20000;
  constexpr int kConsumers = 7;

  const std::size_t reservedBefore = pool.reservedBytes();

  // 7 x 128 slots: about the in-flight window of one 1024-slot pipe.
  std::vector<std::unique_ptr<SpscQueue<void*>>> pipes;
  for (int c = 0; c < kConsumers; ++c)
    pipes.push_back(std::make_unique<SpscQueue<void*>>(128));
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      // Round-robin dealing gives consumer c every round i with
      // i % kConsumers == c.
      const int share = (kRounds - c + kConsumers - 1) / kConsumers;
      SpscQueue<void*>& pipe = *pipes[static_cast<std::size_t>(c)];
      for (int received = 0; received < share;) {
        void* p = nullptr;
        if (pipe.pop(p)) {
          pool.deallocate(p, kSize);
          ++received;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  for (int i = 0; i < kRounds; ++i) {
    void* p = pool.allocate(kSize);
    std::memset(p, 0x5A, kSize);
    SpscQueue<void*>& pipe = *pipes[static_cast<std::size_t>(i % kConsumers)];
    while (!pipe.push(p)) std::this_thread::yield();
  }
  for (std::thread& t : consumers) t.join();

  // 20k blocks round-tripped through at most (pipes + magazines) live
  // at once; slab growth must reflect that window, not the total.
  const std::size_t grown = pool.reservedBytes() - reservedBefore;
  EXPECT_LT(grown, 4u * 1024 * 1024)
      << "cross-thread frees are not being recycled";
}

}  // namespace
}  // namespace ats
