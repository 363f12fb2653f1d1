#include "runtime/scheduler_factory.hpp"
#include "sched/central_mutex_scheduler.hpp"
#include "sched/policies.hpp"
#include "sched/ptlock_scheduler.hpp"
#include "sched/sync_scheduler.hpp"
#include "sched/work_stealing_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "runtime/task.hpp"

namespace ats {
namespace {

Topology testTopo(std::size_t cpus) {
  return makeTopology(MachinePreset::Host, cpus);
}

std::unique_ptr<Scheduler> makeByName(const std::string& which,
                                      std::size_t cpus,
                                      std::size_t spscCapacity = 256) {
  const Topology topo = testTopo(cpus);
  if (which == "central_mutex")
    return std::make_unique<CentralMutexScheduler>(topo);
  if (which == "ptlock")
    return std::make_unique<PTLockScheduler>(
        topo, std::make_unique<FifoPolicy>());
  if (which == "work_steal")
    return std::make_unique<WorkStealingScheduler>(topo, spscCapacity);
  // Rome-preset variants pin the multi-domain paths: `cpus` CPUs shrink
  // the 8-domain preset to one CPU per domain, so every waiter is served
  // in its own domain's view and the NumaFifo policy's queues are
  // maximally split.
  if (which == "sync_dtlock_rome") {
    const Topology rome = makeTopology(MachinePreset::Rome, cpus);
    return std::make_unique<SyncScheduler>(
        rome, std::make_unique<NumaFifoPolicy>(rome), spscCapacity);
  }
  if (which == "ptlock_rome") {
    const Topology rome = makeTopology(MachinePreset::Rome, cpus);
    return std::make_unique<PTLockScheduler>(
        rome, std::make_unique<NumaFifoPolicy>(rome), spscCapacity);
  }
  return std::make_unique<SyncScheduler>(
      topo, std::make_unique<FifoPolicy>(), spscCapacity);
}

class EverySchedulerTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Designs, EverySchedulerTest,
                         ::testing::Values("central_mutex", "ptlock",
                                           "ptlock_rome", "sync_dtlock",
                                           "sync_dtlock_rome", "work_steal"));

TEST_P(EverySchedulerTest, EmptySchedulerReturnsNull) {
  auto sched = makeByName(GetParam(), 4);
  EXPECT_EQ(sched->getReadyTask(0), nullptr);
  EXPECT_EQ(sched->getReadyTask(3), nullptr);
}

TEST_P(EverySchedulerTest, SingleThreadFifoRoundTrip) {
  auto sched = makeByName(GetParam(), 4);
  std::vector<Task> pool(100);
  for (auto& t : pool) sched->addReadyTask(&t, 0);
  for (auto& t : pool) {
    // A single producer's adds must come back in insertion order under
    // the FIFO policy, whichever CPU asks.
    EXPECT_EQ(sched->getReadyTask(1), &t);
  }
  EXPECT_EQ(sched->getReadyTask(1), nullptr);
}

/// One producer, three consumers: every enqueued task pointer must come
/// back exactly once — the conservation law the micro_dtlock flood
/// assumes.  Runs the exact thread shape of the bench.
TEST_P(EverySchedulerTest, FloodConservesTasksExactlyOnce) {
  constexpr std::size_t kTasks = 20000;
  constexpr int kConsumers = 3;
  auto sched = makeByName(GetParam(), kConsumers + 1);
  std::vector<Task> pool(kTasks);

  std::atomic<std::size_t> retrieved{0};
  std::vector<std::vector<Task*>> got(kConsumers);

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (auto& t : pool) sched->addReadyTask(&t, 0);
  });
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t cpu = static_cast<std::size_t>(c) + 1;
      while (retrieved.load(std::memory_order_relaxed) < kTasks) {
        Task* t = sched->getReadyTask(cpu);
        if (t != nullptr) {
          got[static_cast<std::size_t>(c)].push_back(t);
          retrieved.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<Task*> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kTasks);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(all[i], &pool[i]) << "a task was lost or handed out twice";
  }
  EXPECT_EQ(sched->getReadyTask(0), nullptr);
}

TEST(SyncSchedulerTest, OverflowDrainLosesNothingAndKeepsOrder) {
  // Buffer of 8 while 1000 tasks pour in from one thread with no
  // consumer: the overflow help-drain path runs ~125 times.
  auto sched = std::make_unique<SyncScheduler>(
      testTopo(2), std::make_unique<FifoPolicy>(), 8);
  std::vector<Task> pool(1000);
  for (auto& t : pool) sched->addReadyTask(&t, 0);
  for (auto& t : pool) {
    ASSERT_EQ(sched->getReadyTask(1), &t);
  }
  EXPECT_EQ(sched->getReadyTask(1), nullptr);
}

/// An idle getter skips the lock only when every ring is empty AND the
/// policy was empty at the last unlock.  One get moves a whole ring
/// into the policy and takes one task; the rest, now only in the
/// policy, must still come out of later gets on other CPUs.
TEST_P(EverySchedulerTest, TasksLeftInThePolicyOutliveEmptyRings) {
  auto sched = makeByName(GetParam(), 4);
  constexpr std::size_t kTasks = 10;  // under every drain burst cap
  std::vector<Task> pool(kTasks);
  for (auto& t : pool) sched->addReadyTask(&t, 0);
  std::vector<Task*> got;
  if (Task* t = sched->getReadyTask(1)) got.push_back(t);
  for (std::size_t cpu = 2; got.size() < kTasks; cpu = 5 - cpu) {
    Task* t = sched->getReadyTask(cpu);
    ASSERT_NE(t, nullptr) << "a task was stranded after " << got.size();
    got.push_back(t);
  }
  std::sort(got.begin(), got.end());
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(got[i], &pool[i]);
  EXPECT_EQ(sched->getReadyTask(3), nullptr);
}

TEST(SyncSchedulerTest, PerCpuBuffersDrainFromAnyGetter) {
  auto sched = std::make_unique<SyncScheduler>(
      testTopo(4), std::make_unique<FifoPolicy>(), 64);
  std::vector<Task> pool(8);
  // Adds from several different CPUs sit in distinct SPSC buffers...
  for (std::size_t i = 0; i < pool.size(); ++i) {
    sched->addReadyTask(&pool[i], i % 4);
  }
  // ...and one getter on yet another CPU sees all of them.
  std::vector<Task*> got;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Task* t = sched->getReadyTask(3);
    ASSERT_NE(t, nullptr);
    got.push_back(t);
  }
  EXPECT_EQ(sched->getReadyTask(3), nullptr);
  std::sort(got.begin(), got.end());
  for (std::size_t i = 0; i < pool.size(); ++i) EXPECT_EQ(got[i], &pool[i]);
}

TEST(AddBufferSetTest, CappedDrainReachesEveryRing) {
  Topology topo;
  topo.numCpus = 4;
  topo.numNumaDomains = 2;
  topo.reservedSlots = 1;  // slot 4: the Runtime's spawner ring
  AddBufferSet buffers(topo, 16);
  EXPECT_EQ(buffers.numCpus(), 5u);

  FifoPolicy fifo;
  std::vector<Task> pool(6);
  ASSERT_TRUE(buffers.tryPush(&pool[0], 0));
  ASSERT_TRUE(buffers.tryPush(&pool[1], 0));
  ASSERT_TRUE(buffers.tryPush(&pool[2], 2));
  ASSERT_TRUE(buffers.tryPush(&pool[3], 3));
  ASSERT_TRUE(buffers.tryPush(&pool[4], 4));  // reserved spawner slot
  ASSERT_TRUE(buffers.tryPush(&pool[5], 4));

  // A capped drain moves exactly the cap, rings in slot order, each
  // ring FIFO: this one stops inside the spawner's ring at the last
  // slot, and what the cap left there stays published.
  EXPECT_EQ(buffers.drain(fifo, 5), 5u);
  EXPECT_FALSE(buffers.nothingReady());
  EXPECT_EQ(buffers.drain(fifo, 4), 1u);
  // A drain that moves nothing leaves every ring empty.
  EXPECT_EQ(buffers.drain(fifo, 1), 0u);
  buffers.notePolicyState(fifo);
  EXPECT_FALSE(buffers.nothingReady());  // the policy still holds them

  std::vector<Task*> got;
  while (Task* t = fifo.getTask(0)) got.push_back(t);
  ASSERT_EQ(got.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) EXPECT_EQ(got[i], &pool[i]);
  buffers.notePolicyState(fifo);
  EXPECT_TRUE(buffers.nothingReady());
}

/// The no-stranding guarantee: a domain with producers but NO getters
/// must still drain.  Every drain reaches every ring, and NumaFifo's
/// round-robin fallback then hands the tasks across domains.
TEST(SyncSchedulerTest, ProducerOnlyDomainStillDrainsCrossDomain) {
  Topology topo;
  topo.numCpus = 4;
  topo.numNumaDomains = 2;  // CPUs 0-1 -> domain 0; 2-3 -> domain 1
  SyncScheduler sched(topo, std::make_unique<NumaFifoPolicy>(topo));
  std::vector<Task> pool(100);
  for (auto& t : pool) sched.addReadyTask(&t, 0);  // domain-0 producer only
  // Only domain-1 CPUs ever ask; every domain-0 task must reach them,
  // in order (single producer, FIFO within its domain queue).
  for (auto& t : pool) ASSERT_EQ(sched.getReadyTask(2), &t);
  EXPECT_EQ(sched.getReadyTask(3), nullptr);
}

/// The serve answers a delegated waiter in the WAITER's locality view:
/// under NumaFifo a domain-1 waiter gets the domain-1 task even though
/// the holder's own domain still has work.  The holder is parked inside
/// its serve by the serve_batch delay failpoint so the waiter is sure to
/// delegate; if it took the lock itself, its own getTask would give the
/// same answer, so the check cannot fail spuriously.
TEST(SyncSchedulerTest, DelegatedWaiterIsServedFromItsOwnDomain) {
  Topology topo;
  topo.numCpus = 4;
  topo.numNumaDomains = 2;  // CPUs 0-1 -> domain 0; 2-3 -> domain 1
  SyncScheduler sched(topo, std::make_unique<NumaFifoPolicy>(topo));
  std::vector<Task> local(3);
  Task remote;
  for (auto& t : local) sched.addReadyTask(&t, 0);
  sched.addReadyTask(&remote, 2);
  // Move everything into the policy; local[1], local[2], remote stay.
  ASSERT_EQ(sched.getReadyTask(0), &local[0]);

  Failpoint& serve = FailpointRegistry::instance().site("serve_batch");
  serve.resetCounters();
  serve.arm(FailpointMode::DelayUs, 1.0, 1, 200000);
  Task* holderGot = nullptr;
  std::thread holder([&] { holderGot = sched.getReadyTask(0); });
  while (serve.fires() == 0) std::this_thread::yield();
  Task* waiterGot = sched.getReadyTask(2);
  holder.join();
  serve.disarm();

  EXPECT_EQ(holderGot, &local[1]);
  EXPECT_EQ(waiterGot, &remote);
  EXPECT_EQ(sched.getReadyTask(1), &local[2]);
  EXPECT_EQ(sched.getReadyTask(3), nullptr);
}

TEST(SchedulerFactoryTest, BuildsTheConfiguredDesign) {
  const Topology topo = testTopo(4);
  EXPECT_STREQ(makeScheduler(centralMutexRuntimeConfig(topo))->name(),
               "central_mutex");
  EXPECT_STREQ(makeScheduler(withoutDTLockConfig(topo))->name(),
               "ptlock_central");
  EXPECT_STREQ(makeScheduler(optimizedConfig(topo))->name(), "sync_dtlock");
  // The real work-stealing design, not the former SyncScheduler alias.
  EXPECT_STREQ(makeScheduler(workStealingRuntimeConfig(topo))->name(),
               "work_steal");
}

TEST(SchedulerFactoryTest, KindNamesMatchSchedulerNames) {
  // schedulerKindName is the label benches and error paths print; it
  // must agree with what the constructed scheduler calls itself.
  const Topology topo = testTopo(4);
  for (const SchedulerKind kind :
       {SchedulerKind::CentralMutex, SchedulerKind::PTLockCentral,
        SchedulerKind::SyncDelegation, SchedulerKind::WorkStealing}) {
    RuntimeConfig config = optimizedConfig(topo);
    config.scheduler = kind;
    EXPECT_STREQ(makeScheduler(config)->name(), schedulerKindName(kind));
  }
}

TEST(WorkStealingSchedulerTest, SpawnerSlotDequeIsStealOnlyIngress) {
  // Adds submitted from the reserved spawner slot (slot == numCpus) land
  // in that slot's own deque and are reachable from any worker via the
  // steal path — the external-submission story.
  Topology topo = testTopo(4);
  topo.reservedSlots = 1;  // what the Runtime does before construction
  WorkStealingScheduler sched(topo);
  std::vector<Task> pool(10);
  for (auto& t : pool) sched.addReadyTask(&t, topo.numCpus);
  for (auto& t : pool) EXPECT_EQ(sched.getReadyTask(2), &t);
  EXPECT_EQ(sched.getReadyTask(2), nullptr);
}

TEST(WorkStealingSchedulerTest, LocalPopIsLifoThenStealsAreFifo) {
  // The owner drains its own deque newest-first (depth-first fast
  // path); a different slot then steals oldest-first.
  WorkStealingScheduler sched(testTopo(4));
  std::vector<Task> pool(6);
  for (auto& t : pool) sched.addReadyTask(&t, 1);
  EXPECT_EQ(sched.getReadyTask(1), &pool[5]);
  EXPECT_EQ(sched.getReadyTask(1), &pool[4]);
  EXPECT_EQ(sched.getReadyTask(2), &pool[0]);
  EXPECT_EQ(sched.getReadyTask(2), &pool[1]);
  EXPECT_EQ(sched.getReadyTask(1), &pool[3]);
  EXPECT_EQ(sched.getReadyTask(1), &pool[2]);
  EXPECT_EQ(sched.getReadyTask(1), nullptr);
  EXPECT_EQ(sched.getReadyTask(2), nullptr);
}

TEST(WorkStealingSchedulerTest, RemoteProbeRotationReachesEveryVictim) {
  // Full Rome: slot 0 has 112 remote victims, more than one call's
  // kStealProbeLimit probes, so only the rotating cursor can reach the
  // last of them.  Rebuild slot 0's remote probe order (slot ring from
  // 1, other domains only) and park one task in its last victim.
  const Topology rome = makeTopology(MachinePreset::Rome);
  WorkStealingScheduler sched(rome);
  std::vector<std::size_t> remotes;
  for (std::size_t v = 1; v < rome.slotCount(); ++v) {
    if (rome.domainOfSlot(v) != rome.domainOfSlot(0)) remotes.push_back(v);
  }
  ASSERT_GT(remotes.size(), WorkStealingScheduler::kStealProbeLimit);
  Task task;
  sched.addReadyTask(&task, remotes.back());

  const std::size_t bound =
      (remotes.size() + WorkStealingScheduler::kStealProbeLimit - 1) /
      WorkStealingScheduler::kStealProbeLimit;
  EXPECT_EQ(sched.getReadyTask(0), nullptr)
      << "the first bounded probe must stop short of the last victim";
  std::size_t calls = 1;
  Task* got = nullptr;
  while (got == nullptr && calls < bound) {
    got = sched.getReadyTask(0);
    ++calls;
  }
  EXPECT_EQ(got, &task) << "not reached within " << bound << " calls";
  EXPECT_EQ(sched.getReadyTask(0), nullptr);
}

// ------------------------------------------------------------- policies

TEST(PolicyTest, FifoIsPlainFifo) {
  FifoPolicy fifo;
  std::vector<Task> pool(5);
  EXPECT_EQ(fifo.getTask(0), nullptr);
  for (auto& t : pool) fifo.addTask(&t, 0);
  for (auto& t : pool) EXPECT_EQ(fifo.getTask(2), &t);
  EXPECT_EQ(fifo.getTask(0), nullptr);
  EXPECT_STREQ(fifo.policyName(), "fifo");
}

TEST(PolicyTest, LifoReturnsNewestFirst) {
  LifoPolicy lifo;
  std::vector<Task> pool(5);
  EXPECT_EQ(lifo.getTask(0), nullptr);
  for (auto& t : pool) lifo.addTask(&t, 0);
  for (std::size_t i = pool.size(); i-- > 0;) {
    EXPECT_EQ(lifo.getTask(1), &pool[i]);
  }
  EXPECT_EQ(lifo.getTask(0), nullptr);
  EXPECT_STREQ(lifo.policyName(), "lifo");
}

TEST(PolicyTest, NumaFifoPrefersLocalDomainThenFallsBack) {
  // Rome-shaped 8-CPU topology: 8 domains collapse to min(8, ...) per
  // makeTopology; build an explicit 2-domain shape instead so the
  // domain math is known: CPUs 0-1 -> domain 0, CPUs 2-3 -> domain 1.
  Topology topo;
  topo.numCpus = 4;
  topo.numNumaDomains = 2;
  NumaFifoPolicy numa(topo);

  std::vector<Task> pool(4);
  numa.addTask(&pool[0], 0);  // domain 0
  numa.addTask(&pool[1], 1);  // domain 0
  numa.addTask(&pool[2], 2);  // domain 1
  numa.addTask(&pool[3], 3);  // domain 1

  // A domain-1 CPU drains its own domain (FIFO within it) first...
  EXPECT_EQ(numa.getTask(2), &pool[2]);
  EXPECT_EQ(numa.getTask(3), &pool[3]);
  // ...then falls back to the remote domain instead of idling.
  EXPECT_EQ(numa.getTask(2), &pool[0]);
  EXPECT_EQ(numa.getTask(2), &pool[1]);
  EXPECT_EQ(numa.getTask(2), nullptr);
  EXPECT_STREQ(numa.policyName(), "numa_fifo");
}

TEST(PolicyTest, NumaFifoConservesAcrossDomainsExactlyOnce) {
  Topology topo;
  topo.numCpus = 8;
  topo.numNumaDomains = 4;
  NumaFifoPolicy numa(topo);
  std::vector<Task> pool(200);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    numa.addTask(&pool[i], i % topo.numCpus);
  }
  std::vector<Task*> all;
  // Pull from rotating CPUs, each in its own locality view.
  std::size_t cpu = 0;
  while (Task* t = numa.getTask(cpu)) {
    all.push_back(t);
    cpu = (cpu + 5) % topo.numCpus;
  }
  ASSERT_EQ(all.size(), pool.size());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < pool.size(); ++i) EXPECT_EQ(all[i], &pool[i]);
}

TEST(PolicyTest, NumaFifoConcurrentAddGetConservesWithoutOuterLock) {
  // ISSUE-9: the per-domain lock hierarchy IS the serialization now —
  // hammer the policy from concurrent producers and consumers pinned to
  // different domains, with NO outer lock, and require exactly-once
  // delivery.  (Every other policy still needs the scheduler's mutual
  // exclusion; NumaFifo must stand alone.)
  Topology topo;
  topo.numCpus = 8;
  topo.numNumaDomains = 4;  // CPUs 2d, 2d+1 -> domain d
  NumaFifoPolicy numa(topo);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::size_t kPerProducer = 5000;
  std::vector<Task> pool(kProducers * kPerProducer);
  std::vector<std::atomic<int>> popped(pool.size());

  std::atomic<std::size_t> producersLive{kProducers};
  std::atomic<std::size_t> consumed{0};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      // Producer p feeds domain p through CPU 2p; its adds land
      // interleaved with every consumer's pulls.
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        numa.addTask(&pool[p * kPerProducer + i], 2 * p);
      }
      producersLive.fetch_sub(1, std::memory_order_release);
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      // Consumer c is homed on domain c (CPU 2c+1) but drains remote
      // domains too once its own runs dry — the cross-domain fallback
      // path under real concurrency.
      while (consumed.load(std::memory_order_relaxed) < pool.size()) {
        if (Task* t = numa.getTask(2 * c + 1)) {
          const auto index = static_cast<std::size_t>(t - pool.data());
          popped[index].fetch_add(1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else if (producersLive.load(std::memory_order_acquire) == 0 &&
                   consumed.load(std::memory_order_relaxed) == pool.size()) {
          break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(consumed.load(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ASSERT_EQ(popped[i].load(), 1) << "task " << i
                                   << " delivered zero or multiple times";
  }
}

TEST(PolicyTest, NumaFifoToleratesDegenerateTopology) {
  // A hand-built zero-domain topology must degrade to one global FIFO,
  // not divide by zero inside the domain math.
  Topology topo;
  topo.numCpus = 0;
  topo.numNumaDomains = 0;
  NumaFifoPolicy numa(topo);
  std::vector<Task> pool(3);
  for (auto& t : pool) numa.addTask(&t, 0);
  for (auto& t : pool) EXPECT_EQ(numa.getTask(0), &t);
  EXPECT_EQ(numa.getTask(0), nullptr);
}

TEST(PolicyTest, MakePolicyBuildsEveryKind) {
  const Topology topo = testTopo(4);
  EXPECT_STREQ(makePolicy(PolicyKind::Fifo, topo)->policyName(), "fifo");
  EXPECT_STREQ(makePolicy(PolicyKind::Lifo, topo)->policyName(), "lifo");
  EXPECT_STREQ(makePolicy(PolicyKind::NumaFifo, topo)->policyName(),
               "numa_fifo");
  EXPECT_STREQ(policyKindName(PolicyKind::Fifo), "fifo");
  EXPECT_STREQ(policyKindName(PolicyKind::Lifo), "lifo");
  EXPECT_STREQ(policyKindName(PolicyKind::NumaFifo), "numa_fifo");
}

/// Every policy under the batched SyncScheduler at the bench's thread
/// shape: the conservation law is policy-independent.
class PolicyUnderSchedulerTest
    : public ::testing::TestWithParam<PolicyKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, PolicyUnderSchedulerTest,
                         ::testing::Values(PolicyKind::Fifo, PolicyKind::Lifo,
                                           PolicyKind::NumaFifo),
                         [](const auto& info) {
                           switch (info.param) {
                             case PolicyKind::Fifo: return std::string("Fifo");
                             case PolicyKind::Lifo: return std::string("Lifo");
                             case PolicyKind::NumaFifo:
                               return std::string("NumaFifo");
                           }
                           return std::string("Unknown");
                         });

TEST_P(PolicyUnderSchedulerTest, FloodConservesTasksExactlyOnce) {
  constexpr std::size_t kTasks = 10000;
  constexpr int kConsumers = 3;
  const Topology topo = testTopo(kConsumers + 1);
  SyncScheduler sched(topo, makePolicy(GetParam(), topo));
  std::vector<Task> pool(kTasks);

  std::atomic<std::size_t> retrieved{0};
  std::vector<std::vector<Task*>> got(kConsumers);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (auto& t : pool) sched.addReadyTask(&t, 0);
  });
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t cpu = static_cast<std::size_t>(c) + 1;
      while (retrieved.load(std::memory_order_relaxed) < kTasks) {
        if (Task* t = sched.getReadyTask(cpu); t != nullptr) {
          got[static_cast<std::size_t>(c)].push_back(t);
          retrieved.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<Task*> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kTasks);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(all[i], &pool[i]) << "a task was lost or handed out twice";
  }
  EXPECT_EQ(sched.getReadyTask(0), nullptr);
}

}  // namespace
}  // namespace ats
