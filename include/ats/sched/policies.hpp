#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/topology.hpp"
#include "locks/locks.hpp"
#include "sched/policy_kind.hpp"
#include "sched/scheduler.hpp"

namespace ats {

/// Global FIFO ready queue — the default policy for every scheduler
/// design in this repo.
class FifoPolicy final : public SchedulerPolicy {
 public:
  void addTask(Task* task, std::size_t /*cpu*/) override {
    ready_.push_back(task);
  }

  Task* getTask(std::size_t /*cpu*/) override {
    if (ready_.empty()) return nullptr;
    Task* task = ready_.front();
    ready_.pop_front();
    return task;
  }

  std::size_t getTasks(Task** out, std::size_t n,
                       std::size_t /*cpu*/) override {
    const std::size_t got = n < ready_.size() ? n : ready_.size();
    for (std::size_t i = 0; i < got; ++i) {
      out[i] = ready_.front();
      ready_.pop_front();
    }
    return got;
  }

  bool hasTasks() override { return !ready_.empty(); }

  const char* policyName() const override { return "fifo"; }

 private:
  std::deque<Task*> ready_;
};

/// Global LIFO stack: newest-ready-first.  Depth-first execution keeps
/// the data a just-finished task touched hot in cache at the cost of
/// fairness — old tasks can starve while new ones keep arriving, which
/// is exactly the trade-off BM_Policy prices.
class LifoPolicy final : public SchedulerPolicy {
 public:
  void addTask(Task* task, std::size_t /*cpu*/) override {
    ready_.push_back(task);
  }

  Task* getTask(std::size_t /*cpu*/) override {
    if (ready_.empty()) return nullptr;
    Task* task = ready_.back();
    ready_.pop_back();
    return task;
  }

  std::size_t getTasks(Task** out, std::size_t n,
                       std::size_t /*cpu*/) override {
    const std::size_t got = n < ready_.size() ? n : ready_.size();
    for (std::size_t i = 0; i < got; ++i) {
      out[i] = ready_.back();
      ready_.pop_back();
    }
    return got;
  }

  bool hasTasks() override { return !ready_.empty(); }

  const char* policyName() const override { return "lifo"; }

 private:
  std::vector<Task*> ready_;
};

/// Per-NUMA-domain FIFOs, local domain first (§3.1's "one per core...
/// one per NUMA node" layout applied to the ready queue).  Adds land in
/// the enqueuing CPU's domain; a getter drains its own domain before
/// round-robining the remote ones, so under load tasks execute where
/// their producer's data lives and remote pulls only happen instead of
/// idling.  Within one domain the order stays FIFO.
///
/// Unlike the single-queue policies, each domain carries its OWN
/// SpinLock: the policy is a lock hierarchy, not a single critical
/// section.  Under a serializing scheduler (DTLock) the locks are
/// uncontended-by-construction and cost one local RMW; under a
/// concurrent caller, adds and gets on DIFFERENT domains proceed fully
/// in parallel and only same-domain traffic serializes — the queue-side
/// analogue of the deps/pool domain sharding.  At most one domain lock
/// is ever held at a time (getters release one domain before probing
/// the next), so lock ordering is trivial and deadlock-free.
class NumaFifoPolicy final : public SchedulerPolicy {
 public:
  explicit NumaFifoPolicy(const Topology& topo)
      : topo_(topo),
        domainCount_(std::max<std::size_t>(1, topo.numNumaDomains)) {
    // unique_ptr<Domain[]>, not vector<Domain>: a Domain is pinned by
    // its SpinLock (atomics are not movable) and vector requires
    // move-insertable elements even for the initial fill.
    domains_ = std::make_unique<Domain[]>(domainCount_);
  }

  void addTask(Task* task, std::size_t cpu) override {
    Domain& domain = domains_[domainOf(cpu)];
    std::lock_guard<SpinLock> guard(domain.lock);
    domain.queue.push_back(task);
  }

  Task* getTask(std::size_t cpu) override {
    const std::size_t home = domainOf(cpu);
    for (std::size_t i = 0; i < domainCount_; ++i) {
      Domain& domain = domains_[(home + i) % domainCount_];
      std::lock_guard<SpinLock> guard(domain.lock);
      if (!domain.queue.empty()) {
        Task* task = domain.queue.front();
        domain.queue.pop_front();
        return task;
      }
    }
    return nullptr;
  }

  std::size_t getTasks(Task** out, std::size_t n, std::size_t cpu) override {
    const std::size_t home = domainOf(cpu);
    std::size_t got = 0;
    for (std::size_t i = 0; i < domainCount_ && got < n; ++i) {
      Domain& domain = domains_[(home + i) % domainCount_];
      std::lock_guard<SpinLock> guard(domain.lock);
      while (got < n && !domain.queue.empty()) {
        out[got++] = domain.queue.front();
        domain.queue.pop_front();
      }
    }
    return got;
  }

  bool hasTasks() override {
    for (std::size_t i = 0; i < domainCount_; ++i) {
      std::lock_guard<SpinLock> guard(domains_[i].lock);
      if (!domains_[i].queue.empty()) return true;
    }
    return false;
  }

  const char* policyName() const override { return "numa_fifo"; }

 private:
  /// One ready FIFO plus its lock, on a private cache line so domain 0's
  /// lock traffic never invalidates domain 1's.
  struct alignas(64) Domain {
    SpinLock lock;
    std::deque<Task*> queue;
  };

  /// Topology::domainOfSlot owns the slot→domain rule and returns less
  /// than max(1, numNumaDomains), so a zero-domain or zero-CPU
  /// hand-built Topology degrades to one global FIFO.  Reserved slots
  /// (the Runtime's spawner) fold onto a real CPU's domain.
  std::size_t domainOf(std::size_t cpu) const {
    return topo_.domainOfSlot(cpu);
  }

  Topology topo_;
  std::size_t domainCount_;
  std::unique_ptr<Domain[]> domains_;
};

/// Build the policy a PolicyKind names.  `topo` must be the same shape
/// the owning scheduler is constructed with (NumaFifo sizes its queues
/// from it; the others ignore it).
inline std::unique_ptr<SchedulerPolicy> makePolicy(PolicyKind kind,
                                                   const Topology& topo) {
  switch (kind) {
    case PolicyKind::Fifo: return std::make_unique<FifoPolicy>();
    case PolicyKind::Lifo: return std::make_unique<LifoPolicy>();
    case PolicyKind::NumaFifo: return std::make_unique<NumaFifoPolicy>(topo);
  }
  assert(false && "unknown PolicyKind");
  return std::make_unique<FifoPolicy>();
}

}  // namespace ats
