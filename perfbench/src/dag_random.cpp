#include "dag_random.hpp"

#include <algorithm>
#include <random>

#include "common/timing.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {

namespace {

/// Fisher-Yates with the generator's raw output, so a seed yields the
/// same graph whatever the standard library's distributions do.
template <typename T>
void shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng() % i]);
}

}  // namespace

DagRandom::DagRandom(std::uint64_t seed)
    : objects_(std::make_unique<Object[]>(kObjects)),
      ran_(std::make_unique<std::atomic<std::uint8_t>[]>(totalTasks())) {
  std::mt19937_64 rng(seed);

  std::vector<std::uint32_t> counts(kTopTasks);
  for (std::size_t t = 0; t < kTopTasks; ++t)
    counts[t] = static_cast<std::uint32_t>(t % (kMaxAccesses + 1));
  shuffle(counts, rng);

  first_.resize(kTopTasks + 1, 0);
  for (std::size_t t = 0; t < kTopTasks; ++t) first_[t + 1] = first_[t] + counts[t];
  const std::size_t numAccesses = first_[kTopTasks];

  std::vector<ats::AccessMode> modes(numAccesses, ats::AccessMode::Out);
  std::fill_n(modes.begin(), numAccesses / 2, ats::AccessMode::In);
  std::fill_n(modes.begin() + numAccesses / 2, numAccesses * 3 / 10,
              ats::AccessMode::InOut);
  shuffle(modes, rng);

  accesses_.reserve(numAccesses);
  objectOf_.reserve(numAccesses);
  for (std::size_t t = 0; t < kTopTasks; ++t) {
    for (std::uint32_t a = first_[t]; a < first_[t + 1]; ++a) {
      std::uint32_t obj = 0;
      bool fresh = false;
      while (!fresh) {  // a task must not declare one object twice
        obj = rng() % 3 == 0
                  ? static_cast<std::uint32_t>(rng() % kHotObjects)
                  : static_cast<std::uint32_t>(
                        kHotObjects + rng() % (kObjects - kHotObjects));
        fresh = std::find(objectOf_.begin() + first_[t], objectOf_.end(),
                          obj) == objectOf_.end();
      }
      objectOf_.push_back(obj);
      accesses_.push_back(ats::Access{&objects_[obj].version, modes[a]});
    }
  }

  std::vector<std::uint32_t> order(kTopTasks);
  for (std::size_t t = 0; t < kTopTasks; ++t) order[t] = static_cast<std::uint32_t>(t);
  shuffle(order, rng);
  children_.assign(kTopTasks, 0);
  for (std::size_t p = 0; p < kParents; ++p) children_[order[p]] = kChildrenPerParent;
  childSlot_.resize(kTopTasks);
  std::uint32_t slot = kTopTasks;
  for (std::size_t t = 0; t < kTopTasks; ++t) {
    childSlot_[t] = slot;
    slot += children_[t];
  }

  // The serial-order oracle.
  finalVersion_.assign(kObjects, 0);
  expect_.resize(numAccesses);
  for (std::size_t a = 0; a < numAccesses; ++a) {
    expect_[a] = finalVersion_[objectOf_[a]];
    if (!accesses_[a].isRead()) ++finalVersion_[objectOf_[a]];
  }
}

void DagRandom::resetState() {
  for (std::size_t o = 0; o < kObjects; ++o)
    objects_[o].version.store(0, std::memory_order_relaxed);
  for (std::size_t s = 0; s < totalTasks(); ++s)
    ran_[s].store(0, std::memory_order_relaxed);
  mismatches_.store(0, std::memory_order_relaxed);
  childSpawns_.store(0, std::memory_order_relaxed);
}

void DagRandom::markRan(std::size_t slot) {
  // One writer per slot; load+store (not an RMW) still counts a rerun.
  ran_[slot].store(ran_[slot].load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
}

void DagRandom::body(std::size_t t) {
  // Relaxed is enough: dependency order is what must make these reads
  // see the right version, and that is exactly what is under test.
  for (std::uint32_t a = first_[t]; a < first_[t + 1]; ++a) {
    std::atomic<std::uint32_t>& version = objects_[objectOf_[a]].version;
    const std::uint32_t seen = version.load(std::memory_order_relaxed);
    if (seen != expect_[a]) mismatches_.fetch_add(1, std::memory_order_relaxed);
    if (!accesses_[a].isRead())
      version.store(seen + 1, std::memory_order_relaxed);
  }
  const std::uint32_t kids = children_[t];
  if (kids != 0) {
    if (rt_ != nullptr) {
      childSpawns_.fetch_add(kids, std::memory_order_relaxed);
      for (std::uint32_t c = 0; c < kids; ++c) {
        const std::size_t slot = childSlot_[t] + c;
        rt_->spawn(std::span<const ats::Access>{},
                   [this, slot] { markRan(slot); });
      }
    } else {
      for (std::uint32_t c = 0; c < kids; ++c) markRan(childSlot_[t] + c);
    }
  }
  markRan(t);
}

bool DagRandom::verify() const {
  if (mismatches_.load(std::memory_order_relaxed) != 0) return false;
  for (std::size_t s = 0; s < totalTasks(); ++s)
    if (ran_[s].load(std::memory_order_relaxed) != 1) return false;
  for (std::size_t o = 0; o < kObjects; ++o)
    if (objects_[o].version.load(std::memory_order_relaxed) != finalVersion_[o])
      return false;
  return true;
}

bool DagRandom::runSerial() {
  resetState();
  rt_ = nullptr;
  for (std::size_t t = 0; t < kTopTasks; ++t) body(t);
  return verify();
}

DagRandom::Outcome DagRandom::runParallel(ats::Runtime& rt, bool perturb) {
  resetState();
  rt_ = &rt;
  // The first access in program order gets an expectation no correct
  // schedule can meet.
  if (perturb) ++expect_.front();

  Outcome out;
  const std::uint64_t t0 = ats::nowNanos();
  for (std::size_t t = 0; t < kTopTasks; ++t)
    rt.spawn(accessesOf(t), [this, t] { body(t); });
  const std::uint64_t t1 = ats::nowNanos();
  rt.taskwait();
  const std::uint64_t t2 = ats::nowNanos();
  out.spawnNs = t1 - t0;
  out.taskwaitNs = t2 - t1;
  out.spawned = kTopTasks + childSpawns_.load(std::memory_order_relaxed);
  out.verified = verify();

  if (perturb) --expect_.front();
  rt_ = nullptr;
  return out;
}

}  // namespace perfbench
