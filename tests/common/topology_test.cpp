#include "common/topology.hpp"

#include <gtest/gtest.h>

namespace ats {
namespace {

TEST(Topology, PresetShapesMatchThePaperMachines) {
  const Topology xeon = makeTopology(MachinePreset::Xeon);
  EXPECT_EQ(xeon.numCpus, 48u);
  EXPECT_EQ(xeon.numNumaDomains, 2u);

  const Topology rome = makeTopology(MachinePreset::Rome);
  EXPECT_EQ(rome.numCpus, 128u);
  EXPECT_EQ(rome.numNumaDomains, 8u);

  const Topology graviton = makeTopology(MachinePreset::Graviton);
  EXPECT_EQ(graviton.numCpus, 64u);
  EXPECT_EQ(graviton.numNumaDomains, 1u);
}

TEST(Topology, HostPresetHasAtLeastOneCpu) {
  const Topology host = makeTopology(MachinePreset::Host);
  EXPECT_GE(host.numCpus, 1u);
  EXPECT_GE(host.numNumaDomains, 1u);
}

TEST(Topology, CpuCountOverrideShrinksDomainsWhenNeeded) {
  const Topology t = makeTopology(MachinePreset::Rome, 4);
  EXPECT_EQ(t.numCpus, 4u);
  EXPECT_LE(t.numNumaDomains, 4u);

  const Topology one = makeTopology(MachinePreset::Xeon, 1);
  EXPECT_EQ(one.numCpus, 1u);
  EXPECT_EQ(one.numNumaDomains, 1u);
}

TEST(Topology, NumaDomainMappingCoversEveryCpu) {
  const Topology rome = makeTopology(MachinePreset::Rome);
  // Block layout: first CPUs land in domain 0, last in the top domain,
  // and every CPU maps to a valid domain.
  EXPECT_EQ(rome.domainOfSlot(0), 0u);
  EXPECT_EQ(rome.domainOfSlot(rome.numCpus - 1), rome.numNumaDomains - 1);
  for (std::size_t cpu = 0; cpu < rome.numCpus; ++cpu) {
    EXPECT_LT(rome.domainOfSlot(cpu), rome.numNumaDomains);
  }
  // Domains are balanced for the even preset shapes.
  EXPECT_EQ(rome.cpusPerDomain(), 16u);
}

TEST(Topology, ReservedSlotsDoNotShiftTheDomainMap) {
  // The Runtime reserves a spawner slot via reservedSlots; a phantom
  // extra "CPU" folded into numCpus instead would change cpusPerDomain
  // (ceil(5/2) = 3) and misclassify worker CPU 2 into domain 0.
  Topology topo;
  topo.numCpus = 4;
  topo.numNumaDomains = 2;
  topo.reservedSlots = 1;
  EXPECT_EQ(topo.slotCount(), 5u);
  EXPECT_EQ(topo.cpusPerDomain(), 2u);  // anchored to the 4 real CPUs
  EXPECT_EQ(topo.domainOfSlot(0), 0u);
  EXPECT_EQ(topo.domainOfSlot(1), 0u);
  EXPECT_EQ(topo.domainOfSlot(2), 1u);
  EXPECT_EQ(topo.domainOfSlot(3), 1u);
  // The reserved slot folds onto a real CPU's domain (slot 4 -> CPU 0).
  EXPECT_EQ(topo.domainOfSlot(4), 0u);
}

TEST(Topology, DomainOfSlotPinsEveryPresetShape) {
  // domainOfSlot is the ONE shared slot→domain rule (NumaFifoPolicy, the
  // work-stealing victim split, and the AddBufferSet shards all route
  // through it); pin every preset's map, including the reserved spawner
  // slot's fold onto domain 0.
  Topology xeon = makeTopology(MachinePreset::Xeon);
  xeon.reservedSlots = 1;
  EXPECT_EQ(xeon.domainOfSlot(0), 0u);
  EXPECT_EQ(xeon.domainOfSlot(23), 0u);
  EXPECT_EQ(xeon.domainOfSlot(24), 1u);
  EXPECT_EQ(xeon.domainOfSlot(47), 1u);
  EXPECT_EQ(xeon.domainOfSlot(48), 0u);  // spawner slot folds

  Topology rome = makeTopology(MachinePreset::Rome);
  rome.reservedSlots = 1;
  EXPECT_EQ(rome.domainOfSlot(0), 0u);
  EXPECT_EQ(rome.domainOfSlot(15), 0u);
  EXPECT_EQ(rome.domainOfSlot(16), 1u);
  EXPECT_EQ(rome.domainOfSlot(127), 7u);
  EXPECT_EQ(rome.domainOfSlot(128), 0u);

  Topology graviton = makeTopology(MachinePreset::Graviton);
  graviton.reservedSlots = 1;
  for (std::size_t slot = 0; slot < graviton.slotCount(); ++slot) {
    EXPECT_EQ(graviton.domainOfSlot(slot), 0u);
  }
}

TEST(Topology, DomainOfSlotStaysBelowTheDomainCount) {
  // NumaFifoPolicy and AddBufferSet index their per-domain arrays with
  // domainOfSlot unclamped, so every slot, the reserved spawner slot
  // included, must land on an existing domain.
  for (const MachinePreset preset :
       {MachinePreset::Xeon, MachinePreset::Rome, MachinePreset::Graviton}) {
    Topology topo = makeTopology(preset);
    topo.reservedSlots = 1;
    for (std::size_t slot = 0; slot < topo.slotCount(); ++slot) {
      EXPECT_LT(topo.domainOfSlot(slot), topo.numNumaDomains);
    }
  }
}

TEST(Topology, DomainOfSlotToleratesDegenerateShapes) {
  // Hand-built zero shapes must collapse to domain 0, not divide by zero.
  Topology topo;
  topo.numCpus = 0;
  topo.numNumaDomains = 0;
  EXPECT_EQ(topo.domainOfSlot(0), 0u);
  EXPECT_EQ(topo.domainOfSlot(7), 0u);
}

TEST(Topology, PresetNames) {
  EXPECT_STREQ(presetName(MachinePreset::Host), "host");
  EXPECT_STREQ(presetName(MachinePreset::Xeon), "xeon");
  EXPECT_STREQ(presetName(MachinePreset::Rome), "rome");
  EXPECT_STREQ(presetName(MachinePreset::Graviton), "graviton");
}

}  // namespace
}  // namespace ats
