// NIC collective-context lifecycle on a raw ATM LAN: arm/fire/tear-down/
// re-arm, burst loss stranding an operation, a mid-barrier switch fault,
// exactly-once completion upcalls, and the no-leaked-contexts census.
#include "atm/nic_coll.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "atm/network.hpp"
#include "coll/algorithms.hpp"
#include "coll/offload.hpp"

namespace ncs::atm {
namespace {

using namespace ncs::literals;

struct Completion {
  int host;
  std::uint64_t seq;
  Bytes result;
};

struct NicCollFixture : ::testing::Test {
  static constexpr int kHosts = 5;

  NicCollFixture() {
    FabricConfig lc;
    lc.n_hosts = kHosts;
    lan = std::make_unique<AtmFabric>(engine, lc);
    for (int h = 0; h < kHosts; ++h) {
      engines.push_back(std::make_unique<NicCollEngine>(
          engine, lan->nic(h), NicCollParams{}, "nic-coll" + std::to_string(h)));
      engines.back()->set_completion([this, h](std::uint64_t seq, Bytes result) {
        completions.push_back({h, seq, std::move(result)});
      });
    }
  }

  void program_all() {
    for (int h = 0; h < kHosts; ++h) engines[static_cast<std::size_t>(h)]->program(h, kHosts);
  }

  NicCollEngine& eng(int h) { return *engines[static_cast<std::size_t>(h)]; }

  int completions_for(int host, std::uint64_t seq) const {
    int n = 0;
    for (const auto& c : completions)
      if (c.host == host && c.seq == seq) ++n;
    return n;
  }

  std::size_t open_contexts() const {
    std::size_t n = 0;
    for (const auto& e : engines) n += e->pending_ops();
    return n;
  }

  sim::Engine engine;
  std::unique_ptr<AtmFabric> lan;
  std::vector<std::unique_ptr<NicCollEngine>> engines;
  std::vector<Completion> completions;
};

TEST_F(NicCollFixture, BarrierCompletesExactlyOnceOnEveryRank) {
  program_all();
  for (int h = 0; h < kHosts; ++h) eng(h).contribute(0, CollKind::barrier, {});
  engine.run();

  for (int h = 0; h < kHosts; ++h) {
    EXPECT_EQ(completions_for(h, 0), 1) << "host " << h;
    EXPECT_EQ(eng(h).stats().completions, 1u);
  }
  // Interior combines happened in firmware: the root folded its children's
  // arrival, and no context is left open anywhere.
  EXPECT_GT(eng(0).stats().combines, 0u);
  EXPECT_EQ(open_contexts(), 0u);
}

TEST_F(NicCollFixture, AllreduceMatchesTheHostTreeFoldBitForBit) {
  program_all();
  constexpr std::size_t kN = 16;
  std::vector<Bytes> contribs(kHosts);
  for (int h = 0; h < kHosts; ++h) {
    std::vector<double> mine(kN);
    for (std::size_t i = 0; i < kN; ++i)
      mine[i] = std::sin(static_cast<double>(h + 1) * (static_cast<double>(i) + 0.5));
    contribs[static_cast<std::size_t>(h)] = coll::pack_doubles(mine);
    eng(h).contribute(0, CollKind::allreduce, contribs[static_cast<std::size_t>(h)]);
  }
  engine.run();

  // coll::tree_fold replays the firmware's fold order (own, then children
  // ascending) — the fallback path's bit-identity rests on this equality.
  const Bytes expected =
      coll::pack_doubles(coll::tree_fold(contribs, kHosts, NicCollParams{}.radix));
  ASSERT_EQ(completions.size(), static_cast<std::size_t>(kHosts));
  for (const auto& c : completions) EXPECT_EQ(c.result, expected) << "host " << c.host;
  EXPECT_EQ(open_contexts(), 0u);
}

TEST_F(NicCollFixture, BcastPushesTheRootPayloadDownTheTree) {
  program_all();
  const Bytes payload = to_bytes("firmware bcast payload");
  eng(0).contribute(0, CollKind::bcast, payload);
  // Non-root contributions are no-ops by design (nothing to push).
  eng(3).contribute(0, CollKind::bcast, {});
  engine.run();

  for (int h = 0; h < kHosts; ++h) {
    ASSERT_EQ(completions_for(h, 0), 1) << "host " << h;
  }
  for (const auto& c : completions) EXPECT_EQ(c.result, payload);
  EXPECT_EQ(open_contexts(), 0u);
}

TEST_F(NicCollFixture, BurstLossStrandsTheOperationAndAbortRearmsCleanly) {
  program_all();
  // Host 1's uplink eats every frame: its folded subtree (itself + children
  // 3 and 4) never reaches the root.
  net::Link* uplink = nullptr;
  lan->for_each_link([&](net::Link& l) {
    if (l.name() == "taxi1>") uplink = &l;
  });
  ASSERT_NE(uplink, nullptr);
  uplink->fault().set_down(true);

  for (int h = 0; h < kHosts; ++h) eng(h).contribute(0, CollKind::barrier, {});
  engine.run();
  EXPECT_TRUE(completions.empty());  // stranded, not wrongly completed
  EXPECT_GT(open_contexts(), 0u);    // the root still holds partial state

  // Host-side recovery: abort everywhere (SVC-style teardown), restore the
  // link, re-arm, and run the next operation.
  for (int h = 0; h < kHosts; ++h) {
    eng(h).abort_op(0);
    eng(h).teardown();
  }
  EXPECT_EQ(open_contexts(), 0u);  // abort leaks nothing
  uplink->fault().set_down(false);

  program_all();
  for (int h = 0; h < kHosts; ++h) eng(h).contribute(1, CollKind::barrier, {});
  engine.run();
  for (int h = 0; h < kHosts; ++h) EXPECT_EQ(completions_for(h, 1), 1) << "host " << h;
  for (int h = 0; h < kHosts; ++h) {
    EXPECT_EQ(eng(h).stats().programs, 2u);
    EXPECT_EQ(eng(h).stats().teardowns, 1u);
  }
  EXPECT_EQ(open_contexts(), 0u);
}

TEST_F(NicCollFixture, MidBarrierSwitchFaultThenRecoveryCompletesNextOp) {
  program_all();
  // The switch port of host 2 dies just as the barrier starts: host 2's
  // contribution is dropped at the fabric.
  lan->site_switch(0).fault().set_port_down(2, true);
  for (int h = 0; h < kHosts; ++h) eng(h).contribute(0, CollKind::barrier, {});
  engine.run();
  EXPECT_TRUE(completions.empty());

  for (int h = 0; h < kHosts; ++h) {
    eng(h).abort_op(0);
    eng(h).teardown();
  }
  lan->site_switch(0).fault().set_port_down(2, false);

  program_all();
  for (int h = 0; h < kHosts; ++h) eng(h).contribute(1, CollKind::barrier, {});
  engine.run();
  for (int h = 0; h < kHosts; ++h) EXPECT_EQ(completions_for(h, 1), 1) << "host " << h;
  EXPECT_EQ(open_contexts(), 0u);
}

TEST_F(NicCollFixture, LateTrafficForAbortedSequencesIsCountedAndDropped) {
  program_all();
  // Abort before the operation starts: the subsequent doorbell for that
  // sequence is late by definition and must not open a context.
  eng(0).abort_op(0);
  eng(0).contribute(0, CollKind::barrier, {});
  engine.run();
  EXPECT_EQ(eng(0).stats().late_drops, 1u);
  EXPECT_EQ(eng(0).pending_ops(), 0u);
  EXPECT_TRUE(completions.empty());

  // The next sequence is unaffected.
  for (int h = 0; h < kHosts; ++h) eng(h).contribute(1, CollKind::barrier, {});
  engine.run();
  for (int h = 0; h < kHosts; ++h) EXPECT_EQ(completions_for(h, 1), 1) << "host " << h;
}

TEST_F(NicCollFixture, BackToBackOperationsPipelineWithoutLeaks) {
  program_all();
  constexpr std::uint64_t kOps = 8;
  for (std::uint64_t s = 0; s < kOps; ++s)
    for (int h = 0; h < kHosts; ++h) eng(h).contribute(s, CollKind::barrier, {});
  engine.run();

  for (int h = 0; h < kHosts; ++h) {
    for (std::uint64_t s = 0; s < kOps; ++s)
      EXPECT_EQ(completions_for(h, s), 1) << "host " << h << " seq " << s;
    EXPECT_EQ(eng(h).stats().completions, kOps);
  }
  EXPECT_EQ(open_contexts(), 0u);
}

}  // namespace
}  // namespace ncs::atm
