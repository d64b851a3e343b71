// Determinism digest suite: the calendar-queue scheduler must reproduce
// the seed std::map scheduler's results *bit-identically*.
//
// Every scenario here is pinned to golden digests that the seed std::map
// event queue produced (and the calendar queue matched) before that queue
// was retired: FNV-1a result hashes, exact simulated elapsed times
// (picosecond Duration equality), delivery orders and retransmit counts.
// Any divergence in event ordering anywhere in the stack shows up as a
// digest mismatch. These are the in-process halves of the chaos_soak /
// proto_sweep bench comparison the CI gate runs; the engine-level half is
// the reference-queue diff in tests/sim/test_engine.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/drivers.hpp"
#include "fault/plan.hpp"

namespace ncs::cluster {
namespace {

using namespace ncs::literals;
using mps::Node;
using mps::kAnyProcess;
using mps::kAnyThread;

struct StreamDigest {
  std::vector<int> order;
  Duration elapsed;
  std::uint64_t retransmits = 0;

  bool operator==(const StreamDigest&) const = default;
};

StreamDigest run_stream(ClusterConfig cfg, int count, int dst = 1) {
  Cluster c(cfg);
  c.init_ncs_hsm();
  StreamDigest out;
  c.run([&](int rank) {
    Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        for (int i = 0; i < count; ++i) {
          Bytes b(1500, std::byte{0});
          b[0] = static_cast<std::byte>(i);
          node.send(0, 0, dst, b);
        }
      } else if (rank == dst) {
        for (int i = 0; i < count; ++i) {
          const Bytes m = node.recv(kAnyThread, kAnyProcess, 0);
          out.order.push_back(static_cast<int>(m[0]));
        }
      }
    });
    node.host().join(node.user_thread(t));
  });
  out.elapsed = c.engine().now() - TimePoint::origin();
  out.retransmits = c.node(0).error_control().stats().retransmits;
  return out;
}

/// The chaos_soak "chaos" scenario in miniature: WAN stream through a
/// bursty backbone with retransmit error control.
ClusterConfig chaos_config() {
  ClusterConfig cfg = nynet_wan(2);
  cfg.ncs.error = {.kind = mps::ErrorControlKind::retransmit, .rto = 100_ms};
  cfg.faults.seed = 99;
  cfg.faults.link_burst("sonet", TimePoint::origin() + 1_ms, 80_ms,
                        {.p_good_to_bad = 0.2, .p_bad_to_good = 0.2,
                         .loss_good = 0.0, .loss_bad = 0.9});
  return cfg;
}

/// The golden seed digest of chaos_config's 10-message stream, captured on
/// the PR 8 scheduler (one CPU per host) and reproduced by both event
/// queues. Any cores=1 run must reproduce it exactly; a change here means
/// the single-core fast path regressed.
constexpr std::int64_t kSeedElapsedPs = 108101894184;
constexpr std::uint64_t kSeedRetransmits = 5;

void expect_seed_digest(const StreamDigest& d) {
  EXPECT_EQ(d.order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(d.elapsed.ps(), kSeedElapsedPs);
  EXPECT_EQ(d.retransmits, kSeedRetransmits);
}

TEST(DeterminismDigest, ChaosStreamMatchesLegacyMapBitIdentically) {
  const StreamDigest calendar = run_stream(chaos_config(), 10);
  expect_seed_digest(calendar);
  EXPECT_GT(calendar.retransmits, 0u);  // the scenario actually exercised loss
}

TEST(DeterminismDigest, HostPauseTimingMatchesLegacyMapBitIdentically) {
  // Pauses stress the timer/cancel machinery: the paused host's sleep and
  // RTO timers expire while a top-priority thread owns the CPU.
  ClusterConfig cfg = nynet_wan(2);
  cfg.ncs.error = {.kind = mps::ErrorControlKind::retransmit, .rto = 100_ms};
  cfg.faults.host_pause("p0", TimePoint::origin() + 2_ms, 50_ms);
  const StreamDigest d = run_stream(cfg, 5);
  EXPECT_EQ(d.order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(d.elapsed.ps(), 52086499995);  // the std::map queue's digest
  EXPECT_EQ(d.retransmits, 0u);
}

TEST(DeterminismDigest, MatmulResultHashMatchesLegacyMap) {
  // App-level digest (the proto_sweep-style check): distributed matmul over
  // the ATM LAN, FNV-1a over the result matrix plus exact elapsed time —
  // pinned to the std::map queue's digest.
  const AppResult r = run_matmul_ncs(sun_atm_lan(3), 2, NcsTier::hsm_atm);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.result_hash, 0xabe182bf6e4c3dd0ull);
  EXPECT_EQ(r.elapsed.ps(), 10658679078574);
  EXPECT_EQ(r.retransmits, 0u);
}

TEST(DeterminismDigest, RepeatRunsStayBitIdenticalOnTheCalendarQueue) {
  // Repeat-stability on the new backend itself (chaos_soak's repeat leg).
  const StreamDigest a = run_stream(chaos_config(), 10);
  const StreamDigest b = run_stream(chaos_config(), 10);
  EXPECT_EQ(a, b);
}

// --- multi-core (PR 9) digests -------------------------------------------
//
// The work-stealing scheduler must not perturb the engine's deterministic
// contract: multi-core runs are repeat-stable and match the std::map
// queue's digests, and single-core runs are bit-identical to the seed
// scheduler no matter which smp knobs are set (they all reduce to no-ops
// at one core).

TEST(DeterminismDigest, SingleCoreChaosDigestIsBitIdenticalToTheSeed) {
  expect_seed_digest(run_stream(chaos_config(), 10));
}

TEST(DeterminismDigest, SingleCoreDigestIsIndependentOfSmpKnobs) {
  // At one core every smp knob is inert: no victims, no sibling kicks, no
  // migrations. (ProgressModel::hybrid is excluded — it slices long user
  // charges even on one core, by design.)
  for (const mts::StealPolicy steal :
       {mts::StealPolicy::none, mts::StealPolicy::seeded, mts::StealPolicy::ring}) {
    for (const mts::ProgressModel progress :
         {mts::ProgressModel::dedicated_core, mts::ProgressModel::on_demand}) {
      SCOPED_TRACE(std::string(to_string(steal)) + "/" + to_string(progress));
      ClusterConfig cfg = chaos_config();
      cfg.cores = 1;
      cfg.steal = steal;
      cfg.progress = progress;
      expect_seed_digest(run_stream(cfg, 10));
    }
  }
}

TEST(DeterminismDigest, MultiCoreMatrixMatchesLegacyMapBitIdentically) {
  // P x cores sweep, pinned cell by cell to the std::map queue's digests.
  struct Cell {
    int procs;
    int cores;
    std::int64_t elapsed_ps;
    std::uint64_t retransmits;
  };
  for (const Cell& cell : {Cell{4, 1, 81000000000, 0}, Cell{4, 2, 81000000000, 0},
                           Cell{4, 4, 81000000000, 0}, Cell{16, 1, 81000000000, 0},
                           Cell{16, 2, 81000000000, 0}, Cell{16, 4, 81000000000, 0}}) {
    SCOPED_TRACE("procs=" + std::to_string(cell.procs) +
                 " cores=" + std::to_string(cell.cores));
    ClusterConfig cfg = nynet_wan(cell.procs);
    cfg.cores = cell.cores;
    cfg.ncs.error = {.kind = mps::ErrorControlKind::retransmit, .rto = 100_ms};
    cfg.faults.seed = 99;
    cfg.faults.link_burst("sonet", TimePoint::origin() + 1_ms, 80_ms,
                          {.p_good_to_bad = 0.2, .p_bad_to_good = 0.2,
                           .loss_good = 0.0, .loss_bad = 0.9});
    const StreamDigest d = run_stream(cfg, 10);
    EXPECT_EQ(d.order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
    EXPECT_EQ(d.elapsed.ps(), cell.elapsed_ps);
    EXPECT_EQ(d.retransmits, cell.retransmits);
  }
}

TEST(DeterminismDigest, MultiCoreCrossSiteStreamIsPinned) {
  // The matrix above streams rank 0 -> 1, which share site 0, so its cells
  // pin the fault plan's end rather than the stream. Here rank P-1 sits on
  // site 1: every message crosses the bursty backbone, so each cell sees
  // loss and retransmits. The pins were captured before the backbone label
  // rule changed, so they also guard that labels leave cross-site timing
  // alone. At one core the stream reproduces the two-host seed digest.
  struct Cell {
    int procs;
    int cores;
    std::int64_t elapsed_ps;
    std::uint64_t retransmits;
  };
  for (const Cell& cell :
       {Cell{4, 1, 108101894184, 5}, Cell{4, 2, 108008529898, 5}, Cell{4, 4, 108008529898, 5},
        Cell{16, 1, 108101894184, 5}, Cell{16, 2, 108008529898, 5},
        Cell{16, 4, 108008529898, 5}}) {
    SCOPED_TRACE("procs=" + std::to_string(cell.procs) +
                 " cores=" + std::to_string(cell.cores));
    ClusterConfig cfg = nynet_wan(cell.procs);
    cfg.cores = cell.cores;
    cfg.ncs.error = {.kind = mps::ErrorControlKind::retransmit, .rto = 100_ms};
    cfg.faults.seed = 99;
    cfg.faults.link_burst("sonet", TimePoint::origin() + 1_ms, 80_ms,
                          {.p_good_to_bad = 0.2, .p_bad_to_good = 0.2,
                           .loss_good = 0.0, .loss_bad = 0.9});
    const StreamDigest d = run_stream(cfg, 10, cell.procs - 1);
    EXPECT_EQ(d.order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
    EXPECT_EQ(d.elapsed.ps(), cell.elapsed_ps);
    EXPECT_EQ(d.retransmits, cell.retransmits);
    EXPECT_GT(d.retransmits, 0u);  // the stream actually crossed the burst
  }
}

TEST(DeterminismDigest, MultiCoreRunsAreRepeatStableUnderEveryProgressModel) {
  for (const mts::ProgressModel progress :
       {mts::ProgressModel::dedicated_core, mts::ProgressModel::on_demand,
        mts::ProgressModel::hybrid}) {
    SCOPED_TRACE(to_string(progress));
    auto run = [&] {
      ClusterConfig cfg = chaos_config();
      cfg.cores = 4;
      cfg.progress = progress;
      return run_stream(cfg, 10);
    };
    const StreamDigest a = run();
    const StreamDigest b = run();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.order.size(), 10u);
  }
}

}  // namespace
}  // namespace ncs::cluster
