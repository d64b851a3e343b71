// Integration tests: the distributed applications produce correct results
// on every runtime tier and network, and the timing invariants the paper's
// tables rest on hold in simulation.
#include "cluster/drivers.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace ncs::cluster {
namespace {

// --- correctness across tiers and networks ----------------------------------

struct DriverCase {
  const char* name;
  NetworkKind network;
  NcsTier tier;
};

// Prints the case by name. gtest's default dump of the raw bytes would put the
// name pointer's load address into the listed test names, so every build would
// register the tests under different names.
void PrintTo(const DriverCase& c, std::ostream* os) { *os << c.name; }

ClusterConfig preset(NetworkKind net) {
  switch (net) {
    case NetworkKind::ethernet: return sun_ethernet(0);
    case NetworkKind::atm_lan: return sun_atm_lan(0);
    case NetworkKind::atm_wan: return nynet_wan(0);
    case NetworkKind::atm_wan_multi: return nynet_wan_multi(0, 4);
  }
  return sun_ethernet(0);
}

class DriverMatrix : public ::testing::TestWithParam<DriverCase> {};

TEST_P(DriverMatrix, MatmulP4Correct) {
  EXPECT_TRUE(run_matmul_p4(preset(GetParam().network), 2).correct);
}

TEST_P(DriverMatrix, MatmulNcsCorrect) {
  EXPECT_TRUE(run_matmul_ncs(preset(GetParam().network), 2, GetParam().tier).correct);
}

TEST_P(DriverMatrix, JpegP4Correct) {
  EXPECT_TRUE(run_jpeg_p4(preset(GetParam().network), 2).correct);
}

TEST_P(DriverMatrix, JpegNcsCorrect) {
  EXPECT_TRUE(run_jpeg_ncs(preset(GetParam().network), 2, GetParam().tier).correct);
}

TEST_P(DriverMatrix, FftP4Correct) {
  EXPECT_TRUE(run_fft_p4(preset(GetParam().network), 2).correct);
}

TEST_P(DriverMatrix, FftNcsCorrect) {
  EXPECT_TRUE(run_fft_ncs(preset(GetParam().network), 2, GetParam().tier).correct);
}

INSTANTIATE_TEST_SUITE_P(
    NetworksAndTiers, DriverMatrix,
    ::testing::Values(DriverCase{"ethernet_nsm", NetworkKind::ethernet, NcsTier::nsm_p4},
                      DriverCase{"atm_lan_nsm", NetworkKind::atm_lan, NcsTier::nsm_p4},
                      DriverCase{"atm_lan_hsm", NetworkKind::atm_lan, NcsTier::hsm_atm},
                      DriverCase{"atm_wan_hsm", NetworkKind::atm_wan, NcsTier::hsm_atm}),
    [](const auto& param_info) { return param_info.param.name; });

// --- node-count sweeps -------------------------------------------------------

class NodeSweep : public ::testing::TestWithParam<int> {};

TEST_P(NodeSweep, MatmulCorrectAtEveryScale) {
  EXPECT_TRUE(run_matmul_p4(sun_ethernet(0), GetParam()).correct);
  EXPECT_TRUE(run_matmul_ncs(sun_ethernet(0), GetParam()).correct);
}

TEST_P(NodeSweep, FftCorrectAtEveryScale) {
  EXPECT_TRUE(run_fft_p4(sun_ethernet(0), GetParam()).correct);
  EXPECT_TRUE(run_fft_ncs(sun_ethernet(0), GetParam()).correct);
}

INSTANTIATE_TEST_SUITE_P(Nodes, NodeSweep, ::testing::Values(1, 2, 4, 8));

class EvenNodeSweep : public ::testing::TestWithParam<int> {};

TEST_P(EvenNodeSweep, JpegCorrectAtEveryScale) {
  EXPECT_TRUE(run_jpeg_p4(sun_ethernet(0), GetParam()).correct);
  EXPECT_TRUE(run_jpeg_ncs(sun_ethernet(0), GetParam()).correct);
}

INSTANTIATE_TEST_SUITE_P(Nodes, EvenNodeSweep, ::testing::Values(2, 4, 8));

// --- timing invariants (the paper's qualitative claims) ----------------------

TEST(TimingInvariants, MoreNodesReduceMatmulTime) {
  const auto t2 = run_matmul_p4(sun_ethernet(0), 2).elapsed;
  const auto t4 = run_matmul_p4(sun_ethernet(0), 4).elapsed;
  const auto t8 = run_matmul_p4(sun_ethernet(0), 8).elapsed;
  EXPECT_LT(t4, t2);
  EXPECT_LT(t8, t4);
}

TEST(TimingInvariants, AtmTestbedFasterThanEthernet) {
  // Faster hosts (40 vs 33 MHz) and a dedicated 140 Mbps fabric.
  for (int nodes : {2, 4}) {
    EXPECT_LT(run_matmul_p4(sun_atm_lan(0), nodes).elapsed,
              run_matmul_p4(sun_ethernet(0), nodes).elapsed);
    EXPECT_LT(run_jpeg_p4(sun_atm_lan(0), nodes).elapsed,
              run_jpeg_p4(sun_ethernet(0), nodes).elapsed);
  }
}

TEST(TimingInvariants, NcsNeverLosesToP4BeyondOneNode) {
  for (int nodes : {2, 4}) {
    const auto p4t = run_matmul_p4(sun_ethernet(0), nodes).elapsed;
    const auto ncst = run_matmul_ncs(sun_ethernet(0), nodes).elapsed;
    EXPECT_LE(ncst.sec(), p4t.sec() * 1.005) << nodes << " nodes";
  }
}

TEST(TimingInvariants, NcsWinsClearlyOnJpegPipeline) {
  // The paper's strongest result (Table 2): the five-stage pipeline with
  // threads hides most communication.
  for (int nodes : {2, 4}) {
    const auto p4t = run_jpeg_p4(sun_ethernet(0), nodes).elapsed;
    const auto ncst = run_jpeg_ncs(sun_ethernet(0), nodes).elapsed;
    EXPECT_LT(ncst.sec(), p4t.sec() * 0.9) << nodes << " nodes";
  }
}

TEST(TimingInvariants, OneNodeNcsPaysThreadOverhead) {
  const auto p4t = run_fft_p4(sun_ethernet(0), 1).elapsed;
  const auto ncst = run_fft_ncs(sun_ethernet(0), 1).elapsed;
  EXPECT_GE(ncst, p4t);                       // threads cost something
  EXPECT_LT(ncst.sec(), p4t.sec() * 1.05);    // ... but not much
}

TEST(TimingInvariants, HsmBeatsNsmOnAtm) {
  // Approach 2 (ATM API, 3 bus accesses/word, traps) vs approach 1 (p4
  // over TCP/IP): the whole point of the paper's second implementation.
  for (int nodes : {2, 4}) {
    const auto nsm = run_jpeg_ncs(sun_atm_lan(0), nodes, NcsTier::nsm_p4).elapsed;
    const auto hsm = run_jpeg_ncs(sun_atm_lan(0), nodes, NcsTier::hsm_atm).elapsed;
    EXPECT_LT(hsm, nsm) << nodes << " nodes";
  }
}

TEST(TimingInvariants, WanSlowerThanLan) {
  const auto lan = run_fft_ncs(sun_atm_lan(0), 2, NcsTier::hsm_atm).elapsed;
  const auto wan = run_fft_ncs(nynet_wan(0), 2, NcsTier::hsm_atm).elapsed;
  EXPECT_GT(wan, lan);
}

TEST(TimingInvariants, RunsAreDeterministic) {
  const auto a = run_jpeg_ncs(sun_ethernet(0), 4).elapsed;
  const auto b = run_jpeg_ncs(sun_ethernet(0), 4).elapsed;
  EXPECT_EQ(a.ps(), b.ps());
}

}  // namespace
}  // namespace ncs::cluster
