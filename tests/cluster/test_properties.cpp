// Cross-cutting property tests over the full stack.
#include <gtest/gtest.h>

#include <ostream>

#include "cluster/cluster.hpp"
#include "cluster/drivers.hpp"
#include "cluster/table.hpp"

namespace ncs::cluster {
namespace {

TEST(CellFidelity, DetailedCellModeMatchesBurstModeExactly) {
  // The data plane has two fidelity modes: burst (cells charged in time
  // only) and detailed (real cells, HEC + AAL5 CRC checked end to end).
  // They must agree on *both* the result and the simulated clock, to the
  // picosecond — this pins the burst-mode timing arithmetic to the
  // cell-accurate implementation.
  ClusterConfig burst_cfg = sun_atm_lan(0);
  burst_cfg.hsm_chunk = 4096;
  ClusterConfig detailed_cfg = burst_cfg;
  detailed_cfg.nic.detailed_cells = true;

  const AppResult burst = run_matmul_ncs(burst_cfg, 2, NcsTier::hsm_atm);
  const AppResult detailed = run_matmul_ncs(detailed_cfg, 2, NcsTier::hsm_atm);
  EXPECT_TRUE(burst.correct);
  EXPECT_TRUE(detailed.correct);
  EXPECT_EQ(burst.elapsed.ps(), detailed.elapsed.ps());
}

struct TcpSweepCase {
  int window;
  bool nagle;
  bool delayed_ack;
};

// Prints the case by its settings, e.g. w1_nagle_dack. gtest's default dump
// of the raw bytes would include the struct's padding in the listed names.
void PrintTo(const TcpSweepCase& c, std::ostream* os) {
  *os << 'w' << c.window << (c.nagle ? "_nagle" : "_nonagle")
      << (c.delayed_ack ? "_dack" : "_nodack");
}

class TcpParamSweep : public ::testing::TestWithParam<TcpSweepCase> {};

TEST_P(TcpParamSweep, JpegPipelineStaysCorrectUnderAnyTcpTuning) {
  // Whatever the era's TCP was tuned like, results must be bit-correct;
  // only time may change.
  ClusterConfig cfg = sun_ethernet(0);
  cfg.tcp.window_segments = GetParam().window;
  cfg.tcp.nagle = GetParam().nagle;
  cfg.tcp.delayed_ack_enabled = GetParam().delayed_ack;
  EXPECT_TRUE(run_jpeg_p4(cfg, 2).correct);
  EXPECT_TRUE(run_jpeg_ncs(cfg, 2).correct);
}

INSTANTIATE_TEST_SUITE_P(Tunings, TcpParamSweep,
                         ::testing::Values(TcpSweepCase{1, true, true},
                                           TcpSweepCase{2, false, true},
                                           TcpSweepCase{8, true, false},
                                           TcpSweepCase{32, false, false}));

class HsmChunkSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HsmChunkSweep, FftCorrectForAnyChunkSize) {
  ClusterConfig cfg = sun_atm_lan(0);
  cfg.hsm_chunk = GetParam();
  cfg.nic.io_buffer_size = std::max<std::size_t>(GetParam(), 9216);
  EXPECT_TRUE(run_fft_ncs(cfg, 2, NcsTier::hsm_atm).correct);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, HsmChunkSweep,
                         ::testing::Values(64, 512, 2048, 4096, 8192));

TEST(HsmChunkTiming, SmallerChunksCostMoreTraps) {
  // Finer chunking means more trap + bookkeeping overhead per byte: the
  // same workload must not get faster as chunks shrink drastically.
  ClusterConfig small = sun_atm_lan(0);
  small.hsm_chunk = 256;
  ClusterConfig big = sun_atm_lan(0);
  big.hsm_chunk = 8192;
  const auto t_small = run_jpeg_ncs(small, 2, NcsTier::hsm_atm).elapsed;
  const auto t_big = run_jpeg_ncs(big, 2, NcsTier::hsm_atm).elapsed;
  EXPECT_GT(t_small, t_big);
}

TEST(FlowControlOverhead, WindowPolicyCostsLittleOnCleanFabric) {
  // Fig 5's point is selectable policies; the paper's evaluated config
  // (none) must not be dramatically better than window FC on a clean LAN.
  ClusterConfig none_cfg = sun_atm_lan(0);
  ClusterConfig window_cfg = sun_atm_lan(0);
  window_cfg.ncs.flow = {.kind = mps::FlowControlKind::window, .window = 8};
  const auto t_none = run_jpeg_ncs(none_cfg, 2, NcsTier::hsm_atm).elapsed;
  const auto t_window = run_jpeg_ncs(window_cfg, 2, NcsTier::hsm_atm).elapsed;
  EXPECT_TRUE(run_jpeg_ncs(window_cfg, 2, NcsTier::hsm_atm).correct);
  EXPECT_LT(t_window.sec(), t_none.sec() * 1.25);
}


TEST(SvcProvisioning, HsmOverSwitchedCircuitsStaysCorrect) {
  // The HSM tier provisioned with on-demand SVCs instead of the PVC mesh:
  // identical results, slightly slower start (one call setup per pair).
  ClusterConfig pvc = sun_atm_lan(0);
  ClusterConfig svc = sun_atm_lan(0);
  svc.hsm_use_svc = true;

  const AppResult with_pvc = run_jpeg_ncs(pvc, 2, NcsTier::hsm_atm);
  const AppResult with_svc = run_jpeg_ncs(svc, 2, NcsTier::hsm_atm);
  EXPECT_TRUE(with_pvc.correct);
  EXPECT_TRUE(with_svc.correct);
  // Call setup costs microseconds on the LAN; the run as a whole is
  // essentially unchanged, and never faster.
  EXPECT_GE(with_svc.elapsed.ps(), with_pvc.elapsed.ps());
  EXPECT_LT(with_svc.elapsed.sec(), with_pvc.elapsed.sec() * 1.01);
}

TEST(SvcProvisioning, FftOverSvcsAcrossAllNodes) {
  ClusterConfig svc = sun_atm_lan(0);
  svc.hsm_use_svc = true;
  EXPECT_TRUE(run_fft_ncs(svc, 4, NcsTier::hsm_atm).correct);
}

TEST(Improvement, MetricMatchesPaperDefinition) {
  EXPECT_DOUBLE_EQ(improvement_pct(Duration::seconds(10), Duration::seconds(8)), 20.0);
  EXPECT_DOUBLE_EQ(improvement_pct(Duration::seconds(10), Duration::seconds(10)), 0.0);
  EXPECT_LT(improvement_pct(Duration::seconds(10), Duration::seconds(11)), 0.0);
  EXPECT_DOUBLE_EQ(improvement_pct(Duration::zero(), Duration::seconds(1)), 0.0);
}

TEST(TableFormat, RendersPaperLayout) {
  std::vector<TableRow> rows;
  TableRow r;
  r.nodes = 2;
  r.p4_ethernet = Duration::seconds(16.89);
  r.ncs_ethernet = Duration::seconds(13.72);
  r.p4_atm = Duration::seconds(14.40);
  r.ncs_atm = Duration::seconds(11.51);
  rows.push_back(r);
  TableRow r8;
  r8.nodes = 8;
  r8.p4_ethernet = Duration::seconds(5.90);
  r8.ncs_ethernet = Duration::seconds(4.62);
  r8.has_atm = false;
  rows.push_back(r8);

  const std::string table = format_table("Table X", "SUN/Ethernet", "NYNET", rows);
  EXPECT_NE(table.find("Table X"), std::string::npos);
  EXPECT_NE(table.find("18.77%"), std::string::npos);  // (16.89-13.72)/16.89
  EXPECT_NE(table.find("20.07%"), std::string::npos);  // ATM column
  EXPECT_NE(table.find("not measured"), std::string::npos);
}

// --- topology limits ---------------------------------------------------
//
// Every topology the config accepts must build; the rest are refused with
// a message by the Cluster constructor before it builds a host. One test
// per limit: the largest P passes check_config, and one more is refused.

TEST(ConfigLimits, LanTakes2000Hosts) {
  EXPECT_EQ(check_config(sun_atm_lan(2000)), "");
  EXPECT_DEATH({ Cluster c(sun_atm_lan(2001)); }, "2001 hosts; the collective VCI range");
}

TEST(ConfigLimits, SvcProvisioningTakes960Hosts) {
  ClusterConfig cfg = sun_atm_lan(960);
  cfg.hsm_use_svc = true;
  EXPECT_EQ(check_config(cfg), "");
  cfg.n_procs = 961;
  EXPECT_DEATH({ Cluster c(cfg); }, "SVC provisioning with 961 hosts");
}

TEST(ConfigLimits, SvcProvisioningNeedsOneSite) {
  ClusterConfig cfg = nynet_wan(4);
  cfg.hsm_use_svc = true;
  EXPECT_DEATH({ Cluster c(cfg); }, "SVC provisioning needs the single-switch ATM LAN");
}

TEST(ConfigLimits, NynetWanTakes512Hosts) {
  // 256 x 256 cross-site pairs fill one VPI's 65536 labels on the hop.
  EXPECT_EQ(check_config(nynet_wan(512)), "");
  EXPECT_DEATH({ Cluster c(nynet_wan(513)); }, "backbone hop 0 needs 65792 labels");
}

TEST(ConfigLimits, EightSiteChainTakes512Hosts) {
  // The middle hop carries every pair between the chain's halves.
  EXPECT_EQ(check_config(nynet_wan_multi(512, 8)), "");
  EXPECT_DEATH({ Cluster c(nynet_wan_multi(513, 8)); }, "backbone hop 3 needs 65792 labels");
}

}  // namespace
}  // namespace ncs::cluster
