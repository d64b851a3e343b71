#include "atm/network.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace ncs::atm {
namespace {

using namespace ncs::literals;

struct Delivery {
  int to;
  int from;
  Bytes data;
  TimePoint at;
};

Bytes tagged_payload(int tag, std::size_t n = 100) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::byte>(i + static_cast<std::size_t>(tag));
  return b;
}

template <typename Fabric>
std::vector<Delivery> wire_up(sim::Engine& engine, Fabric& fab,
                              std::vector<Delivery>* sink) {
  for (int h = 0; h < fab.n_hosts(); ++h) {
    fab.nic(h).set_rx_handler([&engine, sink, h](VcId vc, Bytes data, bool) {
      sink->push_back({h, src_of(vc), std::move(data), engine.now()});
    });
  }
  return {};
}

TEST(VcNumbering, RoundTrip) {
  for (int dst : {0, 1, 7, 100}) EXPECT_EQ(src_of(vc_to(dst)), dst);
}

TEST(AtmLan, AnyToAnyDelivery) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 4;
  cfg.nic.tx_buffers = 8;  // room for the 3 back-to-back submits per host
  AtmFabric lan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, lan, &rx);

  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      if (i != j) lan.nic(i).submit_tx(vc_to(j), tagged_payload(i * 10 + j), true);
  engine.run();

  ASSERT_EQ(rx.size(), 12u);
  std::map<std::pair<int, int>, int> seen;
  for (const auto& d : rx) {
    ++seen[{d.from, d.to}];
    EXPECT_EQ(d.data, tagged_payload(d.from * 10 + d.to));
  }
  EXPECT_EQ(seen.size(), 12u);
}

TEST(AtmLan, DedicatedLinksDoNotContend) {
  // Two disjoint pairs transfer simultaneously; each takes the same time
  // as it would alone — unlike shared Ethernet.
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 4;

  const auto solo = [&] {
    sim::Engine e2;
    AtmFabric lan(e2, cfg);
    std::vector<Delivery> rx;
    wire_up(e2, lan, &rx);
    lan.nic(0).submit_tx(vc_to(1), tagged_payload(0, 4000), true);
    e2.run();
    return rx.at(0).at - TimePoint::origin();
  }();

  AtmFabric lan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, lan, &rx);
  lan.nic(0).submit_tx(vc_to(1), tagged_payload(0, 4000), true);
  lan.nic(2).submit_tx(vc_to(3), tagged_payload(0, 4000), true);
  engine.run();

  ASSERT_EQ(rx.size(), 2u);
  for (const auto& d : rx) EXPECT_EQ((d.at - TimePoint::origin()).ps(), solo.ps());
}

TEST(AtmLan, SelfSendLoopsThroughSwitch) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 2;
  AtmFabric lan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, lan, &rx);
  lan.nic(0).submit_tx(vc_to(0), tagged_payload(5), true);
  engine.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].from, 0);
  EXPECT_EQ(rx[0].to, 0);
}

TEST(AtmWan, CrossSiteDeliveryPaysBackbonePropagation) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_sites = 2;
  cfg.n_hosts = 4;  // hosts 0,1 at site 0; 2,3 at site 1
  AtmFabric wan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, wan, &rx);

  wan.nic(0).submit_tx(vc_to(1), tagged_payload(1), true);  // same site
  wan.nic(0).submit_tx(vc_to(2), tagged_payload(2), true);  // cross site
  engine.run();

  ASSERT_EQ(rx.size(), 2u);
  TimePoint local, remote;
  for (const auto& d : rx) (d.to == 1 ? local : remote) = d.at;
  // The cross-site delivery pays at least the extra backbone propagation.
  EXPECT_GT((remote - local).ms(), cfg.backbone.propagation.ms() * 0.9);
}

TEST(AtmWan, SiteAssignment) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_sites = 2;
  cfg.n_hosts = 5;
  AtmFabric wan(engine, cfg);
  EXPECT_EQ(wan.site_of(0), 0);
  EXPECT_EQ(wan.site_of(2), 0);  // ceil(5/2)=3 hosts at site 0
  EXPECT_EQ(wan.site_of(3), 1);
  EXPECT_EQ(wan.site_of(4), 1);
}

TEST(AtmWan, AllPairsDeliverExactlyOnce) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_sites = 2;
  cfg.n_hosts = 6;
  cfg.nic.tx_buffers = 8;  // room for the 5 back-to-back submits per host
  AtmFabric wan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, wan, &rx);

  int sent = 0;
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j)
      if (i != j) {
        wan.nic(i).submit_tx(vc_to(j), tagged_payload(i * 6 + j), true);
        ++sent;
      }
  engine.run();

  ASSERT_EQ(rx.size(), static_cast<std::size_t>(sent));
  std::map<std::pair<int, int>, int> seen;
  for (const auto& d : rx) {
    ++seen[{d.from, d.to}];
    EXPECT_EQ(d.data, tagged_payload(d.from * 6 + d.to));
  }
  for (const auto& [k, v] : seen) EXPECT_EQ(v, 1) << k.first << "->" << k.second;
}

TEST(AtmMultiWan, AllPairsDeliverExactlyOnceAcrossTheChain) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 9;  // 3 hosts per site, 3 sites, full PVC mesh
  cfg.n_sites = 3;
  cfg.nic.tx_buffers = 16;  // room for the 8 back-to-back submits per host
  AtmFabric wan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, wan, &rx);

  int sent = 0;
  for (int i = 0; i < 9; ++i)
    for (int j = 0; j < 9; ++j)
      if (i != j) {
        wan.nic(i).submit_tx(vc_to(j), tagged_payload(i * 9 + j), true);
        ++sent;
      }
  engine.run();

  ASSERT_EQ(rx.size(), static_cast<std::size_t>(sent));
  std::map<std::pair<int, int>, int> seen;
  for (const auto& d : rx) {
    ++seen[{d.from, d.to}];
    EXPECT_EQ(d.data, tagged_payload(d.from * 9 + d.to));
  }
  for (const auto& [k, v] : seen) EXPECT_EQ(v, 1) << k.first << "->" << k.second;
}

TEST(AtmMultiWan, HostsSplitIntoContiguousNearEqualSites) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 7;
  cfg.n_sites = 3;
  cfg.provision = {{0, 1}};  // keep construction cheap
  AtmFabric wan(engine, cfg);
  // 7 hosts over 3 sites: 3 + 2 + 2.
  EXPECT_EQ(wan.site_of(0), 0);
  EXPECT_EQ(wan.site_of(2), 0);
  EXPECT_EQ(wan.site_of(3), 1);
  EXPECT_EQ(wan.site_of(4), 1);
  EXPECT_EQ(wan.site_of(5), 2);
  EXPECT_EQ(wan.site_of(6), 2);
}

TEST(AtmMultiWan, EachHopAddsBackbonePropagation) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 4;  // one host per site
  cfg.n_sites = 4;
  cfg.provision = {{0, 1}, {0, 3}};
  AtmFabric wan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, wan, &rx);

  wan.nic(0).submit_tx(vc_to(1), tagged_payload(1), true);  // 1 hop
  wan.nic(0).submit_tx(vc_to(3), tagged_payload(3), true);  // 3 hops
  engine.run();

  ASSERT_EQ(rx.size(), 2u);
  TimePoint near, far;
  for (const auto& d : rx) (d.to == 1 ? near : far) = d.at;
  // Two extra hops: at least 2x extra backbone propagation.
  EXPECT_GT((far - near).ms(), cfg.backbone.propagation.ms() * 1.9);
}

TEST(AtmMultiWan, SparseProvisioningBoundsTheLabelSpace) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 64;
  cfg.n_sites = 4;  // 16 hosts per site
  // Ring traffic matrix: i -> (i+1) % n, both directions of each hop pair.
  for (int i = 0; i < cfg.n_hosts; ++i) {
    cfg.provision.emplace_back(i, (i + 1) % cfg.n_hosts);
    cfg.provision.emplace_back((i + 1) % cfg.n_hosts, i);
  }
  cfg.provision.emplace_back(0, 1);  // duplicates are tolerated
  AtmFabric wan(engine, cfg);

  // Only the ring crossings consume hop labels: of 128 directed pairs, the
  // vast majority are intra-site. Hop 0 carries 15->16 rightward, 16->15
  // leftward, plus the 63->0 wraparound transit (leftward through every
  // hop) and 0->63 (rightward through every hop) — each crossing takes one
  // label in every plane's own VPI, and labels_used counts one plane.
  for (int h = 0; h < 3; ++h) {
    EXPECT_LE(wan.labels_used(h, /*rightward=*/true), 2) << "hop " << h;
    EXPECT_LE(wan.labels_used(h, /*rightward=*/false), 2) << "hop " << h;
  }

  std::vector<Delivery> rx;
  wire_up(engine, wan, &rx);
  wan.nic(63).submit_tx(vc_to(0), tagged_payload(63), true);  // full transit
  wan.nic(15).submit_tx(vc_to(16), tagged_payload(15), true);  // hop 0 only
  engine.run();
  ASSERT_EQ(rx.size(), 2u);
  for (const auto& d : rx) EXPECT_EQ(d.data, tagged_payload(d.from));
}

TEST(AtmFabric, SelfSendLoopsThroughTheSiteSwitchOnEveryChain) {
  // Every site count installs the same-site self route that the one-site
  // fabric has always had.
  for (const int n_sites : {2, 3}) {
    SCOPED_TRACE("n_sites=" + std::to_string(n_sites));
    sim::Engine engine;
    FabricConfig cfg;
    cfg.n_hosts = 6;
    cfg.n_sites = n_sites;
    AtmFabric fab(engine, cfg);
    std::vector<Delivery> rx;
    wire_up(engine, fab, &rx);
    for (int h = 0; h < 6; ++h) fab.nic(h).submit_tx(vc_to(h), tagged_payload(h), true);
    engine.run();
    ASSERT_EQ(rx.size(), 6u);
    for (const auto& d : rx) {
      EXPECT_EQ(d.from, d.to);
      EXPECT_EQ(d.data, tagged_payload(d.from));
    }
  }
}

TEST(AtmFabric, CheckCountsOnlyProvisionedPairs) {
  // 1024 hosts on 8 sites: the full mesh needs 512 x 512 labels on the
  // middle hop, a ring a handful.
  FabricConfig cfg;
  cfg.n_hosts = 1024;
  cfg.n_sites = 8;
  EXPECT_NE(check_fabric(cfg).find("backbone hop 3 needs 262144 labels"), std::string::npos)
      << check_fabric(cfg);
  for (int i = 0; i < cfg.n_hosts; ++i) {
    cfg.provision.emplace_back(i, (i + 1) % cfg.n_hosts);
    cfg.provision.emplace_back((i + 1) % cfg.n_hosts, i);
  }
  EXPECT_EQ(check_fabric(cfg), "");
  cfg.provision.emplace_back(0, 1024);
  EXPECT_NE(check_fabric(cfg).find("outside [0, 1024)"), std::string::npos);
}

TEST(AtmLan, DetailedModeDeliversIdenticalData) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 2;
  cfg.nic.detailed_cells = true;
  cfg.nic.io_buffer_size = 8192;
  AtmFabric lan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, lan, &rx);
  const Bytes data = tagged_payload(3, 5000);
  lan.nic(0).submit_tx(vc_to(1), data, true);
  engine.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].data, data);
}

}  // namespace
}  // namespace ncs::atm
