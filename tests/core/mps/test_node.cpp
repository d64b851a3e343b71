// End-to-end NCS_MPS tests over a real simulated cluster (both tiers).
#include "core/mps/node.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/api.hpp"

namespace ncs::mps {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkKind;

ClusterConfig test_config(int n_procs, NetworkKind net = NetworkKind::ethernet) {
  ClusterConfig c = net == NetworkKind::ethernet ? cluster::sun_ethernet(n_procs)
                                                 : cluster::sun_atm_lan(n_procs);
  c.n_procs = n_procs;
  return c;
}

/// Builds a 3-process cluster on the requested tier.
std::unique_ptr<Cluster> make_cluster(bool hsm, int n_procs = 3) {
  auto c = std::make_unique<Cluster>(
      test_config(n_procs, hsm ? NetworkKind::atm_lan : NetworkKind::ethernet));
  if (hsm) {
    c->init_ncs_hsm();
  } else {
    c->init_ncs_nsm();
  }
  return c;
}

struct TierCase {
  const char* name;
  bool hsm;
};

// Prints the case by name rather than as raw bytes (a pointer and padding),
// so the listed test names are the same in every build.
void PrintTo(const TierCase& c, std::ostream* os) { *os << c.name; }

class NcsTier : public ::testing::TestWithParam<TierCase> {};

TEST_P(NcsTier, SendRecvRoundTrip) {
  auto c = make_cluster(GetParam().hsm);
  Bytes got;
  int src_thread = -9, src_proc = -9;
  c->run([&](int rank) {
    Node& node = c->node(rank);
    if (rank == 0) {
      const int t = node.t_create([&] { node.send(0, 1, 1, to_bytes("over the fabric")); });
      node.host().join(node.user_thread(t));
    } else if (rank == 1) {
      const int t = node.t_create([&] { got = node.recv(0, 0, 1, &src_thread, &src_proc); });
      node.host().join(node.user_thread(t));
    }
  });
  EXPECT_EQ(got, to_bytes("over the fabric"));
  EXPECT_EQ(src_thread, 0);
  EXPECT_EQ(src_proc, 0);
}

TEST_P(NcsTier, LargeMessageSurvives) {
  auto c = make_cluster(GetParam().hsm);
  Bytes big(200'000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::byte>(i * 31);
  Bytes got;
  c->run([&](int rank) {
    Node& node = c->node(rank);
    if (rank == 0) {
      const int t = node.t_create([&] { node.send(0, 0, 2, big); });
      node.host().join(node.user_thread(t));
    } else if (rank == 2) {
      const int t = node.t_create([&] { got = node.recv(kAnyThread, kAnyProcess, 0); });
      node.host().join(node.user_thread(t));
    }
  });
  EXPECT_EQ(got, big);
}

TEST_P(NcsTier, ThreadAddressedDelivery) {
  // Two receiving threads on one process; each gets exactly its message.
  auto c = make_cluster(GetParam().hsm);
  Bytes got0, got1;
  c->run([&](int rank) {
    Node& node = c->node(rank);
    if (rank == 0) {
      const int t = node.t_create([&] {
        node.send(0, 1, 1, to_bytes("for-one"));
        node.send(0, 0, 1, to_bytes("for-zero"));
      });
      node.host().join(node.user_thread(t));
    } else if (rank == 1) {
      const int t0 = node.t_create([&] { got0 = node.recv(kAnyThread, kAnyProcess, 0); });
      const int t1 = node.t_create([&] { got1 = node.recv(kAnyThread, kAnyProcess, 1); });
      node.host().join(node.user_thread(t0));
      node.host().join(node.user_thread(t1));
    }
  });
  EXPECT_EQ(got0, to_bytes("for-zero"));
  EXPECT_EQ(got1, to_bytes("for-one"));
}

TEST_P(NcsTier, BcastReachesEveryEndpoint) {
  auto c = make_cluster(GetParam().hsm);
  std::vector<int> got(3, 0);
  c->run([&](int rank) {
    Node& node = c->node(rank);
    if (rank == 0) {
      const int t = node.t_create([&] {
        const std::vector<Endpoint> eps{{1, 0}, {2, 0}};
        node.bcast(0, eps, to_bytes("group message"));
      });
      node.host().join(node.user_thread(t));
    } else {
      const int t = node.t_create([&] {
        got[static_cast<std::size_t>(rank)] =
            static_cast<int>(node.recv(kAnyThread, 0, 0).size());
      });
      node.host().join(node.user_thread(t));
    }
  });
  EXPECT_EQ(got[1], 13);
  EXPECT_EQ(got[2], 13);
}

TEST_P(NcsTier, BarrierSynchronizesProcesses) {
  auto c = make_cluster(GetParam().hsm);
  std::vector<std::string> log;
  c->run([&](int rank) {
    Node& node = c->node(rank);
    const int t = node.t_create([&, rank] {
      node.host().charge_cycles(1e6 * (3 - rank), sim::Activity::compute);
      log.push_back("arrive" + std::to_string(rank));
      node.barrier();
      log.push_back("pass" + std::to_string(rank));
    });
    node.host().join(node.user_thread(t));
  });
  ASSERT_EQ(log.size(), 6u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)].substr(0, 6), "arrive");
  for (int i = 3; i < 6; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)].substr(0, 4), "pass");
}

TEST_P(NcsTier, LocalSendBypassesNetwork) {
  auto c = make_cluster(GetParam().hsm);
  Bytes got;
  Duration elapsed;
  c->run([&](int rank) {
    if (rank != 1) return;
    Node& node = c->node(rank);
    const int tx = node.t_create([&] { node.send(0, 1, 1, to_bytes("local hop")); });
    const int rx = node.t_create([&] { got = node.recv(0, 1, 1); });
    node.host().join(node.user_thread(tx));
    node.host().join(node.user_thread(rx));
  });
  elapsed = Duration::picoseconds(c->engine().now().ps());
  EXPECT_EQ(got, to_bytes("local hop"));
  EXPECT_EQ(c->node(1).stats().local_deliveries, 1u);
  // Far below any network round trip (includes thread-creation overheads).
  EXPECT_LT(elapsed.ms(), 5.0);
}

TEST_P(NcsTier, SendBlocksCallerUntilHandOff) {
  auto c = make_cluster(GetParam().hsm);
  std::vector<std::string> log;
  c->run([&](int rank) {
    Node& node = c->node(rank);
    if (rank == 0) {
      const int t = node.t_create([&] {
        log.push_back("before-send");
        node.send(0, 0, 1, Bytes(50'000, std::byte{1}));
        log.push_back("after-send");
      });
      // A sibling thread runs while the sender is blocked in NCS_send.
      const int w = node.t_create([&] { log.push_back("sibling"); });
      node.host().join(node.user_thread(t));
      node.host().join(node.user_thread(w));
    } else if (rank == 1) {
      const int t = node.t_create([&] { (void)node.recv(kAnyThread, kAnyProcess, 0); });
      node.host().join(node.user_thread(t));
    }
  });
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "before-send");
  EXPECT_EQ(log[1], "sibling");  // overlap while the send thread works
  EXPECT_EQ(log[2], "after-send");
}

TEST_P(NcsTier, AvailableProbe) {
  auto c = make_cluster(GetParam().hsm);
  bool before = true, after = false;
  c->run([&](int rank) {
    Node& node = c->node(rank);
    if (rank == 0) {
      const int t = node.t_create([&] { node.send(0, 0, 1, to_bytes("x")); });
      node.host().join(node.user_thread(t));
    } else if (rank == 1) {
      const int t = node.t_create([&] {
        before = node.available(kAnyThread, kAnyProcess, 0);
        (void)node.recv(kAnyThread, kAnyProcess, 0);  // wait for arrival
        after = node.available(kAnyThread, kAnyProcess, 0);
      });
      node.host().join(node.user_thread(t));
    }
  });
  EXPECT_FALSE(before);
  EXPECT_FALSE(after);
}

TEST_P(NcsTier, PaperStyleApiWrappers) {
  auto c = make_cluster(GetParam().hsm);
  Bytes got;
  c->run([&](int rank) {
    Node& node = c->node(rank);
    if (rank == 0) {
      const int t = node.t_create([&] {
        EXPECT_EQ(api::NCS_get_my_id(), 0);
        EXPECT_EQ(api::NCS_num_procs(), 3);
        api::NCS_send(0, 0, 0, 1, to_bytes("via C API"));
      });
      node.host().join(node.user_thread(t));
    } else if (rank == 1) {
      const int t = node.t_create([&] { got = api::NCS_recv(0, 0, 0, 1); });
      node.host().join(node.user_thread(t));
    }
  });
  EXPECT_EQ(got, to_bytes("via C API"));
}

INSTANTIATE_TEST_SUITE_P(Tiers, NcsTier,
                         ::testing::Values(TierCase{"nsm_p4", false}, TierCase{"hsm_atm", true}),
                         [](const auto& param_info) { return param_info.param.name; });

}  // namespace
}  // namespace ncs::mps
