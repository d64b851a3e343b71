#include "proto/segment_network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ncs::proto {
namespace {

using namespace ncs::literals;

TEST(EthernetSegmentNetwork, ForwardsToBus) {
  sim::Engine engine;
  ether::BusParams bp;
  bp.model_contention = false;
  ether::Bus bus(engine, bp, 3);
  EthernetSegmentNetwork net(bus, 3);

  EXPECT_EQ(net.mtu(), ether::kMaxPayload);
  EXPECT_EQ(net.n_hosts(), 3);

  std::vector<std::pair<int, std::size_t>> got;
  net.set_rx(2, [&](int src, Bytes data) { got.emplace_back(src, data.size()); });
  net.send(0, 2, Bytes(500, std::byte{1}), nullptr);
  net.send(1, 2, Bytes(700, std::byte{2}), nullptr);
  engine.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(0, std::size_t{500}));
  EXPECT_EQ(got[1], std::make_pair(1, std::size_t{700}));
}

struct AtmSegFixture : ::testing::Test {
  AtmSegFixture() {
    atm::FabricConfig lc;
    lc.n_hosts = 3;
    lc.nic.io_buffer_size = 9216;
    lc.nic.tx_buffers = 2;
    lan = std::make_unique<atm::AtmFabric>(engine, lc);
    net = std::make_unique<AtmSegmentNetwork>(engine, *lan);
  }

  sim::Engine engine;
  std::unique_ptr<atm::AtmFabric> lan;
  std::unique_ptr<AtmSegmentNetwork> net;
};

TEST_F(AtmSegFixture, DatagramRidesOneAal5Pdu) {
  Bytes got;
  int from = -1;
  net->set_rx(1, [&](int src, Bytes data) {
    from = src;
    got = std::move(data);
  });
  Bytes payload(9000, std::byte{0x42});
  net->send(0, 1, payload, nullptr);
  engine.run();
  EXPECT_EQ(from, 0);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(net->mtu(), 9180u);
}

TEST_F(AtmSegFixture, BackpressureQueuesBeyondNicBuffers) {
  // 10 datagrams through 2 TX buffers: all must arrive, in order.
  std::vector<std::size_t> sizes;
  net->set_rx(2, [&](int, Bytes data) { sizes.push_back(data.size()); });
  for (std::size_t i = 0; i < 10; ++i) net->send(0, 2, Bytes(1000 + i, std::byte{1}), nullptr);
  engine.run();
  ASSERT_EQ(sizes.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sizes[i], 1000 + i);
}

TEST_F(AtmSegFixture, OnSentFiresForEveryDatagram) {
  int sent = 0;
  for (int i = 0; i < 5; ++i) net->send(0, 1, Bytes(100, std::byte{1}), [&] { ++sent; });
  engine.run();
  EXPECT_EQ(sent, 5);
}

TEST_F(AtmSegFixture, InterleavedDestinationsKeepPerPairOrder) {
  std::vector<int> to1, to2;
  net->set_rx(1, [&](int, Bytes d) { to1.push_back(static_cast<int>(d.size())); });
  net->set_rx(2, [&](int, Bytes d) { to2.push_back(static_cast<int>(d.size())); });
  for (int i = 0; i < 6; ++i) net->send(0, 1 + (i % 2), Bytes(static_cast<std::size_t>(10 + i), std::byte{1}), nullptr);
  engine.run();
  EXPECT_EQ(to1, (std::vector<int>{10, 12, 14}));
  EXPECT_EQ(to2, (std::vector<int>{11, 13, 15}));
}

TEST(AtmSegmentNetworkDeathTest, SmallNicBuffersRejected) {
  sim::Engine engine;
  atm::FabricConfig lc;
  lc.n_hosts = 2;
  lc.nic.io_buffer_size = 4096;  // < 9180 MTU
  atm::AtmFabric lan(engine, lc);
  EXPECT_DEATH(AtmSegmentNetwork(engine, lan), "9180");
}

}  // namespace
}  // namespace ncs::proto
