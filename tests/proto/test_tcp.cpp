#include "proto/tcp.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ether/bus.hpp"
#include "proto/segment_network.hpp"

namespace ncs::proto {
namespace {

using namespace ncs::literals;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.next_u64() & 0xFF);
  return b;
}

struct TcpFixture : ::testing::Test {
  void build(TcpParams params, double loss = 0.0) {
    ether::BusParams bp;
    bp.model_contention = false;
    bus = std::make_unique<ether::Bus>(engine, bp, 4);
    net = std::make_unique<EthernetSegmentNetwork>(*bus, 4);
    (void)loss;
    mesh = std::make_unique<TcpMesh>(engine, *net, params);
    for (int h = 0; h < 4; ++h)
      mesh->set_on_deliver(h, [this, h](int src, BytesView data) {
        auto& buf = received[static_cast<std::size_t>(h * 4 + src)];
        append(buf, data);
      });
  }

  Bytes& stream(int src, int dst) { return received[static_cast<std::size_t>(dst * 4 + src)]; }

  sim::Engine engine;
  std::unique_ptr<ether::Bus> bus;
  std::unique_ptr<EthernetSegmentNetwork> net;
  std::unique_ptr<TcpMesh> mesh;
  std::array<Bytes, 16> received;
};

TEST_F(TcpFixture, DeliversSmallMessage) {
  build({});
  const Bytes msg = random_bytes(100, 1);
  mesh->send(0, 1, msg);
  engine.run();
  EXPECT_EQ(stream(0, 1), msg);
  EXPECT_TRUE(mesh->idle());
}

TEST_F(TcpFixture, DeliversMultiSegmentStreamInOrder) {
  build({});
  const Bytes msg = random_bytes(50'000, 2);
  mesh->send(0, 1, msg);
  engine.run();
  EXPECT_EQ(stream(0, 1), msg);
}

TEST_F(TcpFixture, ConcatenatesSuccessiveSends) {
  build({});
  Bytes expected;
  for (int i = 0; i < 5; ++i) {
    const Bytes part = random_bytes(777, static_cast<std::uint64_t>(i));
    append(expected, part);
    mesh->send(2, 3, part);
  }
  engine.run();
  EXPECT_EQ(stream(2, 3), expected);
}

TEST_F(TcpFixture, BidirectionalStreamsIndependent) {
  build({});
  const Bytes ab = random_bytes(5000, 3);
  const Bytes ba = random_bytes(6000, 4);
  mesh->send(0, 1, ab);
  mesh->send(1, 0, ba);
  engine.run();
  EXPECT_EQ(stream(0, 1), ab);
  EXPECT_EQ(stream(1, 0), ba);
}

TEST_F(TcpFixture, WindowLimitsInFlight) {
  TcpParams p;
  p.window_segments = 2;
  p.nagle = false;
  build(p);
  const Bytes msg = random_bytes(30'000, 5);
  mesh->send(0, 1, msg);
  engine.run();
  EXPECT_EQ(stream(0, 1), msg);
  // With a 2-segment window delivery takes many more round trips than the
  // serialized wire time alone.
  EXPECT_GT(mesh->total_stats().acks_sent, 5u);
}

TEST_F(TcpFixture, MssClampedToMtu) {
  TcpParams p;
  p.mss = 100'000;  // absurd; must clamp to Ethernet MTU - headers
  build(p);
  EXPECT_EQ(mesh->effective_mss(), ether::kMaxPayload - kIpTcpHeaderBytes);
  const Bytes msg = random_bytes(10'000, 6);
  mesh->send(0, 1, msg);
  engine.run();
  EXPECT_EQ(stream(0, 1), msg);
}

TEST_F(TcpFixture, NagleHoldsSmallTailWhileUnacked) {
  TcpParams p;
  p.nagle = true;
  build(p);
  // 1460 + 100: the tail is sub-MSS and must wait for the first segment's
  // (delayed) ack.
  mesh->send(0, 1, random_bytes(1560, 7));
  engine.run();
  EXPECT_EQ(stream(0, 1).size(), 1560u);
  EXPECT_GE(mesh->total_stats().nagle_holds, 1u);
  // Delivery completed only after the delayed-ack stall.
  EXPECT_GT(engine.now().sec(), 0.19);
}

TEST_F(TcpFixture, NodelayAvoidsTheStall) {
  TcpParams p;
  p.nagle = false;
  build(p);
  mesh->send(0, 1, random_bytes(1560, 7));
  engine.run_until(TimePoint::origin() + 100_ms);
  EXPECT_EQ(stream(0, 1).size(), 1560u);  // delivered well before any stall
}

TEST_F(TcpFixture, DelayedAckEverySecondSegment) {
  TcpParams p;
  p.nagle = false;
  build(p);
  mesh->send(0, 1, random_bytes(1460 * 10, 8));
  engine.run();
  const auto stats = mesh->total_stats();
  // ~half the data segments produce immediate acks; the rest ride timers.
  EXPECT_LT(stats.acks_sent, stats.data_segments + 1);
}

TEST_F(TcpFixture, ManyPairsConcurrently) {
  TcpParams p;
  p.nagle = false;
  build(p);
  std::array<Bytes, 16> sent;
  for (int s = 0; s < 4; ++s)
    for (int d = 0; d < 4; ++d) {
      if (s == d) continue;
      sent[static_cast<std::size_t>(d * 4 + s)] =
          random_bytes(3000 + static_cast<std::size_t>(s) * 100 + static_cast<std::size_t>(d),
                       static_cast<std::uint64_t>(s * 16 + d));
      mesh->send(s, d, sent[static_cast<std::size_t>(d * 4 + s)]);
    }
  engine.run();
  for (int s = 0; s < 4; ++s)
    for (int d = 0; d < 4; ++d) {
      if (s == d) continue;
      EXPECT_EQ(stream(s, d), sent[static_cast<std::size_t>(d * 4 + s)]);
    }
}

// --- loss recovery over a lossy ATM path ---

struct LossyAtmFixture : ::testing::Test {
  void build(double loss) {
    atm::FabricConfig lc;
    lc.n_hosts = 2;
    lc.nic.io_buffer_size = 9216;
    lc.host_link.loss_probability = loss;
    lan = std::make_unique<atm::AtmFabric>(engine, lc);
    net = std::make_unique<AtmSegmentNetwork>(engine, *lan);
    TcpParams p;
    p.nagle = false;
    p.rto = 300_ms;  // must exceed the 200 ms delayed ack or acks look lost
    mesh = std::make_unique<TcpMesh>(engine, *net, p);
    mesh->set_on_deliver(1, [this](int, BytesView data) { append(got, data); });
  }

  sim::Engine engine;
  std::unique_ptr<atm::AtmFabric> lan;
  std::unique_ptr<AtmSegmentNetwork> net;
  std::unique_ptr<TcpMesh> mesh;
  Bytes got;
};

TEST_F(LossyAtmFixture, RetransmissionRecoversLoss) {
  build(0.05);
  const Bytes msg = random_bytes(100'000, 11);
  mesh->send(0, 1, msg);
  engine.run();
  EXPECT_EQ(got, msg);
  EXPECT_GT(mesh->total_stats().retransmits, 0u);
}

TEST_F(LossyAtmFixture, LosslessPathHasNoRetransmits) {
  build(0.0);
  const Bytes msg = random_bytes(100'000, 12);
  mesh->send(0, 1, msg);
  engine.run();
  EXPECT_EQ(got, msg);
  EXPECT_EQ(mesh->total_stats().retransmits, 0u);
}

}  // namespace
}  // namespace ncs::proto
