#include "atm/signaling.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace ncs::atm {
namespace {

using namespace ncs::literals;

struct SignalingFixture : ::testing::Test {
  SignalingFixture() {
    FabricConfig lc;
    lc.n_hosts = 3;
    lan = std::make_unique<AtmFabric>(engine, lc);
    controller = std::make_unique<CallController>(engine, *lan);
  }

  sim::Engine engine;
  std::unique_ptr<AtmFabric> lan;
  std::unique_ptr<CallController> controller;
};

TEST(SignalingMessage, EncodeDecodeRoundTrip) {
  SignalingMessage m;
  m.type = SignalingMessageType::connect;
  m.call_ref = 0xABCD1234;
  m.calling_party = 7;
  m.called_party = 2;
  m.assigned_vc = VcId{1, 2000};
  m.peer_vc = VcId{0, 1025};

  const auto d = SignalingMessage::decode(m.encode());
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().type, SignalingMessageType::connect);
  EXPECT_EQ(d.value().call_ref, 0xABCD1234u);
  EXPECT_EQ(d.value().calling_party, 7);
  EXPECT_EQ(d.value().called_party, 2);
  EXPECT_EQ(d.value().assigned_vc, (VcId{1, 2000}));
  EXPECT_EQ(d.value().peer_vc, (VcId{0, 1025}));
}

TEST(SignalingMessage, MalformedRejected) {
  EXPECT_FALSE(SignalingMessage::decode(to_bytes("short")).is_ok());
  Bytes bad(19, std::byte{0});  // type = 0: invalid
  EXPECT_FALSE(SignalingMessage::decode(bad).is_ok());
}

TEST_F(SignalingFixture, CallSetupAssignsDynamicVc) {
  std::optional<VcId> caller_vc;
  controller->agent(1);  // callee agent exists (default-accepts)
  controller->agent(0).open_call(1, [&](Result<VcId> vc) {
    ASSERT_TRUE(vc.is_ok());
    caller_vc = vc.value();
  });
  engine.run();

  ASSERT_TRUE(caller_vc.has_value());
  EXPECT_GE(caller_vc->vci, kDynamicVciBase);
  EXPECT_EQ(controller->stats().connects, 1u);
  EXPECT_EQ(controller->stats().active_calls, 1u);
  // Callee learned its own transmit label too.
  EXPECT_TRUE(controller->agent(1).accepted_vc_from(0).has_value());
}

TEST_F(SignalingFixture, DataFlowsOnTheSignaledVc) {
  std::optional<VcId> caller_vc;
  controller->agent(1);
  controller->agent(0).open_call(1, [&](Result<VcId> vc) { caller_vc = vc.value(); });
  engine.run();
  ASSERT_TRUE(caller_vc.has_value());

  Bytes got;
  lan->nic(1).set_rx_handler([&](VcId vc, Bytes data, bool) {
    EXPECT_EQ(vc, *caller_vc);  // delivered under the caller's tx label
    got = std::move(data);
  });
  lan->nic(0).submit_tx(*caller_vc, to_bytes("svc data"), true);
  engine.run();
  EXPECT_EQ(got, to_bytes("svc data"));
}

TEST_F(SignalingFixture, BothDirectionsWork) {
  std::optional<VcId> caller_vc;
  controller->agent(2);
  controller->agent(0).open_call(2, [&](Result<VcId> vc) { caller_vc = vc.value(); });
  engine.run();
  const auto callee_vc = controller->agent(2).accepted_vc_from(0);
  ASSERT_TRUE(caller_vc.has_value());
  ASSERT_TRUE(callee_vc.has_value());

  Bytes at0, at2;
  lan->nic(0).set_rx_handler([&](VcId, Bytes d, bool) { at0 = std::move(d); });
  lan->nic(2).set_rx_handler([&](VcId, Bytes d, bool) { at2 = std::move(d); });
  lan->nic(0).submit_tx(*caller_vc, to_bytes("to callee"), true);
  lan->nic(2).submit_tx(*callee_vc, to_bytes("to caller"), true);
  engine.run();
  EXPECT_EQ(at2, to_bytes("to callee"));
  EXPECT_EQ(at0, to_bytes("to caller"));
}

TEST_F(SignalingFixture, RejectedCallReportsError) {
  controller->agent(1).set_incoming_filter([](int) { return false; });
  Status status;
  controller->agent(0).open_call(1, [&](Result<VcId> vc) {
    EXPECT_FALSE(vc.is_ok());
    status = vc.status();
  });
  engine.run();
  EXPECT_EQ(status.code(), ErrorCode::failed_precondition);
  EXPECT_EQ(controller->stats().rejects, 1u);
  EXPECT_EQ(controller->stats().active_calls, 0u);
}

TEST_F(SignalingFixture, ReleaseTearsDownRoutes) {
  std::optional<VcId> caller_vc;
  controller->agent(1);
  controller->agent(0).open_call(1, [&](Result<VcId> vc) { caller_vc = vc.value(); });
  engine.run();
  ASSERT_TRUE(caller_vc.has_value());

  controller->agent(0).release_call(*caller_vc);
  engine.run();
  EXPECT_EQ(controller->stats().active_calls, 0u);
  EXPECT_FALSE(controller->agent(1).accepted_vc_from(0).has_value());

  // Traffic on the released label is now unroutable.
  const auto unroutable_before = lan->site_switch(0).stats().unroutable;
  lan->nic(0).submit_tx(*caller_vc, to_bytes("ghost"), true);
  engine.run();
  EXPECT_EQ(lan->site_switch(0).stats().unroutable, unroutable_before + 1);
}

TEST_F(SignalingFixture, ConcurrentCallsGetDistinctLabels) {
  std::vector<VcId> vcs;
  controller->agent(1);
  controller->agent(2);
  for (int callee : {1, 2, 1}) {
    controller->agent(0).open_call(callee, [&](Result<VcId> vc) {
      ASSERT_TRUE(vc.is_ok());
      vcs.push_back(vc.value());
    });
  }
  engine.run();
  ASSERT_EQ(vcs.size(), 3u);
  EXPECT_NE(vcs[0], vcs[1]);
  EXPECT_NE(vcs[1], vcs[2]);
  EXPECT_NE(vcs[0], vcs[2]);
  EXPECT_EQ(controller->stats().active_calls, 3u);
}

TEST_F(SignalingFixture, SignalingCoexistsWithPvcMesh) {
  // The static PVC mesh keeps working while SVCs are up.
  std::optional<VcId> caller_vc;
  controller->agent(1);
  controller->agent(0).open_call(1, [&](Result<VcId> vc) { caller_vc = vc.value(); });
  engine.run();

  Bytes pvc_got, svc_got;
  lan->nic(1).set_rx_handler([&](VcId vc, Bytes d, bool) {
    if (vc == *caller_vc) {
      svc_got = std::move(d);
    } else {
      EXPECT_EQ(src_of(vc), 0);
      pvc_got = std::move(d);
    }
  });
  lan->nic(0).submit_tx(vc_to(1), to_bytes("over the pvc"), true);
  engine.run();
  lan->nic(0).submit_tx(*caller_vc, to_bytes("over the svc"), true);
  engine.run();
  EXPECT_EQ(pvc_got, to_bytes("over the pvc"));
  EXPECT_EQ(svc_got, to_bytes("over the svc"));
}


// --- failure paths (scripted via the switches' SwitchFault) ----------------

TEST_F(SignalingFixture, ReleaseMidTransferDropsTheTailWithoutCrashing) {
  std::optional<VcId> vc;
  controller->agent(1);
  controller->agent(0).open_call(1, [&](Result<VcId> r) { vc = r.value(); });
  engine.run();
  ASSERT_TRUE(vc.has_value());

  int delivered = 0;
  lan->nic(1).set_rx_handler([&](VcId, Bytes, bool) { ++delivered; });
  // Stream 8 bursts through the NIC's two tx buffers via backpressure.
  int submitted = 0;
  std::function<void()> pump = [&] {
    while (submitted < 8 && lan->nic(0).tx_buffer_available()) {
      lan->nic(0).submit_tx(*vc, Bytes(4000, std::byte{1}), true);
      ++submitted;
    }
    if (submitted < 8) lan->nic(0).notify_tx_buffer(pump);
  };
  pump();
  // The callee hangs up while the burst train is still on the wire: its
  // RELEASE overtakes the queued data, so the tail goes unroutable.
  const VcId callee_vc = *controller->agent(1).accepted_vc_from(0);
  engine.schedule_after(700_us, [&, callee_vc] {
    controller->agent(1).release_call(callee_vc);
  });
  engine.run();
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, 8);
  EXPECT_EQ(controller->stats().active_calls, 0u);
  EXPECT_GT(lan->site_switch(0).stats().unroutable, 0u);
}

TEST_F(SignalingFixture, SetupTowardFailedPortIsRejectedNotHung) {
  lan->site_switch(0).fault().set_port_down(2, true);
  controller->agent(2);
  bool answered = false;
  Status status;
  controller->agent(0).open_call(2, [&](Result<VcId> r) {
    answered = true;
    status = r.status();
  });
  engine.run();
  EXPECT_TRUE(answered);  // rejected immediately, not a hung SETUP
  EXPECT_EQ(status.code(), ErrorCode::failed_precondition);
  EXPECT_EQ(controller->stats().rejects, 1u);
  EXPECT_EQ(controller->stats().active_calls, 0u);
}

TEST_F(SignalingFixture, PortFailureReleasesCallsAndRecoveredPortCarriesNewSvc) {
  std::optional<VcId> first;
  controller->agent(1);
  controller->agent(0).open_call(1, [&](Result<VcId> r) { first = r.value(); });
  engine.run();
  ASSERT_TRUE(first.has_value());

  lan->site_switch(0).fault().set_port_down(1, true);
  engine.run();
  EXPECT_EQ(controller->stats().faulted_releases, 1u);
  EXPECT_EQ(controller->stats().active_calls, 0u);

  // After recovery a fresh SETUP succeeds with a new label, and the
  // re-established circuit carries data end to end.
  lan->site_switch(0).fault().set_port_down(1, false);
  std::optional<VcId> second;
  controller->agent(0).open_call(1, [&](Result<VcId> r) { second = r.value(); });
  engine.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*second, *first);

  Bytes got;
  lan->nic(1).set_rx_handler([&](VcId dvc, Bytes d, bool) {
    if (dvc == *second) got = std::move(d);
  });
  lan->nic(0).submit_tx(*second, to_bytes("after recovery"), true);
  engine.run();
  EXPECT_EQ(got, to_bytes("after recovery"));

  // The failed-over label stayed dead.
  const auto unroutable_before = lan->site_switch(0).stats().unroutable;
  lan->nic(0).submit_tx(*first, to_bytes("stale"), true);
  engine.run();
  EXPECT_EQ(lan->site_switch(0).stats().unroutable, unroutable_before + 1);
}

TEST_F(SignalingFixture, ReleaseFromAThirdHostIsDropped) {
  std::optional<VcId> vc;
  controller->agent(1);
  controller->agent(0).open_call(1, [&](Result<VcId> r) { vc = r.value(); });
  engine.run();
  ASSERT_TRUE(vc.has_value());

  controller->agent(2).release_call(*vc);  // host 2 is not a party
  engine.run();
  EXPECT_EQ(controller->stats().releases, 0u);
  EXPECT_EQ(controller->stats().active_calls, 1u);

  Bytes got;
  lan->nic(1).set_rx_handler([&](VcId, Bytes d, bool) { got = std::move(d); });
  lan->nic(0).submit_tx(*vc, to_bytes("still up"), true);
  engine.run();
  EXPECT_EQ(got, to_bytes("still up"));
}

// --- dynamic-label space vs. the reserved planes ---------------------------

TEST_F(SignalingFixture, DynamicVciStopsBelowTheCollectivePlane) {
  // The last legal dynamic labels are kCollVciBase - 2 and - 1 (a call
  // takes one per direction); the allocator must hand them out rather than
  // hoard them.
  controller->set_next_vci_for_test(kCollVciBase - 2);
  std::optional<VcId> vc;
  controller->agent(1);
  controller->agent(0).open_call(1, [&](Result<VcId> r) { vc = r.value(); });
  engine.run();
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(vc->vci, kCollVciBase - 2);
}

using SignalingDeathTest = SignalingFixture;

TEST_F(SignalingDeathTest, ExhaustedDynamicVciDiesInsteadOfSplicingIntoCollPlane) {
  // Regression: the guard used to assert against kRmaVciBase only, so a
  // long-lived SVC workload could allocate straight through
  // [kCollVciBase, kRmaVciBase) and splice calls into the firmware
  // combine contexts. Exhaustion must die loudly at the *collective* base.
  controller->set_next_vci_for_test(kCollVciBase);
  controller->agent(1);
  EXPECT_DEATH(
      {
        controller->agent(0).open_call(1, [](Result<VcId>) {});
        engine.run();
      },
      "dynamic VCI space exhausted");
}

// --- WAN (two-site) signaling --------------------------------------------------

struct WanSignalingFixture : ::testing::Test {
  WanSignalingFixture() {
    FabricConfig wc;
    wc.n_sites = 2;
    wc.n_hosts = 4;  // 0,1 at site 0; 2,3 at site 1
    wan = std::make_unique<AtmFabric>(engine, wc);
    controller = std::make_unique<CallController>(engine, *wan);
  }

  sim::Engine engine;
  std::unique_ptr<AtmFabric> wan;
  std::unique_ptr<CallController> controller;
};

TEST_F(WanSignalingFixture, SameSiteCallWorks) {
  std::optional<VcId> vc;
  controller->agent(1);
  controller->agent(0).open_call(1, [&](Result<VcId> r) { vc = r.value(); });
  engine.run();
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(controller->stats().backbone_hops, 0u);

  Bytes got;
  wan->nic(1).set_rx_handler([&](VcId, Bytes d, bool) { got = std::move(d); });
  wan->nic(0).submit_tx(*vc, to_bytes("local call"), true);
  engine.run();
  EXPECT_EQ(got, to_bytes("local call"));
}

TEST_F(WanSignalingFixture, CrossSiteCallTransitsBackbone) {
  std::optional<VcId> vc;
  TimePoint connected;
  controller->agent(3);
  controller->agent(0).open_call(3, [&](Result<VcId> r) {
    vc = r.value();
    connected = engine.now();
  });
  engine.run();
  ASSERT_TRUE(vc.has_value());
  EXPECT_GE(controller->stats().backbone_hops, 2u);  // offer out, connect back
  // Setup latency includes at least two backbone propagations (2.5 ms each).
  EXPECT_GT((connected - TimePoint::origin()).ms(), 5.0);

  Bytes got;
  wan->nic(3).set_rx_handler([&](VcId dvc, Bytes d, bool) {
    EXPECT_EQ(dvc, *vc);
    got = std::move(d);
  });
  wan->nic(0).submit_tx(*vc, to_bytes("across the wan"), true);
  engine.run();
  EXPECT_EQ(got, to_bytes("across the wan"));
}

TEST_F(WanSignalingFixture, CrossSiteBothDirections) {
  std::optional<VcId> caller_vc;
  controller->agent(2);
  controller->agent(1).open_call(2, [&](Result<VcId> r) { caller_vc = r.value(); });
  engine.run();
  const auto callee_vc = controller->agent(2).accepted_vc_from(1);
  ASSERT_TRUE(caller_vc.has_value());
  ASSERT_TRUE(callee_vc.has_value());

  Bytes at1, at2;
  wan->nic(1).set_rx_handler([&](VcId, Bytes d, bool) { at1 = std::move(d); });
  wan->nic(2).set_rx_handler([&](VcId, Bytes d, bool) { at2 = std::move(d); });
  wan->nic(1).submit_tx(*caller_vc, to_bytes("east"), true);
  wan->nic(2).submit_tx(*callee_vc, to_bytes("west"), true);
  engine.run();
  EXPECT_EQ(at2, to_bytes("east"));
  EXPECT_EQ(at1, to_bytes("west"));
}

TEST_F(WanSignalingFixture, CrossSiteReleaseTearsDownBothSwitches) {
  std::optional<VcId> vc;
  controller->agent(3);
  controller->agent(0).open_call(3, [&](Result<VcId> r) { vc = r.value(); });
  engine.run();
  ASSERT_TRUE(vc.has_value());

  controller->agent(0).release_call(*vc);
  engine.run();
  EXPECT_EQ(controller->stats().active_calls, 0u);
  EXPECT_FALSE(controller->agent(3).accepted_vc_from(0).has_value());

  const auto unroutable_before = wan->site_switch(0).stats().unroutable;
  wan->nic(0).submit_tx(*vc, to_bytes("ghost"), true);
  engine.run();
  EXPECT_EQ(wan->site_switch(0).stats().unroutable, unroutable_before + 1);
}

TEST_F(WanSignalingFixture, CrossSiteRejectPropagates) {
  controller->agent(2).set_incoming_filter([](int) { return false; });
  Status status;
  controller->agent(0).open_call(2, [&](Result<VcId> r) { status = r.status(); });
  engine.run();
  EXPECT_EQ(status.code(), ErrorCode::failed_precondition);
  EXPECT_EQ(controller->stats().active_calls, 0u);
}

TEST_F(WanSignalingFixture, BackbonePortFailureReleasesAndCallReestablishes) {
  std::optional<VcId> vc;
  controller->agent(3);
  controller->agent(0).open_call(3, [&](Result<VcId> r) { vc = r.value(); });
  engine.run();
  ASSERT_TRUE(vc.has_value());

  wan->site_switch(1).fault().set_port_down(wan->backbone_port(1), true);
  engine.run();
  EXPECT_GE(controller->stats().faulted_releases, 1u);
  EXPECT_EQ(controller->stats().active_calls, 0u);

  // While the backbone is dead, a new cross-site SETUP is rejected
  // immediately instead of hanging on an undeliverable offer.
  Status status;
  controller->agent(0).open_call(3, [&](Result<VcId> r) { status = r.status(); });
  engine.run();
  EXPECT_EQ(status.code(), ErrorCode::failed_precondition);

  // After recovery the call comes back up and carries data again.
  wan->site_switch(1).fault().set_port_down(wan->backbone_port(1), false);
  std::optional<VcId> vc2;
  controller->agent(0).open_call(3, [&](Result<VcId> r) { vc2 = r.value(); });
  engine.run();
  ASSERT_TRUE(vc2.has_value());

  Bytes got;
  wan->nic(3).set_rx_handler([&](VcId dvc, Bytes d, bool) {
    if (dvc == *vc2) got = std::move(d);
  });
  wan->nic(0).submit_tx(*vc2, to_bytes("reestablished"), true);
  engine.run();
  EXPECT_EQ(got, to_bytes("reestablished"));
}

TEST_F(WanSignalingFixture, ConnectInFlightWhenItsCallIsTornDownIsRefused) {
  controller->agent(3);
  bool answered = false;
  Status status;
  controller->agent(0).open_call(3, [&](Result<VcId> r) {
    answered = true;
    status = r.status();
  });
  // The call is up at site 1 and its CONNECT is on the backbone when the
  // backbone port behind it dies.
  while (controller->stats().connects == 0 && engine.step()) {
  }
  wan->site_switch(1).fault().set_port_down(wan->backbone_port(1), true);
  engine.run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(status.code(), ErrorCode::failed_precondition);
  EXPECT_EQ(controller->stats().faulted_releases, 1u);
  EXPECT_EQ(controller->stats().active_calls, 0u);
}

// --- any chain of sites: one controller, one port-failure rule ----------------

/// Two hosts per site; host 0 calls the last host, at the last site.
struct ChainFixture {
  explicit ChainFixture(int n_sites) {
    FabricConfig fc;
    fc.n_sites = n_sites;
    fc.n_hosts = 2 * n_sites;
    fabric = std::make_unique<AtmFabric>(engine, fc);
    controller = std::make_unique<CallController>(engine, *fabric);
    callee = fc.n_hosts - 1;
    fabric->nic(callee).set_rx_handler([this](VcId, Bytes d, bool) { received = std::move(d); });
  }

  /// Host 0 calls the callee; the caller's transmit label once connected.
  std::optional<VcId> connect() {
    controller->agent(callee);  // online, accepting by default
    std::optional<VcId> vc;
    controller->agent(0).open_call(callee, [&](Result<VcId> r) {
      if (r.is_ok()) vc = r.value();
    });
    engine.run();
    return vc;
  }

  /// Sends `text` from host 0 on `vc`; what the callee received.
  Bytes carry(VcId vc, const char* text) {
    received.clear();
    fabric->nic(0).submit_tx(vc, to_bytes(text), true);
    engine.run();
    return received;
  }

  /// Submits a hand-made signaling PDU from `host`'s NIC, bypassing its agent.
  void inject(int host, const SignalingMessage& msg) {
    ASSERT_TRUE(fabric->nic(host).tx_buffer_available());
    fabric->nic(host).submit_tx(kSignalingVc, msg.encode(), true);
  }

  sim::Engine engine;
  std::unique_ptr<AtmFabric> fabric;
  std::unique_ptr<CallController> controller;
  int callee = 0;
  Bytes received;
};

struct ChainSignaling : ::testing::TestWithParam<int>, ChainFixture {
  ChainSignaling() : ChainFixture(GetParam()) {}
};

INSTANTIATE_TEST_SUITE_P(Sites, ChainSignaling, ::testing::Values(1, 2, 3),
                         [](const auto& pinfo) { return "sites" + std::to_string(pinfo.param); });

TEST_P(ChainSignaling, ForgedSetupIsDroppedAndLaterCallsConnect) {
  controller->agent(1);
  // A calling party out of range, negative, or a real host on another port.
  for (const int forged : {99, -1, 1}) {
    SignalingMessage setup;
    setup.type = SignalingMessageType::setup;
    setup.call_ref = 7;
    setup.calling_party = forged;
    setup.called_party = 1;
    inject(0, setup);
    engine.run();
  }
  EXPECT_EQ(controller->stats().setups, 0u);
  EXPECT_EQ(controller->stats().rejects, 0u);
  EXPECT_EQ(controller->stats().active_calls, 0u);
  EXPECT_EQ(controller->agent(1).stats().calls_accepted, 0u);

  const auto vc = connect();
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(carry(*vc, "after the forgery"), to_bytes("after the forgery"));
}

TEST_P(ChainSignaling, AnswerNotFromTheCalleeIsDropped) {
  controller->agent(callee).set_incoming_filter([](int) { return false; });
  int answers = 0;
  Status status;
  controller->agent(0).open_call(callee, [&](Result<VcId> r) {
    ++answers;
    status = r.status();
  });
  // The caller answers its own call right behind the SETUP: taken for the
  // callee's CONNECT, it would connect a call the callee refuses.
  SignalingMessage forged;
  forged.type = SignalingMessageType::connect;
  forged.call_ref = 1;
  forged.calling_party = 0;
  forged.called_party = callee;
  inject(0, forged);
  engine.run();
  EXPECT_EQ(answers, 1);
  EXPECT_EQ(status.code(), ErrorCode::failed_precondition);
  EXPECT_EQ(controller->stats().connects, 0u);
  EXPECT_EQ(controller->stats().rejects, 1u);
  EXPECT_EQ(controller->stats().active_calls, 0u);
}

TEST_P(ChainSignaling, HalfOpenCallAcrossPortFailureIsAnswered) {
  const int site = fabric->site_of(callee);
  const int port = fabric->local_port(callee);
  controller->agent(callee).set_incoming_filter([&](int) {
    fabric->site_switch(site).fault().set_port_down(port, true);
    return true;  // its CONNECT dies on the dead port
  });
  bool answered = false;
  Status status;
  controller->agent(0).open_call(callee, [&](Result<VcId> r) {
    answered = true;
    status = r.status();
  });
  engine.run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(status.code(), ErrorCode::failed_precondition);
  EXPECT_EQ(controller->stats().active_calls, 0u);
  EXPECT_EQ(controller->stats().faulted_releases, 1u);

  fabric->site_switch(site).fault().set_port_down(port, false);
  controller->agent(callee).set_incoming_filter(nullptr);
  const auto vc = connect();
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(carry(*vc, "after recovery"), to_bytes("after recovery"));
}

struct ThreeSiteSignaling : ::testing::Test, ChainFixture {
  ThreeSiteSignaling() : ChainFixture(3) {}  // hosts 0,1 | 2,3 | 4,5
};

TEST_F(ThreeSiteSignaling, CallAcrossTheChainConnectsCarriesAndReleases) {
  const auto vc = connect();
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(controller->stats().backbone_hops, 4u);  // offer out, connect back
  EXPECT_EQ(carry(*vc, "across three sites"), to_bytes("across three sites"));
  const auto back = controller->agent(callee).accepted_vc_from(0);
  ASSERT_TRUE(back.has_value());

  // How many of the call's two labels `site`'s switch cannot route, each
  // entering from the port its traffic uses.
  const auto unroutable_at = [&](int site) {
    Switch& sw = fabric->site_switch(site);
    const auto before = sw.stats().unroutable;
    for (const auto& [from, label] : {std::pair{0, *vc}, std::pair{callee, *back}}) {
      Burst burst;
      burst.vc = label;
      burst.payload = to_bytes("stale");
      burst.n_cells = static_cast<std::uint32_t>(aal5::cell_count(burst.payload.size()));
      sw.accept(fabric->port_toward(site, from), std::move(burst));
    }
    engine.run();
    return sw.stats().unroutable - before;
  };
  for (int site = 0; site < 3; ++site) EXPECT_EQ(unroutable_at(site), 0u) << "site " << site;

  controller->agent(0).release_call(*vc);
  engine.run();
  EXPECT_EQ(controller->stats().active_calls, 0u);
  EXPECT_FALSE(controller->agent(callee).accepted_vc_from(0).has_value());
  for (int site = 0; site < 3; ++site) EXPECT_EQ(unroutable_at(site), 2u) << "site " << site;

  const auto before = fabric->site_switch(0).stats().unroutable;
  fabric->nic(0).submit_tx(*vc, to_bytes("ghost"), true);
  engine.run();
  EXPECT_EQ(fabric->site_switch(0).stats().unroutable, before + 1);
}

TEST_F(ThreeSiteSignaling, MiddlePortFailureReleasesAndRejectsUntilRecovery) {
  controller->agent(3);  // site 1
  const auto vc = connect();
  ASSERT_TRUE(vc.has_value());
  int caller_told = 0;
  controller->agent(0).set_release_handler([&](VcId caller_vc, VcId) {
    if (caller_vc == *vc) ++caller_told;
  });

  // Site 1's port toward site 2.
  const int port = fabric->port_toward(1, callee);
  EXPECT_EQ(port, fabric->backbone_port(1) + 1);
  fabric->site_switch(1).fault().set_port_down(port, true);
  engine.run();
  EXPECT_EQ(controller->stats().faulted_releases, 1u);
  EXPECT_EQ(controller->stats().active_calls, 0u);
  EXPECT_EQ(caller_told, 1);
  EXPECT_FALSE(controller->agent(callee).accepted_vc_from(0).has_value());

  Status status;
  controller->agent(0).open_call(callee, [&](Result<VcId> r) { status = r.status(); });
  engine.run();
  EXPECT_EQ(status.code(), ErrorCode::failed_precondition);

  // A call whose path stops short of the dead port is unaffected.
  std::optional<VcId> near;
  controller->agent(0).open_call(3, [&](Result<VcId> r) {
    if (r.is_ok()) near = r.value();
  });
  engine.run();
  EXPECT_TRUE(near.has_value());

  fabric->site_switch(1).fault().set_port_down(port, false);
  const auto vc2 = connect();
  ASSERT_TRUE(vc2.has_value());
  EXPECT_NE(*vc2, *vc);
  EXPECT_EQ(carry(*vc2, "reestablished"), to_bytes("reestablished"));
}

}  // namespace
}  // namespace ncs::atm
