// ATM switched-virtual-circuit signaling (Q.2931-shaped, simplified).
//
// The paper's testbed uses preconfigured PVCs (our topology builders
// install a full mesh); real ATM deployments set circuits up on demand
// over the reserved signaling channel VPI 0 / VCI 5. This module adds that
// control plane to the LAN fabric as an extension:
//
//   host A                switch (CallController)              host B
//   SETUP(called=B) ----->  allocate VC labels,
//                           install half routes   -----> SETUP(caller=A)
//                                                        agent accepts?
//   CONNECT(vc) <--------  activate routes        <----- CONNECT
//   ... data on the assigned VC ...
//   RELEASE(vc) ---------> tear down routes       -----> RELEASE(vc)
//
// Signaling messages ride ordinary AAL5 PDUs on the signaling VC; the
// CallController owns the dynamic label space above the static mesh and
// mutates the switch's routing table at call setup/teardown — exercising
// the switch as a mutable, not just preconfigured, fabric.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "atm/network.hpp"
#include "common/result.hpp"

namespace ncs::atm {

/// Signaling channel (ITU-T Q.2931 / UNI: VPI 0, VCI 5).
inline constexpr VcId kSignalingVc{0, 5};
/// Dynamic labels are allocated at and above this VCI (the static PVC mesh
/// lives in [kVciBase, kVciBase + hosts)).
inline constexpr std::uint16_t kDynamicVciBase = 1024;

enum class SignalingMessageType : std::uint8_t {
  setup = 1,
  connect = 2,
  release = 3,
  release_complete = 4,
  reject = 5,
};

struct SignalingMessage {
  SignalingMessageType type = SignalingMessageType::setup;
  std::uint32_t call_ref = 0;  // caller-chosen call reference
  int calling_party = -1;      // host index
  int called_party = -1;       // host index
  /// Assigned data VC to transmit on (meaningful in connect / release).
  VcId assigned_vc{};
  /// Data VC the peer transmits on, i.e. the label to expect inbound
  /// traffic under (meaningful in connect).
  VcId peer_vc{};

  Bytes encode() const;
  static Result<SignalingMessage> decode(BytesView wire);
};

/// Per-host user side of the signaling protocol. The application polls or
/// registers callbacks; everything runs on engine events (no threads
/// required, so it composes with any runtime above).
class SignalingAgent {
 public:
  using ConnectHandler = std::function<void(Result<VcId>)>;
  /// Return true to accept the call (the default handler accepts).
  using IncomingFilter = std::function<bool(int calling_party)>;
  /// Invoked when the network (or the peer) releases an established call:
  /// (caller's tx label, callee's tx label). Data-plane users invalidate
  /// cached circuits here so the next send re-signals.
  using ReleaseHandler = std::function<void(VcId, VcId)>;

  SignalingAgent(sim::Engine& engine, Nic& nic, int host_index);

  /// Initiates call setup to `called_party`. `on_complete` fires with the
  /// data VC to *send on*, or an error if the callee rejected.
  void open_call(int called_party, ConnectHandler on_complete);

  /// Releases an established call by its data VC (either side may).
  void release_call(VcId data_vc);

  void set_incoming_filter(IncomingFilter filter) { incoming_filter_ = std::move(filter); }
  void set_release_handler(ReleaseHandler handler) { release_handler_ = std::move(handler); }

  /// Data VC to send on for calls accepted as the callee, keyed by caller.
  std::optional<VcId> accepted_vc_from(int calling_party) const;

  struct Stats {
    std::uint64_t calls_opened = 0;
    std::uint64_t calls_accepted = 0;
    std::uint64_t calls_rejected = 0;
    std::uint64_t releases = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Wire-in from the NIC demultiplexer (signaling VC traffic).
  void on_signaling_pdu(BytesView wire);

 private:
  void send(const SignalingMessage& msg);

  sim::Engine& engine_;
  Nic& nic_;
  int host_;
  std::uint32_t next_call_ref_ = 1;
  IncomingFilter incoming_filter_;
  ReleaseHandler release_handler_;
  std::map<std::uint32_t, ConnectHandler> pending_;          // my outgoing calls
  std::map<int, VcId> accepted_;                             // caller -> data vc
  Stats stats_;
};

/// Switch-side call controller for a single-switch (LAN) fabric: owns the
/// dynamic VCI space, installs/removes routes, and relays the signaling
/// conversation between the parties.
class CallController {
 public:
  CallController(sim::Engine& engine, AtmFabric& lan);

  /// Returns the agent for `host` (created lazily on first use).
  SignalingAgent& agent(int host);

  /// Port-failure handling (driven by the switch's SwitchFault, to which
  /// the controller subscribes at construction; tests may call directly).
  /// fail_port releases every call whose party sits on `port` and rejects
  /// new SETUPs towards it until restore_port.
  void fail_port(int port);
  void restore_port(int port);

  struct Stats {
    std::uint64_t setups = 0;
    std::uint64_t connects = 0;
    std::uint64_t rejects = 0;
    std::uint64_t releases = 0;
    std::uint64_t active_calls = 0;
    std::uint64_t faulted_releases = 0;  // calls torn down by port failure
  };
  const Stats& stats() const { return stats_; }

  /// Test hook: fast-forwards the dynamic label allocator so range-guard
  /// tests need not burn tens of thousands of real calls.
  void set_next_vci_for_test(std::uint16_t v) { next_vci_ = v; }

 private:
  friend class SignalingAgent;

  struct Call {
    std::uint32_t call_ref;
    int caller;
    int callee;
    VcId caller_vc;  // label the caller transmits on
    VcId callee_vc;  // label the callee transmits on
    bool connected = false;
  };

  /// Entry point for signaling PDUs arriving at the switch from `in_port`.
  void on_signaling(int in_port, const SignalingMessage& msg);
  void forward_to_host(int host, const SignalingMessage& msg);
  VcId allocate_vc();
  void install_call_routes(const Call& call);
  void remove_call_routes(const Call& call);

  void release_call_faulted(const Call& call);

  sim::Engine& engine_;
  AtmFabric& lan_;
  std::map<int, std::unique_ptr<SignalingAgent>> agents_;
  std::map<std::pair<int, std::uint32_t>, Call> calls_;  // (caller, ref)
  std::map<VcId, std::pair<int, std::uint32_t>> by_vc_;  // either data vc -> call key
  std::set<int> failed_ports_;
  std::uint16_t next_vci_ = kDynamicVciBase;
  Stats stats_;
};

/// Call controller for the two-site WAN fabric: the same protocol, but a
/// cross-site call's signaling transits the SONET backbone hop-by-hop and
/// its data routes are installed on *both* site switches with label
/// continuity across the backbone.
class WanCallController {
 public:
  WanCallController(sim::Engine& engine, AtmFabric& wan);

  SignalingAgent& agent(int host);

  /// Port-failure handling on `site`'s switch (subscribed to both site
  /// switches' SwitchFault at construction). A failed backbone port
  /// releases every cross-site call.
  void fail_port(int site, int port);
  void restore_port(int site, int port);

  struct Stats {
    std::uint64_t setups = 0;
    std::uint64_t connects = 0;
    std::uint64_t rejects = 0;
    std::uint64_t releases = 0;
    std::uint64_t active_calls = 0;
    std::uint64_t backbone_hops = 0;  // signaling messages that crossed sites
    std::uint64_t faulted_releases = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Test hook: fast-forwards the dynamic label allocator (see
  /// CallController::set_next_vci_for_test).
  void set_next_vci_for_test(std::uint16_t v) { next_vci_ = v; }

 private:
  struct Call {
    std::uint32_t call_ref;
    int caller;
    int callee;
    VcId caller_vc;
    VcId callee_vc;
  };

  void on_signaling(int site, int in_port, const SignalingMessage& msg);
  /// Delivers `msg` to `host`, transiting the backbone first when it is
  /// not reachable from `from_site`.
  void route_to_host(int from_site, int host, const SignalingMessage& msg);
  void send_on_switch_port(int site, int port, const SignalingMessage& msg);
  VcId allocate_vc();
  void install_call_routes(const Call& call);
  void remove_call_routes(const Call& call);

  void release_call_faulted(const Call& call);
  bool touches_port(const Call& call, int site, int port) const;

  sim::Engine& engine_;
  AtmFabric& wan_;
  std::map<int, std::unique_ptr<SignalingAgent>> agents_;
  std::map<std::pair<int, std::uint32_t>, Call> calls_;
  std::map<VcId, std::pair<int, std::uint32_t>> by_vc_;
  std::set<std::pair<int, int>> failed_ports_;  // (site, port)
  std::uint16_t next_vci_ = kDynamicVciBase;
  Stats stats_;
};

}  // namespace ncs::atm
