// ATM switched-virtual-circuit signaling (Q.2931-shaped, simplified).
//
// The paper's testbed uses preconfigured PVCs (the fabric installs a full
// mesh); real ATM deployments set circuits up on demand over the reserved
// signaling channel VPI 0 / VCI 5. This module adds that control plane to
// any chain of sites (atm::AtmFabric) as an extension:
//
//   host A               site switches (CallController)          host B
//   SETUP(called=B) ----->  allocate two VC labels   -----> SETUP(caller=A)
//                                                          agent accepts?
//   CONNECT(vc) <--------  install routes on every   <----- CONNECT
//                          switch of the path
//   ... data on the assigned VC ...
//   RELEASE(vc) ---------> remove the routes         -----> RELEASE_COMPLETE
//
// Signaling PDUs ride ordinary AAL5 on the signaling VC, which terminates
// at every site switch; a PDU for a host at another site is relayed one
// backbone hop at a time, so a same-site call is the zero-hop case of a
// cross-site one. A call keeps its two labels (one per direction) on every
// hop; they sit on VPI 0, clear of the backbone PVCs' VPIs 1-3. The
// controller treats a PDU's party fields as untrusted: a SETUP whose
// calling party is not the host on its ingress port, an answer that does
// not come from the callee, or a RELEASE from neither party is dropped.
//
// One port-failure rule: when a switch port goes down, every call whose
// path crosses it is torn down. A connected call's parties get
// RELEASE_COMPLETE; a half-open call's caller gets a REJECT (so open_call
// resolves with an error and may retry) and its callee RELEASE_COMPLETE.
// A CONNECT still crossing the backbone when its call is torn down reaches
// the caller as a REJECT. A SETUP is rejected while any port on its path
// is down.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

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

/// Switch-side call controller for a chain of any number of sites: owns the
/// dynamic VCI space, installs and removes each call's routes on every
/// switch of its path, and relays the signaling conversation between the
/// parties, hop by hop across the backbone.
class CallController {
 public:
  CallController(sim::Engine& engine, AtmFabric& fabric);

  /// Returns the agent for `host` (created lazily on first use).
  SignalingAgent& agent(int host);

  struct Stats {
    std::uint64_t setups = 0;
    std::uint64_t connects = 0;
    std::uint64_t rejects = 0;
    std::uint64_t releases = 0;
    std::uint64_t active_calls = 0;
    std::uint64_t backbone_hops = 0;     // backbone links crossed by signaling PDUs
    std::uint64_t faulted_releases = 0;  // calls torn down by port failure
  };
  const Stats& stats() const { return stats_; }

  /// Test hook: fast-forwards the dynamic label allocator so range-guard
  /// tests need not burn tens of thousands of real calls.
  void set_next_vci_for_test(std::uint16_t v) { next_vci_ = v; }

 private:
  struct Call {
    std::uint32_t call_ref;
    int caller;
    int callee;
    VcId caller_vc;  // label the caller transmits on, on every hop
    VcId callee_vc;  // label the callee transmits on, on every hop
    bool connected = false;
  };

  /// Entry point for signaling PDUs arriving at `site`'s switch from `in_port`.
  void on_signaling(int site, int in_port, const SignalingMessage& msg);
  /// Sends `msg` from `site`'s switch one hop toward `host`.
  void route_to_host(int site, int host, const SignalingMessage& msg);
  /// Sends a controller-made `type` PDU about `call` to `party` from `site`.
  void notify(int site, const Call& call, SignalingMessageType type, int party);
  /// Whether `host` is a valid host attached to `site`'s `in_port`.
  bool sent_by(int site, int in_port, int host) const;
  /// Whether any port on the caller -> callee path is down.
  bool path_down(int caller, int callee);
  VcId allocate_vc();
  void install_routes(const Call& call);
  /// Drops a connected call's routes and labels.
  void disconnect(const Call& call);
  /// The port-failure rule (see the file comment), driven by every site
  /// switch's SwitchFault.
  void fail_port(int site, int port);

  sim::Engine& engine_;
  AtmFabric& fabric_;
  std::map<int, std::unique_ptr<SignalingAgent>> agents_;
  std::map<std::pair<int, std::uint32_t>, Call> calls_;  // (caller, ref)
  std::map<VcId, std::pair<int, std::uint32_t>> by_vc_;  // either data vc -> call key
  std::uint16_t next_vci_ = kDynamicVciBase;
  Stats stats_;
};

}  // namespace ncs::atm
