#include "atm/signaling.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace ncs::atm {

namespace {

/// Small signaling PDUs are submitted as soon as a TX buffer frees; the
/// agent runs on engine events, so it queues instead of blocking.
void submit_when_free(sim::Engine& engine, Nic& nic, VcId vc, Bytes pdu) {
  if (nic.tx_buffer_available()) {
    nic.submit_tx(vc, std::move(pdu), /*end_of_message=*/true);
    return;
  }
  // Capture by value; retry on the buffer-free notification.
  nic.notify_tx_buffer([&engine, &nic, vc, p = std::move(pdu)]() mutable {
    submit_when_free(engine, nic, vc, std::move(p));
  });
}

/// One site on a call's path and its switch's ports toward each party.
struct Hop {
  int site;
  int to_caller;
  int to_callee;
};

/// The sites from the caller's to the callee's, in order: one for a
/// same-site call.
std::vector<Hop> path_of(const AtmFabric& fabric, int caller, int callee) {
  std::vector<Hop> path;
  const int last = fabric.site_of(callee);
  for (int site = fabric.site_of(caller);; site += site < last ? 1 : -1) {
    path.push_back({site, fabric.port_toward(site, caller), fabric.port_toward(site, callee)});
    if (site == last) return path;
  }
}

}  // namespace

Bytes SignalingMessage::encode() const {
  Bytes out(1 + 4 + 4 + 4 + 2 * 3);
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(call_ref);
  w.u32(static_cast<std::uint32_t>(calling_party));
  w.u32(static_cast<std::uint32_t>(called_party));
  w.u8(assigned_vc.vpi);
  w.u16(assigned_vc.vci);
  w.u8(peer_vc.vpi);
  w.u16(peer_vc.vci);
  return out;
}

Result<SignalingMessage> SignalingMessage::decode(BytesView wire) {
  if (wire.size() < 19) return Status(ErrorCode::data_corruption, "short signaling PDU");
  ByteReader r(wire);
  SignalingMessage m;
  const std::uint8_t t = r.u8();
  if (t < 1 || t > 5) return Status(ErrorCode::data_corruption, "bad signaling type");
  m.type = static_cast<SignalingMessageType>(t);
  m.call_ref = r.u32();
  m.calling_party = static_cast<int>(r.u32());
  m.called_party = static_cast<int>(r.u32());
  m.assigned_vc.vpi = r.u8();
  m.assigned_vc.vci = r.u16();
  m.peer_vc.vpi = r.u8();
  m.peer_vc.vci = r.u16();
  return m;
}

SignalingAgent::SignalingAgent(sim::Engine& engine, Nic& nic, int host_index)
    : engine_(engine), nic_(nic), host_(host_index) {
  nic_.set_vc_handler(kSignalingVc, [this](VcId, Bytes data, bool) {
    on_signaling_pdu(data);
  });
}

void SignalingAgent::send(const SignalingMessage& msg) {
  submit_when_free(engine_, nic_, kSignalingVc, msg.encode());
}

void SignalingAgent::open_call(int called_party, ConnectHandler on_complete) {
  NCS_ASSERT(on_complete != nullptr);
  SignalingMessage msg;
  msg.type = SignalingMessageType::setup;
  msg.call_ref = next_call_ref_++;
  msg.calling_party = host_;
  msg.called_party = called_party;
  pending_.emplace(msg.call_ref, std::move(on_complete));
  ++stats_.calls_opened;
  send(msg);
}

void SignalingAgent::release_call(VcId data_vc) {
  SignalingMessage msg;
  msg.type = SignalingMessageType::release;
  msg.calling_party = host_;
  msg.assigned_vc = data_vc;
  ++stats_.releases;
  send(msg);
}

std::optional<VcId> SignalingAgent::accepted_vc_from(int calling_party) const {
  const auto it = accepted_.find(calling_party);
  if (it == accepted_.end()) return std::nullopt;
  return it->second;
}

void SignalingAgent::on_signaling_pdu(BytesView wire) {
  const auto decoded = SignalingMessage::decode(wire);
  if (!decoded.is_ok()) {
    NCS_WARN("atm.sig", "host %d: dropping malformed signaling PDU", host_);
    return;
  }
  const SignalingMessage& msg = decoded.value();

  switch (msg.type) {
    case SignalingMessageType::setup: {
      // Incoming call offer (relayed by the controller).
      const bool accept = !incoming_filter_ || incoming_filter_(msg.calling_party);
      SignalingMessage reply = msg;
      reply.type = accept ? SignalingMessageType::connect : SignalingMessageType::reject;
      if (accept) {
        ++stats_.calls_accepted;
        accepted_[msg.calling_party] = msg.assigned_vc;  // my tx label
      } else {
        ++stats_.calls_rejected;
      }
      send(reply);
      return;
    }
    case SignalingMessageType::connect: {
      const auto it = pending_.find(msg.call_ref);
      if (it == pending_.end()) return;
      ConnectHandler handler = std::move(it->second);
      pending_.erase(it);
      handler(Result<VcId>(msg.assigned_vc));
      return;
    }
    case SignalingMessageType::reject: {
      const auto it = pending_.find(msg.call_ref);
      if (it == pending_.end()) return;
      ConnectHandler handler = std::move(it->second);
      pending_.erase(it);
      handler(Result<VcId>(Status(ErrorCode::failed_precondition, "call rejected by callee")));
      return;
    }
    case SignalingMessageType::release:
    case SignalingMessageType::release_complete:
      // Peer or network released; forget any matching accepted call.
      for (auto it = accepted_.begin(); it != accepted_.end(); ++it) {
        if (it->second == msg.assigned_vc || it->second == msg.peer_vc) {
          accepted_.erase(it);
          break;
        }
      }
      // Let the data plane invalidate any circuit cache keyed on either
      // label (the caller's tx label rides in assigned_vc).
      if (release_handler_) release_handler_(msg.assigned_vc, msg.peer_vc);
      return;
  }
}

CallController::CallController(sim::Engine& engine, AtmFabric& fabric)
    : engine_(engine), fabric_(fabric) {
  for (int site = 0; site < fabric_.n_sites(); ++site) {
    Switch& sw = fabric_.site_switch(site);
    sw.add_local_endpoint(kSignalingVc, [this, site](int in_port, Burst burst) {
      const auto decoded = SignalingMessage::decode(burst.payload);
      if (!decoded.is_ok()) {
        NCS_WARN("atm.sig", "site %d: dropping malformed signaling PDU from port %d", site,
                 in_port);
        return;
      }
      on_signaling(site, in_port, decoded.value());
    });
    // Signaling always tracks the fabric's health: a dead port releases the
    // calls through it so callers can re-establish after recovery.
    sw.fault().subscribe([this, site](int port, bool down) {
      if (down) fail_port(site, port);
    });
  }
}

SignalingAgent& CallController::agent(int host) {
  auto it = agents_.find(host);
  if (it == agents_.end()) {
    it = agents_
             .emplace(host,
                      std::make_unique<SignalingAgent>(engine_, fabric_.nic(host), host))
             .first;
  }
  return *it->second;
}

VcId CallController::allocate_vc() {
  // Dynamic labels must stay below every reserved PVC plane. The NIC
  // collective-context range (kCollVciBase) now sits *under* the RMA range,
  // so guarding against kRmaVciBase alone would let SVC churn silently
  // splice call labels into live firmware combine contexts.
  static_assert(kCollVciBase < kRmaVciBase);
  NCS_ASSERT_MSG(next_vci_ < kCollVciBase, "dynamic VCI space exhausted");
  return VcId{0, next_vci_++};
}

void CallController::route_to_host(int site, int host, const SignalingMessage& msg) {
  const int port = fabric_.port_toward(site, host);
  // Out a backbone port, the next switch's local endpoint re-enters
  // on_signaling with the message in transit.
  if (port >= fabric_.backbone_port(site)) ++stats_.backbone_hops;
  Burst burst;
  burst.vc = kSignalingVc;
  burst.payload = msg.encode();
  burst.n_cells = static_cast<std::uint32_t>(aal5::cell_count(burst.payload.size()));
  burst.end_of_message = true;
  fabric_.site_switch(site).send_local(port, std::move(burst));
}

void CallController::notify(int site, const Call& call, SignalingMessageType type, int party) {
  SignalingMessage note;
  note.type = type;
  note.call_ref = call.call_ref;
  note.calling_party = call.caller;
  note.called_party = party;  // explicit destination for transit hops
  note.assigned_vc = call.caller_vc;
  note.peer_vc = call.callee_vc;
  route_to_host(site, party, note);
}

bool CallController::sent_by(int site, int in_port, int host) const {
  return host >= 0 && host < fabric_.n_hosts() && fabric_.port_toward(site, host) == in_port;
}

bool CallController::path_down(int caller, int callee) {
  for (const Hop& hop : path_of(fabric_, caller, callee)) {
    const fault::SwitchFault& fault = fabric_.site_switch(hop.site).fault();
    if (fault.port_down(hop.to_caller) || fault.port_down(hop.to_callee)) return true;
  }
  return false;
}

void CallController::install_routes(const Call& call) {
  // The same label on every hop: the caller's toward the callee, and the
  // mirror for the callee's transmit label.
  for (const Hop& hop : path_of(fabric_, call.caller, call.callee)) {
    Switch& sw = fabric_.site_switch(hop.site);
    sw.add_route(hop.to_caller, call.caller_vc, hop.to_callee, call.caller_vc);
    sw.add_route(hop.to_callee, call.callee_vc, hop.to_caller, call.callee_vc);
  }
}

void CallController::disconnect(const Call& call) {
  for (const Hop& hop : path_of(fabric_, call.caller, call.callee)) {
    fabric_.site_switch(hop.site).remove_route(hop.to_caller, call.caller_vc);
    fabric_.site_switch(hop.site).remove_route(hop.to_callee, call.callee_vc);
  }
  by_vc_.erase(call.caller_vc);
  by_vc_.erase(call.callee_vc);
  --stats_.active_calls;
}

void CallController::fail_port(int site, int port) {
  NCS_INFO("atm.sig", "call controller: site %d port %d failed, releasing its calls", site,
           port);
  for (auto it = calls_.begin(); it != calls_.end();) {
    const Call call = it->second;
    const auto path = path_of(fabric_, call.caller, call.callee);
    if (std::none_of(path.begin(), path.end(), [&](const Hop& hop) {
          return hop.site == site && (hop.to_caller == port || hop.to_callee == port);
        })) {
      ++it;
      continue;
    }
    it = calls_.erase(it);
    ++stats_.faulted_releases;
    if (call.connected) disconnect(call);
    // Each party hears from its own site's switch; one behind the dead port
    // never does (the switch eats the PDU), matching reality.
    notify(fabric_.site_of(call.caller), call,
           call.connected ? SignalingMessageType::release_complete
                          : SignalingMessageType::reject,
           call.caller);
    notify(fabric_.site_of(call.callee), call, SignalingMessageType::release_complete,
           call.callee);
  }
}

void CallController::on_signaling(int site, int in_port, const SignalingMessage& msg) {
  // A PDU entering from a backbone port is in transit and goes on toward its
  // destination host; only a host's own PDU drives the call state.
  if (in_port >= fabric_.backbone_port(site)) {
    switch (msg.type) {
      case SignalingMessageType::setup:
      case SignalingMessageType::release_complete:
        route_to_host(site, msg.called_party, msg);
        return;
      case SignalingMessageType::connect:
      case SignalingMessageType::reject: {
        // A call torn down while its CONNECT crossed the backbone reaches
        // its caller as refused, not as a circuit whose routes are gone.
        SignalingMessage answer = msg;
        if (!calls_.contains(std::make_pair(msg.calling_party, msg.call_ref)))
          answer.type = SignalingMessageType::reject;
        route_to_host(site, msg.calling_party, answer);
        return;
      }
      case SignalingMessageType::release:
        return;  // teardown is driven where the RELEASE enters
    }
  }

  switch (msg.type) {
    case SignalingMessageType::setup: {
      if (!sent_by(site, in_port, msg.calling_party)) {
        NCS_WARN("atm.sig", "site %d: dropping SETUP from port %d that names calling party %d",
                 site, in_port, msg.calling_party);
        return;
      }
      ++stats_.setups;
      if (msg.called_party < 0 || msg.called_party >= fabric_.n_hosts() ||
          path_down(msg.calling_party, msg.called_party)) {
        // Unknown party, or one behind a failed port where the offer could
        // never be delivered: reject instead of letting the caller hang on
        // a SETUP with no answer.
        SignalingMessage reject = msg;
        reject.type = SignalingMessageType::reject;
        route_to_host(site, msg.calling_party, reject);
        ++stats_.rejects;
        return;
      }
      Call call{msg.call_ref, msg.calling_party, msg.called_party, allocate_vc(),
                allocate_vc()};
      calls_.emplace(std::make_pair(call.caller, call.call_ref), call);
      // Offer to the callee, telling it which label it would transmit on
      // and which label the caller's traffic will arrive under.
      SignalingMessage offer = msg;
      offer.assigned_vc = call.callee_vc;
      offer.peer_vc = call.caller_vc;
      route_to_host(site, call.callee, offer);
      return;
    }
    case SignalingMessageType::connect:
    case SignalingMessageType::reject: {
      // Only the callee answers, and only a call still waiting for it.
      const auto it = calls_.find(std::make_pair(msg.calling_party, msg.call_ref));
      if (it == calls_.end() || it->second.connected) return;
      Call& call = it->second;
      if (!sent_by(site, in_port, call.callee)) {
        NCS_WARN("atm.sig", "site %d: dropping an answer from port %d, not the callee's",
                 site, in_port);
        return;
      }
      if (msg.type == SignalingMessageType::reject) {
        ++stats_.rejects;
        route_to_host(site, call.caller, msg);
        calls_.erase(it);
        return;
      }
      call.connected = true;
      install_routes(call);
      by_vc_[call.caller_vc] = it->first;
      by_vc_[call.callee_vc] = it->first;
      ++stats_.connects;
      ++stats_.active_calls;
      // Tell the caller its transmit label and the label to expect.
      SignalingMessage connect = msg;
      connect.assigned_vc = call.caller_vc;
      connect.peer_vc = call.callee_vc;
      route_to_host(site, call.caller, connect);
      return;
    }
    case SignalingMessageType::release: {
      const auto vit = by_vc_.find(msg.assigned_vc);
      if (vit == by_vc_.end()) return;
      const auto cit = calls_.find(vit->second);
      NCS_ASSERT(cit != calls_.end());
      const Call call = cit->second;
      if (!sent_by(site, in_port, call.caller) && !sent_by(site, in_port, call.callee)) {
        NCS_WARN("atm.sig", "site %d: dropping a RELEASE from port %d, not a party's", site,
                 in_port);
        return;
      }
      calls_.erase(cit);
      disconnect(call);
      ++stats_.releases;
      notify(site, call, SignalingMessageType::release_complete, call.caller);
      notify(site, call, SignalingMessageType::release_complete, call.callee);
      return;
    }
    case SignalingMessageType::release_complete:
      return;  // host-side only
  }
}

}  // namespace ncs::atm
