#include "atm/signaling.hpp"

#include <utility>

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

CallController::CallController(sim::Engine& engine, AtmFabric& lan) : engine_(engine), lan_(lan) {
  NCS_ASSERT_MSG(lan_.n_sites() == 1, "CallController needs a one-site fabric");
  lan_.site_switch(0).add_local_endpoint(kSignalingVc, [this](int in_port, Burst burst) {
    const auto decoded = SignalingMessage::decode(burst.payload);
    if (!decoded.is_ok()) {
      NCS_WARN("atm.sig", "switch: dropping malformed signaling PDU from port %d", in_port);
      return;
    }
    on_signaling(in_port, decoded.value());
  });
  // Signaling always tracks the fabric's health: a dead port releases the
  // circuits through it so callers can re-establish after recovery.
  lan_.site_switch(0).fault().subscribe([this](int port, bool down) {
    if (down) {
      fail_port(port);
    } else {
      restore_port(port);
    }
  });
}

void CallController::release_call_faulted(const Call& call) {
  remove_call_routes(call);
  by_vc_.erase(call.caller_vc);
  by_vc_.erase(call.callee_vc);
  ++stats_.faulted_releases;
  if (call.connected) --stats_.active_calls;
  SignalingMessage note;
  note.type = SignalingMessageType::release_complete;
  note.call_ref = call.call_ref;
  note.calling_party = call.caller;
  note.called_party = call.callee;
  note.assigned_vc = call.caller_vc;
  note.peer_vc = call.callee_vc;
  // Both parties are told; the one on the dead port won't hear it (the
  // switch eats the PDU), matching reality.
  forward_to_host(call.caller, note);
  forward_to_host(call.callee, note);
}

void CallController::fail_port(int port) {
  if (!failed_ports_.insert(port).second) return;
  NCS_INFO("atm.sig", "call controller: port %d failed, releasing its calls", port);
  // Host index == port index on the LAN star.
  for (auto it = calls_.begin(); it != calls_.end();) {
    const Call call = it->second;
    if (call.caller == port || call.callee == port) {
      it = calls_.erase(it);
      release_call_faulted(call);
    } else {
      ++it;
    }
  }
}

void CallController::restore_port(int port) { failed_ports_.erase(port); }

SignalingAgent& CallController::agent(int host) {
  auto it = agents_.find(host);
  if (it == agents_.end()) {
    it = agents_
             .emplace(host,
                      std::make_unique<SignalingAgent>(engine_, lan_.nic(host), host))
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

void CallController::install_call_routes(const Call& call) {
  // Same label on both hops: (caller port, caller_vc) -> (callee port,
  // caller_vc), and the mirror for the callee's transmit label.
  lan_.site_switch(0).add_route(call.caller, call.caller_vc, call.callee, call.caller_vc);
  lan_.site_switch(0).add_route(call.callee, call.callee_vc, call.caller, call.callee_vc);
}

void CallController::remove_call_routes(const Call& call) {
  lan_.site_switch(0).remove_route(call.caller, call.caller_vc);
  lan_.site_switch(0).remove_route(call.callee, call.callee_vc);
}

void CallController::forward_to_host(int host, const SignalingMessage& msg) {
  Burst burst;
  burst.vc = kSignalingVc;
  burst.payload = msg.encode();
  burst.n_cells = static_cast<std::uint32_t>(aal5::cell_count(burst.payload.size()));
  burst.end_of_message = true;
  lan_.site_switch(0).send_local(host, std::move(burst));
}

void CallController::on_signaling(int in_port, const SignalingMessage& msg) {
  switch (msg.type) {
    case SignalingMessageType::setup: {
      ++stats_.setups;
      if (msg.called_party < 0 || msg.called_party >= lan_.n_hosts() ||
          failed_ports_.contains(msg.called_party)) {
        // Unknown party — or a known one behind a failed port, where the
        // offer could never be delivered: reject instead of letting the
        // caller hang on a SETUP with no answer.
        SignalingMessage reject = msg;
        reject.type = SignalingMessageType::reject;
        forward_to_host(msg.calling_party, reject);
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
      forward_to_host(call.callee, offer);
      return;
    }
    case SignalingMessageType::connect: {
      const auto it = calls_.find(std::make_pair(msg.calling_party, msg.call_ref));
      if (it == calls_.end()) return;
      Call& call = it->second;
      NCS_ASSERT(in_port == call.callee);
      call.connected = true;
      install_call_routes(call);
      by_vc_[call.caller_vc] = it->first;
      by_vc_[call.callee_vc] = it->first;
      ++stats_.connects;
      ++stats_.active_calls;
      // Tell the caller its transmit label and the label to expect.
      SignalingMessage connect = msg;
      connect.assigned_vc = call.caller_vc;
      connect.peer_vc = call.callee_vc;
      forward_to_host(call.caller, connect);
      return;
    }
    case SignalingMessageType::reject: {
      const auto it = calls_.find(std::make_pair(msg.calling_party, msg.call_ref));
      if (it == calls_.end()) return;
      ++stats_.rejects;
      forward_to_host(it->second.caller, msg);
      calls_.erase(it);
      return;
    }
    case SignalingMessageType::release: {
      const auto vit = by_vc_.find(msg.assigned_vc);
      if (vit == by_vc_.end()) return;
      const auto cit = calls_.find(vit->second);
      NCS_ASSERT(cit != calls_.end());
      const Call call = cit->second;
      remove_call_routes(call);
      by_vc_.erase(call.caller_vc);
      by_vc_.erase(call.callee_vc);
      calls_.erase(cit);
      ++stats_.releases;
      --stats_.active_calls;
      // Notify both parties.
      SignalingMessage note = msg;
      note.type = SignalingMessageType::release_complete;
      note.assigned_vc = call.caller_vc;
      note.peer_vc = call.callee_vc;
      forward_to_host(call.caller, note);
      forward_to_host(call.callee, note);
      return;
    }
    case SignalingMessageType::release_complete:
      return;  // host-side only
  }
}

WanCallController::WanCallController(sim::Engine& engine, AtmFabric& wan)
    : engine_(engine), wan_(wan) {
  NCS_ASSERT_MSG(wan_.n_sites() == 2, "WanCallController needs a two-site fabric");
  for (int site = 0; site < 2; ++site) {
    wan_.site_switch(site).add_local_endpoint(
        kSignalingVc, [this, site](int in_port, Burst burst) {
          const auto decoded = SignalingMessage::decode(burst.payload);
          if (!decoded.is_ok()) {
            NCS_WARN("atm.sig", "site %d: dropping malformed signaling PDU", site);
            return;
          }
          on_signaling(site, in_port, decoded.value());
        });
    wan_.site_switch(site).fault().subscribe([this, site](int port, bool down) {
      if (down) {
        fail_port(site, port);
      } else {
        restore_port(site, port);
      }
    });
  }
}

bool WanCallController::touches_port(const Call& call, int site, int port) const {
  if (port == wan_.backbone_port(site))
    return wan_.site_of(call.caller) != wan_.site_of(call.callee);
  for (const int party : {call.caller, call.callee})
    if (wan_.site_of(party) == site && wan_.local_port(party) == port) return true;
  return false;
}

void WanCallController::release_call_faulted(const Call& call) {
  remove_call_routes(call);
  by_vc_.erase(call.caller_vc);
  by_vc_.erase(call.callee_vc);
  ++stats_.faulted_releases;
  --stats_.active_calls;
  for (const int party : {call.caller, call.callee}) {
    SignalingMessage note;
    note.type = SignalingMessageType::release_complete;
    note.call_ref = call.call_ref;
    note.calling_party = call.caller;
    note.called_party = party;  // explicit destination for transit hops
    note.assigned_vc = call.caller_vc;
    note.peer_vc = call.callee_vc;
    route_to_host(wan_.site_of(party), party, note);
  }
}

void WanCallController::fail_port(int site, int port) {
  if (!failed_ports_.insert({site, port}).second) return;
  NCS_INFO("atm.sig", "wan call controller: site %d port %d failed", site, port);
  // Connected calls only (by_vc_): half-open calls resolve when the
  // CONNECT/REJECT PDU is eaten by the dead port and the caller retries.
  for (auto it = calls_.begin(); it != calls_.end();) {
    const Call call = it->second;
    if (by_vc_.contains(call.caller_vc) && touches_port(call, site, port)) {
      it = calls_.erase(it);
      release_call_faulted(call);
    } else {
      ++it;
    }
  }
}

void WanCallController::restore_port(int site, int port) {
  failed_ports_.erase({site, port});
}

SignalingAgent& WanCallController::agent(int host) {
  auto it = agents_.find(host);
  if (it == agents_.end()) {
    it = agents_
             .emplace(host,
                      std::make_unique<SignalingAgent>(engine_, wan_.nic(host), host))
             .first;
  }
  return *it->second;
}

VcId WanCallController::allocate_vc() {
  // Same bound as the LAN controller: dynamic labels stop short of the
  // lowest reserved PVC plane (the NIC collective-context range) instead
  // of wrapping into it.
  NCS_ASSERT_MSG(next_vci_ < kCollVciBase, "dynamic VCI space exhausted");
  return VcId{0, next_vci_++};
}

void WanCallController::send_on_switch_port(int site, int port, const SignalingMessage& msg) {
  Burst burst;
  burst.vc = kSignalingVc;
  burst.payload = msg.encode();
  burst.n_cells = static_cast<std::uint32_t>(aal5::cell_count(burst.payload.size()));
  burst.end_of_message = true;
  wan_.site_switch(site).send_local(port, std::move(burst));
}

void WanCallController::route_to_host(int from_site, int host, const SignalingMessage& msg) {
  const int target_site = wan_.site_of(host);
  if (target_site != from_site) {
    // Transit the backbone: the peer switch's local endpoint re-enters
    // on_signaling with in_port == its backbone port.
    ++stats_.backbone_hops;
    send_on_switch_port(from_site, wan_.backbone_port(from_site), msg);
    return;
  }
  send_on_switch_port(target_site, wan_.local_port(host), msg);
}

void WanCallController::install_call_routes(const Call& call) {
  const int sa = wan_.site_of(call.caller);
  const int sb = wan_.site_of(call.callee);
  Switch& swa = wan_.site_switch(sa);
  Switch& swb = wan_.site_switch(sb);
  const int pa = wan_.local_port(call.caller);
  const int pb = wan_.local_port(call.callee);
  if (sa == sb) {
    swa.add_route(pa, call.caller_vc, pb, call.caller_vc);
    swa.add_route(pb, call.callee_vc, pa, call.callee_vc);
    return;
  }
  // Label continuity across the backbone: the same VCI on every hop.
  swa.add_route(pa, call.caller_vc, wan_.backbone_port(sa), call.caller_vc);
  swb.add_route(wan_.backbone_port(sb), call.caller_vc, pb, call.caller_vc);
  swb.add_route(pb, call.callee_vc, wan_.backbone_port(sb), call.callee_vc);
  swa.add_route(wan_.backbone_port(sa), call.callee_vc, pa, call.callee_vc);
}

void WanCallController::remove_call_routes(const Call& call) {
  const int sa = wan_.site_of(call.caller);
  const int sb = wan_.site_of(call.callee);
  const int pa = wan_.local_port(call.caller);
  const int pb = wan_.local_port(call.callee);
  if (sa == sb) {
    wan_.site_switch(sa).remove_route(pa, call.caller_vc);
    wan_.site_switch(sa).remove_route(pb, call.callee_vc);
    return;
  }
  wan_.site_switch(sa).remove_route(pa, call.caller_vc);
  wan_.site_switch(sb).remove_route(wan_.backbone_port(sb), call.caller_vc);
  wan_.site_switch(sb).remove_route(pb, call.callee_vc);
  wan_.site_switch(sa).remove_route(wan_.backbone_port(sa), call.callee_vc);
}

void WanCallController::on_signaling(int site, int in_port, const SignalingMessage& msg) {
  // A message entering from the backbone port continues towards its
  // destination host; host-originated messages drive the call state.
  const bool from_backbone = in_port == wan_.backbone_port(site);

  switch (msg.type) {
    case SignalingMessageType::setup: {
      if (from_backbone) {  // offer in transit towards the callee
        route_to_host(site, msg.called_party, msg);
        return;
      }
      ++stats_.setups;
      bool unreachable = msg.called_party < 0 || msg.called_party >= wan_.n_hosts();
      if (!unreachable) {
        const int target_site = wan_.site_of(msg.called_party);
        unreachable =
            failed_ports_.contains({target_site, wan_.local_port(msg.called_party)});
        // A cross-site offer also needs the backbone alive on both ends.
        if (target_site != site)
          unreachable = unreachable ||
                        failed_ports_.contains({site, wan_.backbone_port(site)}) ||
                        failed_ports_.contains(
                            {target_site, wan_.backbone_port(target_site)});
      }
      if (unreachable) {
        SignalingMessage reject = msg;
        reject.type = SignalingMessageType::reject;
        route_to_host(site, msg.calling_party, reject);
        ++stats_.rejects;
        return;
      }
      Call call{msg.call_ref, msg.calling_party, msg.called_party, allocate_vc(),
                allocate_vc()};
      calls_.emplace(std::make_pair(call.caller, call.call_ref), call);
      SignalingMessage offer = msg;
      offer.assigned_vc = call.callee_vc;
      offer.peer_vc = call.caller_vc;
      route_to_host(site, call.callee, offer);
      return;
    }
    case SignalingMessageType::connect: {
      if (from_backbone) {
        route_to_host(site, msg.calling_party, msg);
        return;
      }
      const auto it = calls_.find(std::make_pair(msg.calling_party, msg.call_ref));
      if (it == calls_.end()) return;
      Call& call = it->second;
      install_call_routes(call);
      by_vc_[call.caller_vc] = it->first;
      by_vc_[call.callee_vc] = it->first;
      ++stats_.connects;
      ++stats_.active_calls;
      SignalingMessage connect = msg;
      connect.assigned_vc = call.caller_vc;
      connect.peer_vc = call.callee_vc;
      route_to_host(site, call.caller, connect);
      return;
    }
    case SignalingMessageType::reject: {
      if (from_backbone) {
        route_to_host(site, msg.calling_party, msg);
        return;
      }
      const auto it = calls_.find(std::make_pair(msg.calling_party, msg.call_ref));
      if (it == calls_.end()) return;
      ++stats_.rejects;
      SignalingMessage reject = msg;
      route_to_host(site, it->second.caller, reject);
      calls_.erase(it);
      return;
    }
    case SignalingMessageType::release: {
      if (from_backbone) return;  // teardown is driven at first entry
      const auto vit = by_vc_.find(msg.assigned_vc);
      if (vit == by_vc_.end()) return;
      const auto cit = calls_.find(vit->second);
      NCS_ASSERT(cit != calls_.end());
      const Call call = cit->second;
      remove_call_routes(call);
      by_vc_.erase(call.caller_vc);
      by_vc_.erase(call.callee_vc);
      calls_.erase(cit);
      ++stats_.releases;
      --stats_.active_calls;
      for (const int party : {call.caller, call.callee}) {
        SignalingMessage note = msg;
        note.type = SignalingMessageType::release_complete;
        note.called_party = party;  // explicit destination for transit hops
        note.assigned_vc = call.caller_vc;
        note.peer_vc = call.callee_vc;
        route_to_host(site, party, note);
      }
      return;
    }
    case SignalingMessageType::release_complete:
      if (from_backbone) route_to_host(site, msg.called_party, msg);
      return;
  }
}

}  // namespace ncs::atm
