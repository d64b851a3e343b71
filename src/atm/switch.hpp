// Output-buffered ATM switch (the FORE ASX role).
//
// Ports pair an outgoing link with the sink reachable over it. Forwarding:
// look up (input port, VPI/VCI) in the connection table, rewrite the label,
// and queue the burst on the output port's link after a fixed forwarding
// latency. Output contention is resolved by the link's FIFO serialization —
// the behaviour of an output-buffered switch under the paper's workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "atm/burst.hpp"
#include "common/time.hpp"
#include "fault/faults.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace ncs::atm {

struct SwitchParams {
  /// Per-burst lookup + cut-through latency (first-bit-in to first-bit-out).
  Duration forward_latency = Duration::microseconds(10);
};

class Switch : public CellSink {
 public:
  Switch(sim::Engine& engine, SwitchParams params, std::string name = "switch");

  /// Adds an output port transmitting on `out_link` towards `peer`, which
  /// will see the burst arrive on its `peer_port`. Returns the port index.
  int add_port(net::Link& out_link, CellSink& peer, int peer_port);

  /// Installs (in_port, in_vc) -> (out_port, out_vc). Duplicate entries abort.
  void add_route(int in_port, VcId in_vc, int out_port, VcId out_vc);

  /// Removes a route (call teardown). Returns false if absent.
  bool remove_route(int in_port, VcId in_vc);

  /// Registers a switch-local endpoint: bursts arriving on `vc` from any
  /// port are handed to `handler` (with the input port) instead of being
  /// forwarded — how the signaling channel terminates at the call
  /// controller.
  using LocalHandler = std::function<void(int, Burst)>;
  void add_local_endpoint(VcId vc, LocalHandler handler);

  /// Originates a burst from the switch itself onto `out_port` (control
  /// traffic towards a host).
  void send_local(int out_port, Burst burst);

  /// Link-delivery entry point.
  void accept(int in_port, Burst burst) override;

  struct Stats {
    std::uint64_t bursts = 0;
    std::uint64_t cells = 0;
    std::uint64_t unroutable = 0;
    std::uint64_t port_drops = 0;  // bursts eaten by a failed port
  };
  const Stats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  /// Per-port failure state. Bursts entering or leaving a downed port are
  /// dropped (and counted); the SVC call controller subscribes here to
  /// release circuits through dead ports.
  fault::SwitchFault& fault() { return fault_; }

  /// Registers the switch's counters under `prefix` (e.g. "switch").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

  /// Forwarding spans (cut-through latency per burst) go onto `track`.
  void set_trace(obs::TraceLog* trace, int track) {
    trace_ = trace;
    trace_track_ = track;
  }

 private:
  struct Port {
    net::Link* link;
    CellSink* peer;
    int peer_port;
  };

  sim::Engine& engine_;
  SwitchParams params_;
  std::string name_;
  std::vector<Port> ports_;
  std::map<std::pair<int, VcId>, std::pair<int, VcId>> routes_;
  std::map<VcId, LocalHandler> local_;
  fault::SwitchFault fault_;
  obs::TraceLog* trace_ = nullptr;
  int trace_track_ = -1;
  Stats stats_;
};

}  // namespace ncs::atm
