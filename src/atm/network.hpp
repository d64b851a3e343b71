// ATM testbed topology: a chain of LAN stars, one FORE-style switch per
// site, every host on a dedicated 140 Mbps TAXI link into its site switch.
//
// One site is the paper's "SUN/ATM LAN". Two sites are the NYNET shape
// (Fig 1): two LAN stars whose switches are joined by a long-haul SONET
// link (OC-48 core, or the DS-3 upstate-downstate hop) with millisecond
// propagation delay — the term the paper's overlap argument targets. More
// sites extrapolate NYNET into a chain joined by per-hop SONET links.
//
// VC numbering: a host sends to destination j on VCI kVciBase+j and
// receives from source i on VCI kVciBase+i; the switches rewrite between
// the two. Each plane (data, RMA, NIC-collective) has its own host-side
// VCI range on VPI 0 and its own backbone VPI (1, 2, 3). A cross-site PVC
// takes a fresh label per directed hop it crosses, numbered from 0 in its
// plane's VPI, so a path's label is per hop, not global — but the 16-bit
// VCI space still bounds the paths crossing any one hop, which is why
// large topologies provision sparsely (only the pairs the workload names).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atm/nic.hpp"
#include "atm/switch.hpp"
#include "common/units.hpp"
#include "net/link.hpp"
#include "sim/engine.hpp"

namespace ncs::atm {

inline constexpr std::uint16_t kVciBase = 64;

/// VC a host uses to send to host `dst`.
inline VcId vc_to(int dst) { return VcId{0, static_cast<std::uint16_t>(kVciBase + dst)}; }

/// Source host of a received chunk, from the delivered VC label.
inline int src_of(VcId vc) { return static_cast<int>(vc.vci) - static_cast<int>(kVciBase); }

/// One-sided RMA plane: a second PVC mesh, provisioned alongside the data
/// mesh with the same src/dst numbering shifted into a high VCI range
/// (clear of data VCs and of the signaling channel's dynamic labels, which
/// start at kDynamicVciBase = 1024 and assert-stop short of this base
/// rather than wrapping into it). The rma::Engine terminates these VCs
/// with Nic::set_vc_handler, the way the signaling agent terminates
/// VPI 0 / VCI 5 — so one-sided traffic never touches the receive thread.
inline constexpr std::uint16_t kRmaVciBase = 40000;

/// VC a host uses for one-sided operations targeting host `dst`; also the
/// label one-sided traffic *from* `dst` arrives on (switches rewrite
/// between the two, mirroring the data plane).
inline VcId rma_vc_to(int dst) {
  return VcId{0, static_cast<std::uint16_t>(kRmaVciBase + dst)};
}

/// Source host of a received one-sided chunk.
inline int rma_src_of(VcId vc) {
  return static_cast<int>(vc.vci) - static_cast<int>(kRmaVciBase);
}

/// NIC-collective plane: a third PVC mesh carrying combine/forward traffic
/// between adapter firmware instances (NicCollEngine). Sits below the RMA
/// range and above the signaling channel's dynamic labels, which
/// assert-stop short of this base. These VCs terminate in firmware — no
/// adapter->host DMA, no host upcall on interior tree hops.
inline constexpr std::uint16_t kCollVciBase = 38000;

/// VC a host's adapter uses for collective contributions/results sent to
/// host `dst`'s adapter; also the label such traffic *from* `dst` arrives
/// on (switches rewrite between the two, mirroring the data plane).
inline VcId coll_vc_to(int dst) {
  return VcId{0, static_cast<std::uint16_t>(kCollVciBase + dst)};
}

/// Source host of a received collective cell.
inline int coll_src_of(VcId vc) {
  return static_cast<int>(vc.vci) - static_cast<int>(kCollVciBase);
}

struct FabricConfig {
  int n_hosts = 4;
  /// Sites in the chain (1 = a single switch). Hosts split into
  /// contiguous, near-equal blocks; site 0 gets the remainder first.
  int n_sites = 1;
  NicParams nic;
  net::LinkParams host_link{
      .bandwidth_bps = bw::taxi_140,
      .propagation = Duration::microseconds(2),  // tens of meters of fiber
  };
  /// Per-hop inter-site SONET link. Default: DS-3 with upstate-downstate
  /// distance.
  net::LinkParams backbone{
      .bandwidth_bps = bw::ds3,
      .propagation = Duration::milliseconds(2.5),  // ~500 km of fiber
  };
  SwitchParams sw;
  /// Directed (src, dst) host pairs to provision PVCs for; duplicates are
  /// ignored. Empty = full mesh, which is only viable while every backbone
  /// hop carries at most 2^16 paths per plane — large topologies must name
  /// the traffic matrix.
  std::vector<std::pair<int, int>> provision;
};

/// Why `config` cannot be built, or "" when it can: the site count, the
/// host-side label ranges (the NIC-collective range [kCollVciBase,
/// kCollVciBase + n_hosts) must stay below kRmaVciBase), the provisioned
/// pairs, and the busiest backbone hop's per-plane label demand (at most
/// 2^16 paths in one direction).
std::string check_fabric(const FabricConfig& config);

/// N hosts on a chain of `n_sites` LAN stars. Switches are "lan-switch"
/// with one site, else "wan-switch<s>"; host links "taxi<i>", NICs
/// "nic<i>", backbone links "sonet" with one hop, else "sonet<h>" (hop h
/// joins sites h and h+1).
class AtmFabric {
 public:
  AtmFabric(sim::Engine& engine, FabricConfig config);

  int n_hosts() const { return static_cast<int>(nics_.size()); }
  int n_sites() const { return static_cast<int>(switches_.size()); }
  Nic& nic(int host) { return *nics_[static_cast<std::size_t>(host)]; }
  int site_of(int host) const { return site_of_[static_cast<std::size_t>(host)]; }
  Switch& site_switch(int site) { return *switches_[static_cast<std::size_t>(site)]; }

  /// Port index of `host` on its site switch.
  int local_port(int host) const {
    return host - first_host_[static_cast<std::size_t>(site_of(host))];
  }
  /// Port index of `site`'s first backbone port, the one after its host
  /// ports: toward site-1, or toward site 1 for site 0. With two sites it
  /// is the site's only backbone port.
  int backbone_port(int site) const {
    const auto s = static_cast<std::size_t>(site);
    return first_host_[s + 1] - first_host_[s];
  }
  /// Port of `site`'s switch that leads toward `host`: the host's own port
  /// when it sits at `site`, else the backbone port toward its site.
  int port_toward(int site, int host) const {
    const int to = site_of(host);
    if (to == site) return local_port(host);
    return backbone_port(site) + (to > site && site > 0 ? 1 : 0);
  }

  /// Backbone labels each plane consumes on the directed hop `hop` ->
  /// `hop+1` (or the reverse) — provisioning headroom introspection.
  int labels_used(int hop, bool rightward) const {
    return static_cast<int>((rightward ? next_right_ : next_left_)[static_cast<std::size_t>(hop)]);
  }

  /// Enumeration over the fabric's physical elements — how a FaultInjector
  /// reaches every link direction and switch without knowing the topology.
  void for_each_link(const std::function<void(net::Link&)>& fn) {
    for (auto& l : links_) {
      fn(l->forward());
      fn(l->backward());
    }
  }
  void for_each_switch(const std::function<void(Switch&)>& fn) {
    for (auto& s : switches_) fn(*s);
  }

 private:
  struct Plane {
    VcId (*vc)(int host);
    std::uint8_t backbone_vpi;
  };
  /// Installs the PVC src -> dst of one plane, hop by hop.
  void add_pvc(int src, int dst, const Plane& plane);

  std::vector<int> site_of_;     // per host
  std::vector<int> first_host_;  // per site, plus n_hosts at the end
  /// Next free backbone label of the plane being installed, per directed
  /// hop; index h = hop between sites h and h+1.
  std::vector<std::uint32_t> next_right_;
  std::vector<std::uint32_t> next_left_;
  std::vector<std::unique_ptr<net::DuplexLink>> links_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<Switch>> switches_;
};

}  // namespace ncs::atm
