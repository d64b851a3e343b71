#include "atm/network.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "common/assert.hpp"

namespace ncs::atm {

namespace {

/// Labels one VPI offers on one directed hop.
constexpr std::int64_t kHopLabels = std::int64_t{1} << 16;

/// First host of every site, plus n_hosts at the end: contiguous
/// near-equal blocks, the first (n_hosts % n_sites) sites one host larger.
std::vector<int> site_blocks(int n_hosts, int n_sites) {
  std::vector<int> first{0};
  for (int s = 0; s < n_sites; ++s)
    first.push_back(first.back() + n_hosts / n_sites + (s < n_hosts % n_sites ? 1 : 0));
  return first;
}

/// Site of `host`, given site_blocks' boundaries.
int block_of(const std::vector<int>& first, int host) {
  return static_cast<int>(std::upper_bound(first.begin(), first.end(), host) - first.begin() - 1);
}

void sort_unique(std::vector<std::pair<int, int>>& pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
}

}  // namespace

std::string check_fabric(const FabricConfig& config) {
  const int n = config.n_hosts;
  if (n < 1) return "fabric needs at least one host";
  if (config.n_sites < 1 || config.n_sites > n) return "fabric needs 1 <= n_sites <= n_hosts";
  if (n > kRmaVciBase - kCollVciBase)
    return "fabric has " + std::to_string(n) + " hosts; the collective VCI range [" +
           std::to_string(kCollVciBase) + ", " + std::to_string(kCollVciBase) +
           " + hosts) must stay below kRmaVciBase = " + std::to_string(kRmaVciBase);

  // Per-plane label demand of every directed hop (h = sites h, h+1).
  const std::vector<int> first = site_blocks(n, config.n_sites);
  const auto hops = static_cast<std::size_t>(config.n_sites - 1);
  std::vector<std::int64_t> right(hops, 0), left(hops, 0);
  if (config.provision.empty()) {
    for (std::size_t h = 0; h < hops; ++h)
      right[h] = left[h] = std::int64_t{first[h + 1]} * (n - first[h + 1]);
  } else {
    std::vector<std::pair<int, int>> pairs = config.provision;
    sort_unique(pairs);
    for (const auto& [i, j] : pairs) {
      if (i < 0 || i >= n || j < 0 || j >= n)
        return "provisioned pair (" + std::to_string(i) + ", " + std::to_string(j) +
               ") names a host outside [0, " + std::to_string(n) + ")";
      const auto si = static_cast<std::size_t>(block_of(first, i));
      const auto sj = static_cast<std::size_t>(block_of(first, j));
      for (std::size_t h = std::min(si, sj); h < std::max(si, sj); ++h)
        ++(si < sj ? right : left)[h];
    }
  }
  std::size_t busiest = 0;
  std::int64_t demand = 0;
  for (std::size_t h = 0; h < hops; ++h) {
    if (std::max(right[h], left[h]) > demand) {
      busiest = h;
      demand = std::max(right[h], left[h]);
    }
  }
  if (demand > kHopLabels)
    return "backbone hop " + std::to_string(busiest) + " needs " + std::to_string(demand) +
           " labels per plane and direction, more than the " + std::to_string(kHopLabels) +
           " one VPI offers; provision fewer pairs";
  return {};
}

AtmFabric::AtmFabric(sim::Engine& engine, FabricConfig config) {
  const std::string error = check_fabric(config);
  NCS_ASSERT_MSG(error.empty(), error.c_str());
  const int n_sites = config.n_sites;
  first_host_ = site_blocks(config.n_hosts, n_sites);

  for (int s = 0; s < n_sites; ++s)
    switches_.push_back(std::make_unique<Switch>(
        engine, config.sw, n_sites == 1 ? "lan-switch" : "wan-switch" + std::to_string(s)));

  // Every link and NIC before any port: growing the switches' port tables
  // in between spreads the hosts' hot objects over the heap, which slowed
  // a 16-host LAN run by ~8% in host time.
  for (int i = 0; i < config.n_hosts; ++i) {
    links_.push_back(std::make_unique<net::DuplexLink>(engine, config.host_link,
                                                       "taxi" + std::to_string(i)));
    nics_.push_back(std::make_unique<Nic>(engine, config.nic, "nic" + std::to_string(i)));
  }
  // Host ports first, so every site's backbone ports start at its host
  // count: the left hop's port, then the right hop's.
  for (int i = 0; i < config.n_hosts; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const int site = block_of(first_host_, i);
    site_of_.push_back(site);
    Switch& sw = site_switch(site);
    const int port = sw.add_port(links_[ui]->backward(), *nics_[ui], 0);
    NCS_ASSERT(port == local_port(i));
    nics_[ui]->attach(links_[ui]->forward(), sw, port);
  }

  // Chain hops, left to right, so site h+1's left port exists before its
  // right port.
  for (int h = 0; h + 1 < n_sites; ++h) {
    links_.push_back(std::make_unique<net::DuplexLink>(
        engine, config.backbone, n_sites == 2 ? "sonet" : "sonet" + std::to_string(h)));
    net::DuplexLink& bb = *links_.back();
    const int left_out = site_switch(h).add_port(bb.forward(), site_switch(h + 1),
                                                 backbone_port(h + 1));
    const int right_in = site_switch(h + 1).add_port(bb.backward(), site_switch(h), left_out);
    NCS_ASSERT(left_out == backbone_port(h) + (h > 0 ? 1 : 0));
    NCS_ASSERT(right_in == backbone_port(h + 1));
  }

  // One plane at a time, each numbering its hop labels from 0 in its own
  // backbone VPI, so a plane's labels never depend on the others.
  sort_unique(config.provision);
  next_right_.resize(static_cast<std::size_t>(n_sites - 1));
  next_left_.resize(static_cast<std::size_t>(n_sites - 1));
  for (const Plane& plane : {Plane{vc_to, 1}, Plane{rma_vc_to, 2}, Plane{coll_vc_to, 3}}) {
    std::fill(next_right_.begin(), next_right_.end(), 0);
    std::fill(next_left_.begin(), next_left_.end(), 0);
    if (config.provision.empty()) {
      for (int i = 0; i < config.n_hosts; ++i)
        for (int j = 0; j < config.n_hosts; ++j) add_pvc(i, j, plane);
    } else {
      for (const auto& [i, j] : config.provision) add_pvc(i, j, plane);
    }
  }
}

void AtmFabric::add_pvc(int src, int dst, const Plane& plane) {
  // Each switch on the way rewrites the previous hop's label into a fresh
  // one for the next hop; the last rewrites it into the receive label.
  const int dst_site = site_of(dst);
  int site = site_of(src);
  int in_port = local_port(src);
  VcId in_vc = plane.vc(dst);
  while (site != dst_site) {
    const bool rightward = site < dst_site;
    const auto hop = static_cast<std::size_t>(rightward ? site : site - 1);
    std::uint32_t& next = (rightward ? next_right_ : next_left_)[hop];
    const VcId label{plane.backbone_vpi, static_cast<std::uint16_t>(next++)};
    site_switch(site).add_route(in_port, in_vc, port_toward(site, dst), label);
    site += rightward ? 1 : -1;
    in_port = port_toward(site, src);
    in_vc = label;
  }
  site_switch(dst_site).add_route(in_port, in_vc, local_port(dst), plane.vc(src));
}

}  // namespace ncs::atm
