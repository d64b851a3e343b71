// Testbed presets and calibration constants.
//
// Three configurations mirror Section 2 of the paper:
//   sun_ethernet : SPARCstation ELCs (~33 MHz) on one shared 10 Mbps
//                  Ethernet segment.
//   sun_atm_lan  : SPARCstation IPXs (~40 MHz), FORE switch, dedicated
//                  140 Mbps TAXI host links, SBA-200 adapters.
//   nynet_wan    : same hosts split across two sites whose switches are
//                  joined by a DS-3 SONET hop with WAN propagation.
//
// Calibration: per-application cycle costs are set so *one-node* times land
// near the paper's Tables 1-3 on the Ethernet testbed; everything else
// (scaling, p4-vs-NCS gaps, Ethernet-vs-ATM gaps) must then emerge from
// the model. See EXPERIMENTS.md for the recorded correspondence.
#pragma once

#include "atm/network.hpp"
#include "atm/nic_coll.hpp"
#include "core/mps/node.hpp"
#include "core/mts/scheduler.hpp"
#include "ether/bus.hpp"
#include "fault/plan.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "proto/costs.hpp"
#include "proto/tcp.hpp"
#include "rma/engine.hpp"

namespace ncs::cluster {

enum class NetworkKind { ethernet, atm_lan, atm_wan, atm_wan_multi };

const char* to_string(NetworkKind k);

struct ClusterConfig {
  std::string name = "cluster";
  int n_procs = 4;  // workstations; one process per workstation
  NetworkKind network = NetworkKind::ethernet;

  // Host CPU (SPARCstation ELC ~33 MHz / IPX ~40 MHz).
  double cpu_mhz = 33.0;
  Duration context_switch_cost = Duration::microseconds(8);
  Duration thread_create_cost = Duration::microseconds(25);

  /// Cores per workstation (core/mts/smp.hpp). 1 = the paper's uniprocessor
  /// testbed, bit-identical to the original scheduler; >1 enables the
  /// work-stealing multi-core runtime with the knobs below.
  int cores = 1;
  mts::StealPolicy steal = mts::StealPolicy::seeded;
  mts::ProgressModel progress = mts::ProgressModel::dedicated_core;
  /// hybrid progress: maximum user charge slice between yield points.
  Duration poll_quantum = Duration::microseconds(200);
  /// Base of the per-rank victim-permutation seeds (StealPolicy::seeded).
  std::uint64_t steal_seed = 1995;

  proto::CostModel costs;
  /// p4 sets TCP_NODELAY on its sockets (as every message-passing library
  /// of the era learned to), so the presets disable Nagle; the
  /// ablation_nodelay bench shows the collapse without it.
  proto::TcpParams tcp{.nagle = false};

  // ATM fabrics.
  atm::NicParams nic{.io_buffer_size = 9216, .tx_buffers = 2};
  net::LinkParams host_link{.bandwidth_bps = bw::taxi_140,
                            .propagation = Duration::microseconds(2)};
  net::LinkParams wan_backbone{.bandwidth_bps = bw::ds3,
                               .propagation = Duration::milliseconds(2.5)};
  atm::SwitchParams sw;

  // Multi-stage WAN (NetworkKind::atm_wan_multi): chain length. Any ATM
  // fabric: the provisioned traffic matrix (empty = full PVC mesh; large
  // clusters must name their pairs — see atm::FabricConfig::provision).
  int wan_sites = 4;
  std::vector<std::pair<int, int>> wan_provision;

  // Ethernet segment.
  ether::BusParams bus;

  // NCS runtime options (flow/error control, collectives, and the
  // point-to-point protocol engine via `ncs.proto` — off by default).
  mps::Node::Options ncs;
  std::size_t hsm_chunk = 4096;
  /// One-sided plane (src/rma): when enabled, init_ncs_hsm() attaches an
  /// rma::Engine per rank (the topologies always provision the RMA-plane
  /// PVC mesh alongside the data mesh, so enabling this costs no labels
  /// beyond what the constructor already installed).
  bool rma_enabled = false;
  rma::Params rma;
  /// Firmware timing model for the NIC-offloaded collectives. The feature
  /// itself is switched by `ncs.coll.nic_offload` (selection thresholds
  /// live beside it in coll::Params); when set, init_ncs_hsm() attaches a
  /// mps::NicCollPort per rank. The tree radix is taken from
  /// `ncs.coll.offload_radix` — the value here is ignored.
  atm::NicCollParams nic_coll;
  /// HSM tier circuit provisioning: static full-mesh PVCs (default, the
  /// testbed configuration) or on-demand SVCs via the signaling channel
  /// (ATM LAN only; first contact with a peer pays the call setup).
  bool hsm_use_svc = false;

  /// Scripted fault scenario armed on the cluster's FaultInjector at run()
  /// (empty = fault-free). Targets: "ether", link names ("taxi0"; the
  /// backbone is "sonet" with two sites, "sonet<h>" on longer chains),
  /// switch names ("lan-switch" with one site, else "wan-switch<s>"), NIC
  /// names ("nic0"), hosts ("p0"). See fault/plan.hpp for the event
  /// vocabulary and text syntax.
  fault::FaultPlan faults;

  /// When nonempty, the cluster enables Chrome tracing at construction and
  /// writes the event log (fault instants included) here after run().
  std::string trace_path;

  /// Enables the message-lifecycle / overlap profiler at construction
  /// (implies the activity timeline). run() then folds per-layer latency
  /// histograms and per-host overlap ratios; report_json() switches to the
  /// "ncs-run-report-v3" schema with a "profile" section.
  bool profile = false;

  /// When nonempty, the cluster writes report_json() here after run()
  /// (pairs with `profile` for the --prof bench flag, but works without).
  std::string report_path;

  /// Enables the live telemetry plane at construction (implies `profile`):
  /// a periodic sampler snapshots windowed latency sketches (mps/e2e,
  /// rma/op), queue-depth/credit gauges and SLO grades every
  /// telemetry_cfg.period of simulated time. report_json() gains a
  /// "telemetry" section ("ncs-run-report-v3"); with tracing on, every
  /// sampled value is also a Perfetto counter track.
  bool telemetry = false;
  obs::TelemetryConfig telemetry_cfg;

  /// Latency SLOs bound at init_* time (spec.sketch names the telemetry
  /// sketch: "mps/e2e", "rma/op"). A delivery SLO over NCS exceptions is
  /// always added when telemetry is on. Hard breaches trigger the flight
  /// recorder.
  std::vector<obs::SloSpec> slos;

  /// When nonempty, arms the flight recorder: the first failure trigger
  /// (NcsException upcall, EC give-up, SLO hard breach) dumps the merged
  /// per-host rings here as ncs-flight-recorder-v1 JSON.
  std::string recorder_path;
};

/// The paper's "SUN/Ethernet" testbed with `n_procs` workstations.
ClusterConfig sun_ethernet(int n_procs);

/// The paper's "SUN/ATM LAN" testbed.
ClusterConfig sun_atm_lan(int n_procs);

/// The NYNET WAN testbed (two sites, DS-3 hop).
ClusterConfig nynet_wan(int n_procs);

/// The NYNET WAN extrapolated to a chain of `n_sites` sites (scale
/// studies; set ClusterConfig::wan_provision for large n_procs).
ClusterConfig nynet_wan_multi(int n_procs, int n_sites);

/// Per-application calibration constants (see header comment).
struct Calibration {
  /// Matmul: effective CPU cycles per inner-loop multiply-add of the
  /// paper's unblocked triple loop (memory stalls included); n = 128.
  double matmul_cycles_per_op = 405.0;
  int matmul_n = 128;

  /// JPEG: effective cycles per pixel for each direction (1995 floating
  /// point baseline JPEG); image is the paper's 600 KB frame.
  double jpeg_compress_cycles_per_pixel = 260.0;
  double jpeg_decompress_cycles_per_pixel = 230.0;
  int jpeg_width = 1024;
  int jpeg_height = 600;

  /// FFT: effective cycles per butterfly, absorbing the paper
  /// implementation's large per-point constant (their 1-node M=512 run
  /// takes seconds); M = 512, 8 sample sets.
  double fft_cycles_per_butterfly = 10200.0;
  std::size_t fft_m = 512;
  int fft_sample_sets = 8;
};

const Calibration& calibration();

}  // namespace ncs::cluster
