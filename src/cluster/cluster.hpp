// Experiment harness: builds a simulated testbed (hosts + network),
// binds a runtime (plain p4, NCS over p4, or NCS over the ATM API), runs
// one application main per process, and reports the simulated makespan.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "atm/signaling.hpp"
#include "cluster/config.hpp"
#include "core/api.hpp"
#include "core/mps/coll_offload.hpp"
#include "core/mps/node.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "p4/p4.hpp"
#include "proto/segment_network.hpp"
#include "sim/engine.hpp"
#include "sim/timeline.hpp"

namespace ncs::cluster {

/// Why `config` cannot be built, or "" when it can: the ATM fabric's limits
/// (atm::check_fabric) and, with hsm_use_svc, one site and a PVC range
/// clear of the dynamic SVC labels. The Cluster constructor aborts with
/// this message before building anything.
std::string check_config(const ClusterConfig& config);

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine& engine() { return engine_; }
  const ClusterConfig& config() const { return config_; }
  int n_procs() const { return config_.n_procs; }
  mts::Scheduler& host(int rank) { return *hosts_[static_cast<std::size_t>(rank)]; }

  /// Call before init_*/run to record per-thread activity timelines.
  void enable_timeline();
  sim::Timeline& timeline() { return timeline_; }

  /// Call before init_*/run to record a Chrome-trace event log: per-thread
  /// scheduler spans, MPS transfer spans, NIC/switch pipeline spans, and
  /// protocol instants (TCP retransmits, NCS flow-control stalls, ...).
  void enable_trace();
  obs::TraceLog* trace() { return trace_enabled_ ? &trace_ : nullptr; }

  /// Writes the accumulated trace to `path` (Chrome Trace Event JSON —
  /// loads in ui.perfetto.dev / chrome://tracing). When the timeline is
  /// also enabled, its per-thread compute/communicate/idle activity spans
  /// are merged in. Call after run(). Returns false if the file could not
  /// be written.
  bool write_trace(const std::string& path);

  /// Call before init_*/run to attribute where message time goes: one
  /// cluster-wide Profiler collects per-layer latency histograms (message
  /// lifecycle legs, NIC DMA/SAR/wire, flow-control stalls, ...) from every
  /// host, node and NIC. Implies enable_timeline() so per-host
  /// compute/communicate overlap can be folded from activity intervals.
  void enable_profiling();
  obs::Profiler* profiler() { return profiler_.get(); }

  /// Call before init_*/run to turn on the live telemetry plane (implies
  /// enable_profiling()): a TelemetrySampler ticks every
  /// config.telemetry_cfg.period, snapshotting windowed latency sketches,
  /// queue/credit gauges and SLO grades; a FlightRecorder collects recent
  /// moments per host and dumps on the first failure when
  /// config.recorder_path is set. Construction-time config.telemetry calls
  /// this automatically.
  void enable_telemetry();
  obs::TelemetrySampler* telemetry() { return telemetry_.get(); }
  obs::FlightRecorder* recorder() { return recorder_.get(); }

  /// The run-wide metrics registry: every module's counters under
  /// "p<r>/mts/...", "p<r>/mps/...", "p<r>/nic/...", "switch/...",
  /// "tcp/...", "ether/...". Built lazily on first call — call after
  /// init_* so runtime modules are included.
  obs::MetricsRegistry& metrics();

  // --- runtime selection (exactly one per Cluster instance) ---

  /// Plain p4 over TCP/IP over this cluster's network.
  p4::Runtime& init_p4();

  /// NCS approach 1 (NSM): NCS_MTS over p4 — the paper's benchmarked mode.
  void init_ncs_nsm();

  /// NCS approach 2 (HSM): NCS straight on the ATM API. Requires an ATM
  /// network kind.
  void init_ncs_hsm();

  p4::Runtime& p4() { return *p4_; }
  bool has_p4() const { return p4_ != nullptr; }
  mps::Node& node(int rank) { return *nodes_[static_cast<std::size_t>(rank)]; }
  bool has_ncs() const { return !nodes_.empty(); }

  /// The one-sided engine of `rank` (config.rma_enabled HSM runs only).
  rma::Engine& rma(int rank) { return *rma_engines_[static_cast<std::size_t>(rank)]; }
  bool has_rma() const { return !rma_engines_.empty(); }

  /// The NIC-offload collective port of `rank` (HSM runs with
  /// config.ncs.coll.nic_offload only).
  mps::NicCollPort& coll_port(int rank) {
    return *coll_ports_[static_cast<std::size_t>(rank)];
  }
  bool has_coll_offload() const { return !coll_ports_.empty(); }

  /// The physical substrate, for statistics reporting (null when the other
  /// network kind is configured).
  ether::Bus* ethernet() { return bus_.get(); }
  atm::AtmFabric* atm_fabric() { return fabric_.get(); }

  /// The fault injector, pre-wired to every physical element of this
  /// cluster's topology (links by name, switches, NICs, hosts as "p<r>").
  /// `config.faults` is armed on it at run(); additional plans can be
  /// scheduled directly at any time.
  fault::FaultInjector& fault_injector() { return *injector_; }

  /// Total NcsExceptions raised into application threads across all nodes
  /// (0 on a fault-free or fully-recovered run). Call after run().
  std::uint64_t ncs_exception_count() const;

  /// Runs main_fn(rank) as a thread on every host; returns the simulated
  /// time from launch until the last main finishes.
  Duration run(std::function<void(int)> main_fn);

 private:
  /// Registers the gauge probes, binds the configured SLOs, installs the
  /// hard-breach -> recorder hook and arms the sampler. Called from run()
  /// so every runtime module (nodes, RMA engines, fabric) exists.
  void bind_telemetry();

  ClusterConfig config_;
  sim::Engine engine_;
  sim::Timeline timeline_;
  bool timeline_enabled_ = false;
  obs::TraceLog trace_;
  bool trace_enabled_ = false;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::TelemetrySampler> telemetry_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  /// Mains still running; run() counts it down and the telemetry sampler's
  /// keep_going predicate reads it (a member so the periodic event can
  /// never dangle).
  int mains_remaining_ = 0;

  std::vector<std::unique_ptr<mts::Scheduler>> hosts_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<std::unique_ptr<fault::HostFault>> host_faults_;
  std::unique_ptr<ether::Bus> bus_;
  std::unique_ptr<atm::AtmFabric> fabric_;
  std::unique_ptr<atm::CallController> call_controller_;  // SVC mode only
  std::unique_ptr<proto::SegmentNetwork> segnet_;
  std::unique_ptr<p4::Runtime> p4_;
  std::vector<std::unique_ptr<mps::Node>> nodes_;
  std::vector<std::unique_ptr<rma::Engine>> rma_engines_;
  std::vector<std::unique_ptr<mps::NicCollPort>> coll_ports_;
};

}  // namespace ncs::cluster
