#include "cluster/cluster.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "atm/network.hpp"
#include "cluster/report.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"
#include "core/mps/atm_transport.hpp"
#include "core/mps/p4_transport.hpp"

namespace ncs::cluster {

namespace {

/// Metric and trace prefix of site `s`'s switch.
std::string switch_key(const atm::AtmFabric& fabric, int s) {
  return fabric.n_sites() == 1 ? "switch" : "switch" + std::to_string(s);
}

atm::FabricConfig fabric_config(const ClusterConfig& config) {
  atm::FabricConfig fc;
  fc.n_hosts = config.n_procs;
  switch (config.network) {
    case NetworkKind::ethernet:
    case NetworkKind::atm_lan:
      fc.n_sites = 1;
      break;
    case NetworkKind::atm_wan:
      fc.n_sites = std::min(2, config.n_procs);
      break;
    case NetworkKind::atm_wan_multi:
      fc.n_sites = std::min(config.wan_sites, config.n_procs);
      break;
  }
  fc.nic = config.nic;
  fc.host_link = config.host_link;
  fc.backbone = config.wan_backbone;
  fc.sw = config.sw;
  fc.provision = config.wan_provision;
  return fc;
}

}  // namespace

std::string check_config(const ClusterConfig& config) {
  if (config.n_procs < 1) return "cluster needs at least one process";
  if (config.network == NetworkKind::ethernet) return {};
  const atm::FabricConfig fc = fabric_config(config);
  if (config.hsm_use_svc && fc.n_sites != 1)
    return "SVC provisioning needs the single-switch ATM LAN";
  if (config.hsm_use_svc && config.n_procs > atm::kDynamicVciBase - atm::kVciBase)
    return "SVC provisioning with " + std::to_string(config.n_procs) +
           " hosts: the PVC range [kVciBase, kVciBase + hosts) must stay below "
           "kDynamicVciBase = " + std::to_string(atm::kDynamicVciBase);
  return atm::check_fabric(fc);
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)) {
  const std::string error = check_config(config_);
  NCS_ASSERT_MSG(error.empty(), error.c_str());

  for (int r = 0; r < config_.n_procs; ++r) {
    mts::SchedulerParams sp;
    sp.name = "p" + std::to_string(r);
    sp.cpu_mhz = config_.cpu_mhz;
    sp.context_switch_cost = config_.context_switch_cost;
    sp.thread_create_cost = config_.thread_create_cost;
    sp.smp.n_cores = config_.cores;
    sp.smp.steal = config_.steal;
    sp.smp.progress = config_.progress;
    sp.smp.poll_quantum = config_.poll_quantum;
    // Per-rank seed offset so hosts don't share victim permutations.
    sp.smp.steal_seed =
        config_.steal_seed + static_cast<std::uint64_t>(r) * 0x9E3779B97F4A7C15;
    hosts_.push_back(std::make_unique<mts::Scheduler>(engine_, sp));
  }

  if (config_.network == NetworkKind::ethernet) {
    bus_ = std::make_unique<ether::Bus>(engine_, config_.bus, config_.n_procs);
  } else {
    fabric_ = std::make_unique<atm::AtmFabric>(engine_, fabric_config(config_));
  }

  // Fault injector, pre-wired to every physical element. A host pause is
  // realised as a top-priority thread that owns the CPU until resume time:
  // nothing else dispatches, but the network (and NIC DMA) keeps moving —
  // exactly what a stalled workstation looks like from the wire.
  injector_ = std::make_unique<fault::FaultInjector>(engine_);
  if (bus_ != nullptr) injector_->attach_link("ether", &bus_->fault());
  if (fabric_ != nullptr) {
    fabric_->for_each_link(
        [this](net::Link& l) { injector_->attach_link(l.name(), &l.fault()); });
    fabric_->for_each_switch(
        [this](atm::Switch& s) { injector_->attach_switch(s.name(), &s.fault()); });
    for (int r = 0; r < config_.n_procs; ++r)
      injector_->attach_nic("nic" + std::to_string(r), &fabric_->nic(r).fault());
  }
  for (int r = 0; r < config_.n_procs; ++r) {
    host_faults_.push_back(std::make_unique<fault::HostFault>());
    fault::HostFault* hf = host_faults_.back().get();
    mts::Scheduler* sched = hosts_[static_cast<std::size_t>(r)].get();
    hf->set_pause_handler([sched](TimePoint resume_at) {
      // One pinned pauser per core: a paused workstation stalls every
      // core, not just the one the planes happen to run on. With one core
      // this spawns exactly the single thread it always did.
      for (int c = 0; c < sched->n_cores(); ++c) {
        sched->spawn(
            [sched, resume_at] {
              const TimePoint now = sched->engine().now();
              if (resume_at > now)
                sched->charge(resume_at - now, sim::Activity::overhead);
            },
            {.name = c == 0 ? "fault-pause" : "fault-pause" + std::to_string(c),
             .priority = mts::kHighestPriority,
             .cls = mts::ThreadClass::system,
             .affinity = c});
      }
    });
    injector_->attach_host("p" + std::to_string(r), hf);
  }

  if (!config_.trace_path.empty()) enable_trace();
  if (config_.profile) enable_profiling();
  if (config_.telemetry || !config_.recorder_path.empty()) enable_telemetry();
}

Cluster::~Cluster() {
  for (auto& n : nodes_) api::unregister_node(n.get());
}

void Cluster::enable_timeline() {
  timeline_enabled_ = true;
  for (auto& h : hosts_) h->set_timeline(&timeline_);
}

void Cluster::enable_trace() {
  trace_enabled_ = true;
  for (auto& h : hosts_) h->set_trace(&trace_);
  if (fabric_ != nullptr) {
    for (int r = 0; r < config_.n_procs; ++r)
      fabric_->nic(r).set_trace(&trace_, "p" + std::to_string(r) + "/nic");
    for (int s = 0; s < fabric_->n_sites(); ++s)
      fabric_->site_switch(s).set_trace(&trace_, trace_.track(switch_key(*fabric_, s)));
  }
  injector_->set_trace(&trace_);
  // Runtime modules created later (nodes, TCP mesh) attach in init_*.
}

void Cluster::enable_profiling() {
  if (profiler_ != nullptr) return;
  profiler_ = std::make_unique<obs::Profiler>();
  // The overlap fold needs activity intervals; one shared profiler is safe
  // because every host runs on the same deterministic engine clock.
  enable_timeline();
  for (auto& h : hosts_) h->set_profiler(profiler_.get());
  if (fabric_ != nullptr) {
    for (int r = 0; r < config_.n_procs; ++r)
      fabric_->nic(r).set_profiler(profiler_.get());
  }
  // Runtime modules created later (nodes) attach in init_*.
  for (auto& n : nodes_) n->set_profiler(profiler_.get());
}

void Cluster::enable_telemetry() {
  if (telemetry_ != nullptr) return;
  config_.telemetry = true;
  enable_profiling();
  telemetry_ = std::make_unique<obs::TelemetrySampler>(engine_, config_.telemetry_cfg);
  recorder_ =
      std::make_unique<obs::FlightRecorder>(config_.telemetry_cfg.recorder_capacity);
  if (!config_.recorder_path.empty()) recorder_->arm(config_.recorder_path);
  if (trace_enabled_) {
    telemetry_->set_trace(&trace_);
    recorder_->set_trace(&trace_);
  }
  // Every rank's end-to-end fold lands in one cluster-wide sketch (the
  // profiler is cluster-wide already); RMA completions likewise.
  profiler_->set_latency_sketch(&telemetry_->sketch("mps/e2e"));
  profiler_->set_recorder(recorder_.get());
  injector_->set_recorder(recorder_.get());
  // Runtime modules created later attach in init_*.
  for (auto& n : nodes_) n->set_recorder(recorder_.get());
  for (auto& e : rma_engines_)
    e->set_latency_sketch(&telemetry_->sketch("rma/op"));
}

bool Cluster::write_trace(const std::string& path) {
  NCS_ASSERT_MSG(trace_enabled_, "write_trace without enable_trace");
  if (timeline_enabled_) trace_.import_timeline(timeline_);
  return trace_.write_file(path);
}

obs::MetricsRegistry& Cluster::metrics() {
  if (metrics_ == nullptr) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    obs::MetricsRegistry& reg = *metrics_;
    for (int r = 0; r < config_.n_procs; ++r)
      host(r).register_metrics(reg, "p" + std::to_string(r) + "/mts");
    for (const auto& node : nodes_)
      node->register_metrics(reg, "p" + std::to_string(node->rank()) + "/mps");
    if (bus_ != nullptr) bus_->register_metrics(reg, "ether");
    if (fabric_ != nullptr) {
      for (int r = 0; r < config_.n_procs; ++r)
        fabric_->nic(r).register_metrics(reg, "p" + std::to_string(r) + "/nic");
      for (int s = 0; s < fabric_->n_sites(); ++s)
        fabric_->site_switch(s).register_metrics(reg, switch_key(*fabric_, s));
    }
    for (auto& e : rma_engines_)
      e->register_metrics(reg, "p" + std::to_string(e->rank()) + "/rma");
    for (auto& p : coll_ports_)
      p->register_metrics(reg, "p" + std::to_string(p->rank()) + "/nic_coll");
    if (p4_ != nullptr) p4_->mesh().register_metrics(reg, "tcp");
    injector_->register_metrics(reg, "fault");
  }
  return *metrics_;
}

std::uint64_t Cluster::ncs_exception_count() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->stats().exceptions;
  return total;
}

p4::Runtime& Cluster::init_p4() {
  NCS_ASSERT_MSG(p4_ == nullptr, "runtime already initialized");
  if (config_.network == NetworkKind::ethernet) {
    segnet_ = std::make_unique<proto::EthernetSegmentNetwork>(*bus_, config_.n_procs);
  } else {
    segnet_ = std::make_unique<proto::AtmSegmentNetwork>(engine_, *fabric_);
  }
  std::vector<mts::Scheduler*> scheds;
  for (auto& h : hosts_) scheds.push_back(h.get());
  p4_ = std::make_unique<p4::Runtime>(engine_, scheds, *segnet_, config_.tcp, config_.costs);
  if (trace_enabled_) p4_->mesh().set_trace(&trace_, "tcp");
  return *p4_;
}

void Cluster::init_ncs_nsm() {
  init_p4();
  for (int r = 0; r < config_.n_procs; ++r) {
    auto transport = std::make_unique<mps::P4Transport>(p4_->process(r));
    nodes_.push_back(std::make_unique<mps::Node>(host(r), r, config_.n_procs,
                                                 std::move(transport), config_.ncs));
    if (trace_enabled_)
      nodes_.back()->set_trace(&trace_, "p" + std::to_string(r) + "/mps");
    if (profiler_ != nullptr) nodes_.back()->set_profiler(profiler_.get());
    if (recorder_ != nullptr) nodes_.back()->set_recorder(recorder_.get());
    api::register_node(nodes_.back().get());
  }
}

void Cluster::init_ncs_hsm() {
  NCS_ASSERT_MSG(config_.network != NetworkKind::ethernet,
                 "HSM requires an ATM fabric");
  NCS_ASSERT_MSG(p4_ == nullptr, "runtime already initialized");
  if (config_.hsm_use_svc)
    call_controller_ = std::make_unique<atm::CallController>(engine_, *fabric_);
  for (int r = 0; r < config_.n_procs; ++r) {
    mps::AtmTransport::Params tp;
    tp.chunk_size = config_.hsm_chunk;
    tp.costs = config_.costs;
    if (call_controller_ != nullptr) tp.signaling = &call_controller_->agent(r);
    auto transport = std::make_unique<mps::AtmTransport>(host(r), fabric_->nic(r), tp);
    nodes_.push_back(std::make_unique<mps::Node>(host(r), r, config_.n_procs,
                                                 std::move(transport), config_.ncs));
    if (trace_enabled_)
      nodes_.back()->set_trace(&trace_, "p" + std::to_string(r) + "/mps");
    if (profiler_ != nullptr) nodes_.back()->set_profiler(profiler_.get());
    if (recorder_ != nullptr) nodes_.back()->set_recorder(recorder_.get());
    api::register_node(nodes_.back().get());
    if (config_.rma_enabled) {
      rma_engines_.push_back(std::make_unique<rma::Engine>(
          host(r), fabric_->nic(r), r, config_.n_procs, config_.rma));
      if (trace_enabled_)
        rma_engines_.back()->set_trace(&trace_, "p" + std::to_string(r) + "/rma");
      if (profiler_ != nullptr) rma_engines_.back()->set_profiler(profiler_.get());
      if (telemetry_ != nullptr)
        rma_engines_.back()->set_latency_sketch(&telemetry_->sketch("rma/op"));
      nodes_.back()->set_rma(rma_engines_.back().get());
    }
    if (config_.ncs.coll.nic_offload) {
      atm::NicCollParams ncp = config_.nic_coll;
      ncp.radix = config_.ncs.coll.offload_radix;
      coll_ports_.push_back(
          std::make_unique<mps::NicCollPort>(*nodes_.back(), fabric_->nic(r), ncp));
      mps::NicCollPort* port = coll_ports_.back().get();
      if (trace_enabled_)
        port->engine().set_trace(&trace_, "p" + std::to_string(r) + "/nic_coll");
      if (profiler_ != nullptr) port->engine().set_profiler(profiler_.get());
      nodes_.back()->set_coll_offload(port);
    }
  }
}

void Cluster::bind_telemetry() {
  obs::TelemetrySampler& ts = *telemetry_;

  // Gauge probes over live module state (cheap reads, one sample per tick).
  for (int r = 0; r < config_.n_procs; ++r) {
    mts::Scheduler* sched = hosts_[static_cast<std::size_t>(r)].get();
    ts.probe("p" + std::to_string(r) + "/mts/runnable",
             [sched] { return static_cast<double>(sched->runnable_count()); });
    if (sched->n_cores() > 1) {
      for (int c = 0; c < sched->n_cores(); ++c) {
        ts.probe("p" + std::to_string(r) + "/mts/core" + std::to_string(c) + "/runnable",
                 [sched, c] { return static_cast<double>(sched->runnable_count_on(c)); });
      }
    }
  }
  for (auto& node : nodes_) {
    const mps::Node* n = node.get();
    ts.probe("p" + std::to_string(n->rank()) + "/mps/fc_outstanding",
             [n] { return static_cast<double>(n->flow_control().total_outstanding()); });
  }
  for (auto& eng : rma_engines_) {
    const rma::Engine* e = eng.get();
    const std::string p = "p" + std::to_string(e->rank());
    ts.probe(p + "/rma/credits_used",
             [e] { return static_cast<double>(e->credits_in_use()); });
    ts.probe(p + "/rma/pending", [e] { return static_cast<double>(e->pending()); });
  }
  for (auto& cp : coll_ports_) {
    const mps::NicCollPort* p = cp.get();
    ts.probe("p" + std::to_string(p->rank()) + "/nic_coll/contexts_open",
             [p] { return static_cast<double>(p->engine().pending_ops()); });
  }
  if (fabric_ != nullptr) {
    for (int r = 0; r < config_.n_procs; ++r) {
      const atm::Nic* nic = &fabric_->nic(r);
      ts.probe("p" + std::to_string(r) + "/nic/tx_buffers_in_use",
               [nic] { return static_cast<double>(nic->tx_buffers_in_use()); });
    }
  }
  ts.probe("engine/pending_events",
           [this] { return static_cast<double>(engine_.pending()); });

  // Configured SLOs; latency specs name their sketch ("mps/e2e", "rma/op").
  for (const obs::SloSpec& spec : config_.slos) {
    if (spec.kind == obs::SloKind::latency) {
      ts.slo().add_latency(spec, &ts.sketch(spec.sketch));
    } else if (!nodes_.empty()) {
      // A bare delivery spec grades the NCS plane: sends that completed
      // vs. exceptions raised.
      ts.slo().add_delivery(
          spec,
          [this] {
            std::uint64_t n = 0;
            for (const auto& node : nodes_) n += node->stats().sends;
            return n;
          },
          [this] {
            std::uint64_t n = 0;
            for (const auto& node : nodes_) n += node->stats().exceptions;
            return n;
          });
    }
  }
  // The NCS plane always carries a delivery objective when telemetry is
  // on: exceptions are the violations the paper's service class surfaces.
  if (!nodes_.empty()) {
    obs::SloSpec d;
    d.name = "mps/delivery";
    d.kind = obs::SloKind::delivery;
    d.target = 0.99;
    ts.slo().add_delivery(
        d,
        [this] {
          std::uint64_t n = 0;
          for (const auto& node : nodes_) n += node->stats().sends;
          return n;
        },
        [this] {
          std::uint64_t n = 0;
          for (const auto& node : nodes_) n += node->stats().exceptions;
          return n;
        });
  }
  if (!rma_engines_.empty()) {
    obs::SloSpec d;
    d.name = "rma/delivery";
    d.kind = obs::SloKind::delivery;
    d.target = 0.99;
    ts.slo().add_delivery(
        d,
        [this] {
          std::uint64_t n = 0;
          for (const auto& e : rma_engines_) n += e->stats().completions;
          return n;
        },
        [this] {
          std::uint64_t n = 0;
          for (const auto& e : rma_engines_) n += e->stats().error_completions;
          return n;
        });
  }

  // SLO hard breaches are failures: they trigger the flight recorder like
  // any exception upcall would.
  ts.slo().set_hard_breach_hook(
      [this](const obs::SloSpec& spec, double burn, TimePoint t) {
        recorder_->trigger(-1, obs::FlightRecorder::EntryKind::slo_breach, t,
                           "slo " + spec.name, -1,
                           static_cast<std::int64_t>(burn * 1000.0));
      });

  ts.arm(engine_.now() + config_.telemetry_cfg.period,
         [this] { return mains_remaining_ > 0; });
}

Duration Cluster::run(std::function<void(int)> main_fn) {
  const TimePoint t0 = engine_.now();
  TimePoint last_finish = t0;
  mains_remaining_ = config_.n_procs;

  if (!config_.faults.empty()) injector_->schedule(config_.faults);
  if (telemetry_ != nullptr) bind_telemetry();

  for (int r = 0; r < config_.n_procs; ++r) {
    host(r).spawn(
        [this, r, main_fn, &last_finish] {
          // An NcsException reaching main is a failed-but-clean process
          // exit (the exception service's whole point: no hung runs).
          try {
            main_fn(r);
          } catch (const mps::NcsException& e) {
            NCS_WARN("cluster", "p%d main aborted by %s", r, e.what());
          }
          last_finish = ncs::max(last_finish, engine_.now());
          --mains_remaining_;
        },
        {.name = "main", .priority = mts::kDefaultPriority});
  }
  engine_.run();
  NCS_ASSERT_MSG(mains_remaining_ == 0,
                 "a main thread never finished (deadlocked waiting on a message?)");
  if (timeline_enabled_) timeline_.finish(engine_.now());
  if (!config_.trace_path.empty()) write_trace(config_.trace_path);
  if (!config_.report_path.empty()) {
    std::ofstream f(config_.report_path);
    if (f.is_open()) {
      f << report_json(*this, last_finish - t0) << '\n';
    } else {
      NCS_WARN("cluster", "cannot write report to %s", config_.report_path.c_str());
    }
  }
  return last_finish - t0;
}

}  // namespace ncs::cluster
