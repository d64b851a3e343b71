// Per-component fault state.
//
// Components own their fault state object (a Link owns a LinkFault, a
// Switch a SwitchFault, ...) and consult it on the data path; the
// FaultInjector flips the state at scripted instants. Keeping the state
// inside the component preserves the pre-fault-plan RNG streams exactly:
// the uniform loss/corruption draws use the same seeds and draw order as
// the legacy `LinkParams::loss_probability` / `NicParams::
// cell_corrupt_probability` knobs, so runs without a FaultPlan are
// bit-identical to the pre-subsystem simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace ncs::fault {

/// Gilbert–Elliott two-state burst-loss chain: a good state with low loss
/// and a bad state with high loss, with per-frame transition probabilities.
/// The classic model for fiber error bursts and congested WAN hops.
struct GilbertElliottParams {
  double p_good_to_bad = 0.05;
  double p_bad_to_good = 0.3;
  double loss_good = 0.0;
  double loss_bad = 1.0;
};

class GilbertElliott {
 public:
  GilbertElliott(GilbertElliottParams params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

  /// Advances the chain one frame and draws its fate. Returns true if the
  /// frame is lost.
  bool advance() {
    const double flip = bad_ ? params_.p_bad_to_good : params_.p_good_to_bad;
    if (rng_.next_bool(flip)) bad_ = !bad_;
    return rng_.next_bool(bad_ ? params_.loss_bad : params_.loss_good);
  }

  bool in_bad() const { return bad_; }

 private:
  GilbertElliottParams params_;
  Rng rng_;
  bool bad_ = false;
};

/// Fault state of one unidirectional link (or the shared Ethernet medium):
/// hard down-windows, an optional Gilbert–Elliott burst process, and the
/// legacy uniform loss draw. Consulted once per frame by the owner.
class LinkFault {
 public:
  /// Legacy `loss_probability` sugar: a uniform per-frame loss draw from
  /// the link's own seeded stream (same stream as before this subsystem).
  void configure_uniform(double probability, std::uint64_t seed);

  bool down() const { return down_depth_ > 0; }
  void set_down(bool down);  // depth-counted for overlapping windows

  void begin_burst(const GilbertElliottParams& params, std::uint64_t seed);
  void end_burst();
  bool bursting() const { return burst_.has_value(); }

  /// The per-frame verdict, in priority order: down-window, then the burst
  /// chain, then the uniform draw. Exactly one cause is charged per drop.
  /// The uniform draw is only consumed when uniform loss is configured,
  /// preserving the legacy RNG stream.
  bool should_drop();

  struct Stats {
    std::uint64_t down_drops = 0;
    std::uint64_t burst_drops = 0;
    std::uint64_t uniform_drops = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  int down_depth_ = 0;
  std::optional<GilbertElliott> burst_;
  double uniform_p_ = 0.0;
  std::optional<Rng> uniform_rng_;
  Stats stats_;
};

/// Fault state of one NIC: per-cell corruption probability, as the legacy
/// uniform knob plus scripted windows that add to it. The NIC keeps
/// ownership of what "corrupt" means (bit flip in detailed mode, damaged
/// burst otherwise); this class only owns the draws so the legacy stream
/// (seed + draw order) is preserved.
class NicFault {
 public:
  void configure_uniform(double probability, std::uint64_t seed);

  void begin_window(double probability);
  void end_window();

  /// Any corruption source active (gate the per-cell draws on this).
  bool corrupting() const { return effective_p() > 0.0; }

  /// Per-cell Bernoulli(effective probability).
  bool draw_corrupt();
  /// Uniform in [0, bound): position draws for the bit flip.
  std::uint64_t draw_below(std::uint64_t bound);

  struct Stats {
    std::uint64_t corrupted_cells = 0;
  };
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

 private:
  double effective_p() const;

  double uniform_p_ = 0.0;
  std::vector<double> windows_;  // active scripted windows (stacked)
  std::optional<Rng> rng_;
  Stats stats_;
};

/// Fault state of one switch: per-port down flags. The switch drops bursts
/// entering or leaving a dead port; subscribers (the SVC call controller)
/// are notified on every transition so they can release and later
/// re-establish circuits through the port.
class SwitchFault {
 public:
  using PortObserver = std::function<void(int port, bool down)>;

  bool port_down(int port) const;
  void set_port_down(int port, bool down);  // depth-counted; notifies observers
  void subscribe(PortObserver observer) { observers_.push_back(std::move(observer)); }

  struct Stats {
    std::uint64_t port_drops = 0;
  };
  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

 private:
  std::map<int, int> down_depth_;
  std::vector<PortObserver> observers_;
  Stats stats_;
};

/// Fault state of one host: scripted pause windows. The owner (the cluster
/// harness) installs a handler that stalls the host's scheduler — e.g. by
/// occupying the CPU with a top-priority thread — until `resume_at`.
class HostFault {
 public:
  using PauseHandler = std::function<void(TimePoint resume_at)>;

  void set_pause_handler(PauseHandler handler) { handler_ = std::move(handler); }
  void pause_until(TimePoint resume_at);

  struct Stats {
    std::uint64_t pauses = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  PauseHandler handler_;
  Stats stats_;
};

}  // namespace ncs::fault
