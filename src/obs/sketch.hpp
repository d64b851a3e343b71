// Sliding-window quantile sketch over sim time.
//
// A WindowedSketch is a ring of `subwindows` Histograms covering
// consecutive, aligned sub-windows of simulated time. record(t, v) drops
// the sample into the sub-window containing t (rotating the ring forward
// and clearing expired slots first), so at any instant the merge of the
// live slots is the exact histogram of the last `window` of samples —
// quantiles over a sliding window at sub-window granularity, from fixed
// memory. Rotation is a memset of a flat 8 KB array; record is a bucket
// increment: the steady-state path performs no allocation.
//
// Determinism: the rotation schedule depends only on sample timestamps
// (sub-window boundaries are aligned to t = 0, not to the first sample),
// and samples arrive in the engine's (time, seq) order, so two runs that
// are event-for-event identical produce bit-identical window series
// (tests/obs/test_telemetry.cpp pins one run's whole series to the digest
// the seed std::map event queue produced).
//
// A cumulative histogram accumulates every sample since construction
// alongside the ring, so end-of-run summaries (bench rows, SLO totals)
// don't need to replay the series.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "obs/hist.hpp"

namespace ncs::obs {

class WindowedSketch {
 public:
  /// `window` must divide into `subwindows` equal non-zero slices.
  WindowedSketch(Duration window, int subwindows);

  Duration window() const { return Duration::picoseconds(sub_ps_ * n_sub()); }
  Duration subwindow() const { return Duration::picoseconds(sub_ps_); }
  int n_sub() const { return static_cast<int>(sub_.size()); }

  /// Records `v` into the sub-window containing `t`. Timestamps must be
  /// non-decreasing (engine order); an older `t` lands in the current slot.
  void record(TimePoint t, std::int64_t v);
  void record(TimePoint t, Duration d) { record(t, d.ps()); }

  /// Rotates the ring so the window ends at the sub-window containing `t`
  /// (expired slots cleared). The sampler calls this every tick so windows
  /// age out even when no samples arrive.
  void advance_to(TimePoint t);

  /// Merge of the live sub-windows: the histogram of (up to) the last
  /// `window` of samples. O(buckets * subwindows); by value, the caller
  /// queries quantiles on the snapshot.
  Histogram window_hist() const;

  /// Every sample since construction.
  const Histogram& total() const { return total_; }

  /// Sub-window boundary crossings so far (0 until the first record).
  std::uint64_t rotations() const { return rotations_; }

 private:
  std::vector<Histogram> sub_;
  Histogram total_;
  std::int64_t sub_ps_;
  std::int64_t cur_start_ps_ = 0;  // start of the current (newest) sub-window
  int cur_ = 0;
  bool started_ = false;
  std::uint64_t rotations_ = 0;
};

}  // namespace ncs::obs
