// Telemetry plane: SLO grading semantics, flight-recorder ring/dump-once
// behavior, the sampler's series determinism across event-queue backends,
// and the fault-triggered black-box dump from a real blackout run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/drivers.hpp"
#include "cluster/report.hpp"
#include "obs/json.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"

namespace ncs::obs {
namespace {

using namespace ncs::literals;

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::milliseconds(static_cast<double>(ms));
}

// --- SloEngine --------------------------------------------------------------

TEST(SloEngine, LatencyObjectiveGradesTheWindow) {
  WindowedSketch sketch(Duration::milliseconds(100), 10);
  SloEngine e;
  SloSpec spec;
  spec.name = "p90_under_1us";
  spec.sketch = "x";
  spec.threshold = 1_us;
  spec.target = 0.9;
  e.add_latency(spec, &sketch);

  // An empty window is vacuously compliant but neither spends nor earns
  // budget — it must not count as a graded window.
  e.evaluate(at_ms(0));
  EXPECT_EQ(e.states()[0].windows, 0u);
  EXPECT_EQ(e.states()[0].last_compliance, 1.0);

  // 9 fast + 1 slow = 90% compliant: exactly on target, burn exactly 1.
  for (int i = 0; i < 9; ++i) sketch.record(at_ms(1), (100_ns).ps());
  sketch.record(at_ms(1), (50_us).ps());
  e.evaluate(at_ms(1));
  const SloEngine::State& s = e.states()[0];
  EXPECT_EQ(s.windows, 1u);
  EXPECT_EQ(s.compliant_windows, 1u);
  EXPECT_DOUBLE_EQ(s.last_compliance, 0.9);
  EXPECT_DOUBLE_EQ(s.last_burn, 1.0);
  EXPECT_EQ(s.hard_breaches, 0u);
}

TEST(SloEngine, DeliveryObjectiveGradesPerWindowDeltas) {
  std::uint64_t completions = 0;
  std::uint64_t failures = 0;
  SloEngine e;
  SloSpec spec;
  spec.name = "delivery";
  spec.kind = SloKind::delivery;
  spec.target = 0.5;
  e.add_delivery(spec, [&] { return completions; }, [&] { return failures; });

  completions = 100;
  e.evaluate(at_ms(0));
  EXPECT_DOUBLE_EQ(e.states()[0].last_compliance, 1.0);

  // Next window: 10 more completions, 30 failures -> 25% of offered load
  // delivered. Earlier totals must not dilute the window.
  completions = 110;
  failures = 30;
  e.evaluate(at_ms(1));
  const SloEngine::State& s = e.states()[0];
  EXPECT_DOUBLE_EQ(s.last_compliance, 0.25);
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.breaches, 1u);
}

TEST(SloEngine, HardBreachFiresTheHookPerBreachWindow) {
  WindowedSketch sketch(Duration::milliseconds(100), 10);
  SloEngine e;
  SloSpec spec;
  spec.name = "strict";
  spec.sketch = "x";
  spec.threshold = 1_us;
  spec.target = 0.9;
  spec.hard_burn = 5.0;
  e.add_latency(spec, &sketch);
  int fired = 0;
  TimePoint fired_at;
  e.set_hard_breach_hook([&](const SloSpec& sp, double burn, TimePoint t) {
    EXPECT_EQ(sp.name, "strict");
    EXPECT_GE(burn, 5.0);
    fired_at = t;
    ++fired;
  });

  // Every sample over threshold: compliance 0, burn 10 >= hard_burn 5.
  for (int i = 0; i < 4; ++i) sketch.record(at_ms(2), (50_us).ps());
  e.evaluate(at_ms(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fired_at, at_ms(2));
  EXPECT_EQ(e.states()[0].hard_breaches, 1u);
  EXPECT_EQ(e.total_hard_breaches(), 1u);
}

// --- FlightRecorder ---------------------------------------------------------

TEST(FlightRecorder, RingsOverwriteOldestAndSnapshotSorts) {
  FlightRecorder fr(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i)
    fr.note(0, FlightRecorder::EntryKind::stamp, at_ms(i), "e2e", 1, i);
  fr.note(-1, FlightRecorder::EntryKind::fault, at_ms(3), "link-down sonet");
  EXPECT_EQ(fr.entries_recorded(), 11u);

  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 5u);  // 4 newest stamps + the fabric entry
  // The fabric ring's t=3ms fault survives even though host 0's ring has
  // long since evicted its own t=3ms stamp — and the merge is time-sorted.
  EXPECT_EQ(snap.front().t_ps, at_ms(3).ps());
  EXPECT_EQ(snap.front().host, -1);
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LE(snap[i - 1].t_ps, snap[i].t_ps);
  EXPECT_EQ(snap.back().value, 9);
}

TEST(FlightRecorder, FirstTriggerDumpsOnceLaterTriggersOnlyCount) {
  const std::string path = "test_recorder_dump.json";
  std::remove(path.c_str());
  FlightRecorder fr(8);
  fr.arm(path);
  fr.note(-1, FlightRecorder::EntryKind::fault, at_ms(1), "link-down sonet");
  fr.trigger(2, FlightRecorder::EntryKind::exception, at_ms(5), "recv_timeout", 0);
  fr.trigger(3, FlightRecorder::EntryKind::exception, at_ms(6), "recv_timeout", 0);
  EXPECT_EQ(fr.triggers(), 2u);
  EXPECT_EQ(fr.dumps(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  // The dump is the *first* failure's context: schema, trigger metadata,
  // and the fault instant that preceded it.
  EXPECT_NE(doc.find("ncs-flight-recorder-v1"), std::string::npos);
  EXPECT_NE(doc.find("recv_timeout"), std::string::npos);
  EXPECT_NE(doc.find("link-down sonet"), std::string::npos);
  std::remove(path.c_str());
}

// --- The sampler over a real cluster ----------------------------------------

cluster::ClusterConfig telemetry_lan_config() {
  cluster::ClusterConfig cfg = cluster::sun_atm_lan(2);
  cfg.telemetry = true;
  cfg.telemetry_cfg.period = 100_us;  // LAN runs are short: tick densely
  cfg.telemetry_cfg.window = 1_ms;
  cfg.telemetry_cfg.subwindows = 10;
  SloSpec slo;
  slo.name = "e2e_p99_under_10ms";
  slo.sketch = "mps/e2e";
  slo.threshold = 10_ms;
  slo.target = 0.99;
  cfg.slos.push_back(slo);
  return cfg;
}

std::string run_telemetry_json() {
  cluster::Cluster c(telemetry_lan_config());
  c.init_ncs_hsm();
  constexpr int kMessages = 24;
  c.run([&](int rank) {
    mps::Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        for (int i = 0; i < kMessages; ++i)
          node.send(0, 0, 1, Bytes(2000, std::byte{1}));
      } else {
        for (int i = 0; i < kMessages; ++i)
          (void)node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
      }
    });
    node.host().join(node.user_thread(t));
  });

  const TelemetrySampler* ts = c.telemetry();
  EXPECT_NE(ts, nullptr);
  EXPECT_GT(ts->ticks(), 0u);
  EXPECT_NE(ts->sketch_series("mps/e2e"), nullptr);
  EXPECT_FALSE(ts->sketch_series("mps/e2e")->empty());
  JsonWriter w;
  w.begin_object();
  ts->write_json(w);
  w.end_object();
  return std::move(w).str();
}

TEST(TelemetryRun, SeriesBitIdenticalAcrossQueueBackends) {
  // The sampler only reads module state at instants every conforming event
  // queue agrees on, so the full telemetry document — every timeseries
  // point, every gauge, every SLO grade — must match, byte for byte, the
  // one the seed std::map queue produced (pinned as its FNV-1a and length).
  const std::string calendar = run_telemetry_json();
  EXPECT_EQ(cluster::fnv1a(calendar.data(), calendar.size()), 0x54079cfd8edc6830ull);
  EXPECT_EQ(calendar.size(), 17223u);
  EXPECT_NE(calendar.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(calendar.find("\"mps/e2e\""), std::string::npos);
  EXPECT_NE(calendar.find("\"slo\""), std::string::npos);
  EXPECT_NE(calendar.find("\"e2e_p99_under_10ms\""), std::string::npos);
}

TEST(TelemetryRun, ReportGainsTelemetrySectionAndStaysV3) {
  cluster::Cluster c(telemetry_lan_config());
  c.init_ncs_hsm();
  c.run([&](int rank) {
    if (rank == 0) c.node(0).send(0, 0, 1, Bytes(500, std::byte{2}));
    else (void)c.node(1).recv(0, 0, 0);
  });
  const std::string report = cluster::report_json(c);
  EXPECT_NE(report.find("\"schema\":\"ncs-run-report-v3\""), std::string::npos);
  EXPECT_NE(report.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(report.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(report.find("\"p999_us\""), std::string::npos);
}

TEST(TelemetryRun, BlackoutAutoDumpsTheFaultInstant) {
  const std::string path = "test_blackout_recorder.json";
  std::remove(path.c_str());
  cluster::ClusterConfig cfg = cluster::nynet_wan(2);
  cfg.ncs.recv_timeout = 200_ms;  // EC=none: timeouts are the only escape
  cfg.faults.link_down("sonet", TimePoint::origin(), 10_sec);
  cfg.recorder_path = path;  // arming alone enables the plane

  cluster::Cluster c(cfg);
  c.init_ncs_hsm();
  c.run([&](int rank) {
    mps::Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        node.send(0, 0, 1, Bytes(1500, std::byte{1}));
      } else {
        try {
          (void)node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
        } catch (const mps::NcsException&) {
        }
      }
    });
    node.host().join(node.user_thread(t));
  });

  ASSERT_NE(c.recorder(), nullptr);
  EXPECT_GE(c.recorder()->triggers(), 1u);
  EXPECT_EQ(c.recorder()->dumps(), 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("ncs-flight-recorder-v1"), std::string::npos);
  EXPECT_NE(doc.find("link-down sonet"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ncs::obs
