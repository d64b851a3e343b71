// One run of one ncsbench workload, in its own process.
//
//   ncs_workload --workload NAME --seed N [--profile] [--spans PATH]
//
// Builds the workload's cluster through the public cluster::Cluster API and
// times each phase from outside: construction, init_ncs_hsm(), run() and
// destruction. Afterwards it reads every layer's counters through
// Cluster::metrics() (plus the profiler's histograms with --profile) and
// verifies every output. stdout carries two JSON lines: the plan, flushed
// before the cluster exists so that an abort still says how many
// operations were attempted, and, last, the result. ncsbench/run.py runs
// one child per run and folds the children into the benchmark's metrics.
//
// The seed derives the traffic (ring orders, peer offsets, size orders);
// the program only sees the generated sends, receives and one-sided ops.
// Every two-sided payload carries (src, thread, seq, size, send stamp) and
// a pattern checked on receipt; allreduce sums are checked against their
// closed form; one-sided gets must return what the matching put wrote and
// the fetch_add counter must end at exactly P x rounds. The digest folds
// (src, dst, seq, arrival ps) of every operation, order-independently.
//
// Spans: one per phase always; with --profile also one around each NCS
// API call the workload makes (name, rank, thread, simulated and host
// start/end). They stay in memory and --spans writes them as Chrome Trace
// Event JSON when the run ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/mts/sync.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"

namespace {

using namespace ncs;
using cluster::Cluster;
using cluster::ClusterConfig;
using HostClock = std::chrono::steady_clock;

// --- seeded traffic generation ---

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[static_cast<std::size_t>(next() % i)]);
  }
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  SplitMix m{a * 0x100000001B3ull ^ b * 0xC2B2AE3D27D4EB4Full ^ c};
  return m.next();
}

// --- spans ---

struct Span {
  const char* name;
  int rank;    // -1: cluster-wide phase
  int thread;  // NCS logical thread id; -1: main / phase
  std::int64_t sim_begin_ps;
  std::int64_t sim_end_ps;
  std::int64_t host_begin_ns;
  std::int64_t host_end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(bool api_calls) : api_calls_(api_calls), origin_(HostClock::now()) {
    if (api_calls_) spans_.reserve(1 << 18);
  }

  /// Null unless API-call spans are on, so an untraced run pays nothing.
  SpanLog* api() { return api_calls_ ? this : nullptr; }

  std::int64_t host_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(HostClock::now() - origin_)
        .count();
  }
  void add(const Span& s) { spans_.push_back(s); }

  /// Simulated-duration quantile (µs) over spans named `name`; 0 if none.
  double sim_quantile_us(const char* name, double q) const {
    std::vector<std::int64_t> d;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, name) == 0) d.push_back(s.sim_end_ps - s.sim_begin_ps);
    if (d.empty()) return 0.0;
    const auto k = static_cast<std::size_t>(q * static_cast<double>(d.size() - 1));
    std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(k), d.end());
    return static_cast<double>(d[k]) * 1e-6;
  }

  bool write_chrome(const std::string& path) const {
    obs::JsonWriter w;
    w.begin_object().key("traceEvents").begin_array();
    for (const Span& s : spans_) {
      w.begin_object()
          .field("name", s.name)
          .field("ph", "X")
          .field("pid", s.rank + 1)
          .field("tid", s.thread + 1)
          .field("ts", static_cast<double>(s.sim_begin_ps) * 1e-6)
          .field("dur", static_cast<double>(s.sim_end_ps - s.sim_begin_ps) * 1e-6)
          .key("args")
          .begin_object()
          .field("rank", s.rank)
          .field("thread", s.thread)
          .field("host_begin_ns", s.host_begin_ns)
          .field("host_end_ns", s.host_end_ns)
          .end_object()
          .end_object();
    }
    w.end_array().field("displayTimeUnit", "ns").end_object();
    std::ofstream f(path);
    f << std::move(w).str() << '\n';
    return static_cast<bool>(f);
  }

 private:
  bool api_calls_;
  HostClock::time_point origin_;
  std::vector<Span> spans_;
};

/// Records one span over its lifetime (exceptions included); a null log
/// makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int rank, int thread, const sim::Engine* eng)
      : log_(log), eng_(eng) {
    if (log_ == nullptr) return;
    span_ = {name, rank, thread, sim_now(), 0, log_->host_ns(), 0};
  }
  ~SpanScope() {
    if (log_ == nullptr) return;
    span_.sim_end_ps = sim_now();
    span_.host_end_ns = log_->host_ns();
    log_->add(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t sim_now() const {
    return eng_ == nullptr ? 0 : (eng_->now() - TimePoint::origin()).ps();
  }
  SpanLog* log_;
  const sim::Engine* eng_;
  Span span_{};
};

// --- workload description ---

struct Spec {
  ClusterConfig cfg;
  int streams = 1;  // sender/receiver thread pairs per rank
  int msgs = 0;     // messages per sender
  /// Sizes cycled per message; stream k of rank r starts the cycle at
  /// phase[k][r], drawn from the seed.
  std::vector<std::uint32_t> sizes;
  std::vector<std::vector<std::uint32_t>> phase;  // phase[k][r]
  /// Main thread: one allreduce_sum + barrier after every `coll_every`
  /// messages of each local sender (0: no collectives).
  int coll_every = 0;
  int rma_rounds = 0;  // one-sided rounds per rank (0: no one-sided thread)
  /// to[k][r]: destination of rank r's stream k; from[k][r]: its source.
  std::vector<std::vector<int>> to, from;

  std::uint32_t size_of(int k, int rank, std::uint32_t seq) const {
    const auto n = static_cast<std::uint32_t>(sizes.size());
    return sizes[(seq + phase[static_cast<std::size_t>(k)][static_cast<std::size_t>(rank)]) % n];
  }
};

constexpr std::size_t kHeader = 24;  // src, thread, seq, size (u32), stamp (i64)
constexpr int kAllreduceDoubles = 128;
constexpr std::uint64_t kRmaSlot = 256;
constexpr std::uint64_t kRmaSlots = 8;
constexpr std::uint64_t kRmaRegion = 64;  // [0, 8) is rank 0's counter

/// Ring over `order` (a permutation of the ranks): stream 0 only.
void ring(Spec& s, const std::vector<int>& order) {
  const int p = s.cfg.n_procs;
  s.to.assign(1, std::vector<int>(static_cast<std::size_t>(p)));
  s.from = s.to;
  for (int i = 0; i < p; ++i) {
    const int a = order[static_cast<std::size_t>(i)];
    const int b = order[static_cast<std::size_t>((i + 1) % p)];
    s.to[0][static_cast<std::size_t>(a)] = b;
    s.from[0][static_cast<std::size_t>(b)] = a;
  }
}

/// Stream k of every rank goes to rank + offsets[k].
void offsets(Spec& s, const std::vector<int>& offs) {
  const int p = s.cfg.n_procs;
  s.streams = static_cast<int>(offs.size());
  s.to.assign(offs.size(), std::vector<int>(static_cast<std::size_t>(p)));
  s.from = s.to;
  for (std::size_t k = 0; k < offs.size(); ++k) {
    for (int r = 0; r < p; ++r) {
      s.to[k][static_cast<std::size_t>(r)] = (r + offs[k]) % p;
      s.from[k][static_cast<std::size_t>(r)] = (r - offs[k] + p) % p;
    }
  }
}

std::vector<int> distinct_offsets(int p, int n, SplitMix& rng) {
  std::vector<int> offs;
  for (int d = 1; d < p; ++d) offs.push_back(d);
  rng.shuffle(offs);
  offs.resize(static_cast<std::size_t>(n));
  return offs;
}

std::optional<Spec> make_spec(const std::string& name, std::uint64_t seed) {
  SplitMix rng{seed};
  Spec s;
  if (name == "hosts_lan_512") {
    s.cfg = cluster::sun_atm_lan(512);
    s.msgs = 8;
    s.sizes = {1024};
    std::vector<int> order(512);
    for (int i = 0; i < 512; ++i) order[static_cast<std::size_t>(i)] = i;
    rng.shuffle(order);
    ring(s, order);
  } else if (name == "stream_wan_64") {
    s.cfg = cluster::nynet_wan(64);
    s.cfg.ncs.flow.kind = mps::FlowControlKind::window;
    s.msgs = 2048;
    s.sizes = {1024};
    // Shuffle within each site so every order has exactly two cross-site
    // streams (the DS-3 tail) whatever the seed.
    std::vector<int> a, b;
    for (int i = 0; i < 32; ++i) a.push_back(i);
    for (int i = 32; i < 64; ++i) b.push_back(i);
    rng.shuffle(a);
    rng.shuffle(b);
    a.insert(a.end(), b.begin(), b.end());
    ring(s, a);
  } else if (name == "mt_stream_lan_16") {
    s.cfg = cluster::sun_atm_lan(16);
    s.cfg.cores = 4;
    s.cfg.ncs.proto.mode = mps::ProtoMode::adaptive;
    s.cfg.ncs.coll.nic_offload = true;
    s.msgs = 256;
    s.sizes = {64, 512, 4096, 32768};
    s.coll_every = 8;
    offsets(s, distinct_offsets(16, 4, rng));
  } else if (name == "planes_lan_16" || name == "planes_repro_p2") {
    // planes_repro_p2 is the smallest known reproduction of the tx-buffer
    // abort planes_lan_16 hits: P=2, one core, proto off, no collectives.
    const bool repro = name == "planes_repro_p2";
    s.cfg = cluster::sun_atm_lan(repro ? 2 : 16);
    s.cfg.rma_enabled = true;
    if (!repro) {
      s.cfg.cores = 4;
      s.cfg.ncs.coll.nic_offload = true;
      s.coll_every = 8;
    }
    s.msgs = repro ? 8 : 256;
    s.rma_rounds = s.msgs;
    s.sizes = {64, 256, 1024, 4096, 16384, 65536};
    offsets(s, distinct_offsets(s.cfg.n_procs, 1, rng));
  } else {
    return std::nullopt;
  }
  // Each rank's streams start at distinct phases (a seeded permutation per
  // rank, streams <= sizes), so at any sequence number a rank offers every
  // size once: its load is the same for every seed, only who gets which
  // size changes.
  s.phase.assign(static_cast<std::size_t>(s.streams),
                 std::vector<std::uint32_t>(static_cast<std::size_t>(s.cfg.n_procs)));
  std::vector<std::uint32_t> perm(s.sizes.size());
  for (int r = 0; r < s.cfg.n_procs; ++r) {
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<std::uint32_t>(i);
    rng.shuffle(perm);
    for (int k = 0; k < s.streams; ++k)
      s.phase[static_cast<std::size_t>(k)][static_cast<std::size_t>(r)] =
          perm[static_cast<std::size_t>(k)];
  }
  return s;
}

// --- one run ---

std::int64_t ps_of(TimePoint t) { return (t - TimePoint::origin()).ps(); }

std::uint8_t pattern(int src, std::uint32_t seq, std::size_t i) {
  return static_cast<std::uint8_t>((static_cast<std::uint32_t>(src) * 131u + seq * 31u +
                                    static_cast<std::uint32_t>(i)) &
                                   0xFFu);
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::vector<std::string> errors;  // the first few mismatches
  std::uint64_t digest = 0;
  std::vector<std::int64_t> lat_ps;      // simulated per-operation latency
  std::vector<std::int64_t> rma_lat_ps;  // one-sided subset: post -> completion
  std::vector<std::uint64_t> fetched;    // fetch_add pre-values, all ranks

  void fail(std::string what) {
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
  /// Counts one verified operation into ok, latency and the digest.
  void done(std::uint64_t a, std::uint64_t b, std::int64_t begin_ps, std::int64_t end_ps) {
    ++ok;
    lat_ps.push_back(end_ps - begin_ps);
    digest += mix(a, b, static_cast<std::uint64_t>(end_ps));
  }
};

std::uint64_t planned_ops(const Spec& s) {
  const auto p = static_cast<std::uint64_t>(s.cfg.n_procs);
  std::uint64_t n = p * static_cast<std::uint64_t>(s.streams) * static_cast<std::uint64_t>(s.msgs);
  if (s.coll_every > 0) n += p * 2 * static_cast<std::uint64_t>(s.msgs / s.coll_every);
  n += p * 3 * static_cast<std::uint64_t>(s.rma_rounds);  // put, get, fetch_add
  return n;
}

struct Phases {
  double build_s = 0, init_s = 0, run_s = 0, teardown_s = 0;
  double wall_s() const { return build_s + init_s + run_s + teardown_s; }
};

double secs(HostClock::time_point a, HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The rank main: spawns the stream (and one-sided) threads, runs the
/// paced collectives, joins.
void rank_main(Cluster& c, const Spec& s, int rank, Tally& res, SpanLog& spans) {
  mps::Node& node = c.node(rank);
  const sim::Engine* eng = &c.engine();
  SpanLog* api = spans.api();
  const int k_streams = s.streams;
  // Senders signal every coll_every messages; the main paces on them.
  auto progress = std::make_shared<mts::Semaphore>(node.host(), 0);

  std::vector<int> tids;
  if (s.rma_rounds > 0) {
    SpanScope win(api, "win_create", rank, -1, eng);
    node.rma().create_window(0, kRmaRegion + 2 * kRmaSlots * kRmaSlot);
  }
  for (int k = 0; k < k_streams; ++k) {
    const int dst = s.to[static_cast<std::size_t>(k)][static_cast<std::size_t>(rank)];
    SpanScope spawn(api, "t_create", rank, -1, eng);
    tids.push_back(node.t_create([&c, &s, &node, rank, k, dst, api, eng, progress,
                                  k_streams] {
      for (std::uint32_t seq = 0; seq < static_cast<std::uint32_t>(s.msgs); ++seq) {
        const std::uint32_t size = s.size_of(k, rank, seq);
        Bytes payload(size);
        auto* b = reinterpret_cast<std::uint8_t*>(payload.data());
        for (std::size_t i = kHeader; i < size; ++i) b[i] = pattern(rank, seq, i);
        const std::uint32_t hdr[4] = {static_cast<std::uint32_t>(rank),
                                      static_cast<std::uint32_t>(k), seq, size};
        std::memcpy(b, hdr, sizeof hdr);
        const std::int64_t stamp = ps_of(c.engine().now());
        std::memcpy(b + 16, &stamp, sizeof stamp);
        {
          SpanScope sp(api, "send", rank, k, eng);
          node.send(k, k_streams + k, dst, payload);
        }
        if (s.coll_every > 0 && (seq + 1) % static_cast<std::uint32_t>(s.coll_every) == 0)
          progress->signal();
      }
    }));
  }
  for (int k = 0; k < k_streams; ++k) {
    const int src = s.from[static_cast<std::size_t>(k)][static_cast<std::size_t>(rank)];
    SpanScope spawn(api, "t_create", rank, -1, eng);
    tids.push_back(node.t_create([&c, &s, &node, &res, rank, k, src, api, eng,
                                  k_streams] {
      const int me = k_streams + k;
      for (std::uint32_t seq = 0; seq < static_cast<std::uint32_t>(s.msgs); ++seq) {
        Bytes m;
        {
          SpanScope sp(api, "recv", rank, me, eng);
          m = node.recv(k, src, me);
        }
        const std::int64_t now = ps_of(c.engine().now());
        const std::uint32_t want = s.size_of(k, src, seq);
        std::uint32_t hdr[4] = {};
        std::int64_t stamp = 0;
        if (m.size() >= kHeader) {
          std::memcpy(hdr, m.data(), sizeof hdr);
          std::memcpy(&stamp, m.data() + 16, sizeof stamp);
        }
        bool good = m.size() == want && hdr[0] == static_cast<std::uint32_t>(src) &&
                    hdr[1] == static_cast<std::uint32_t>(k) && hdr[2] == seq &&
                    hdr[3] == want && stamp <= now;
        const auto* b = reinterpret_cast<const std::uint8_t*>(m.data());
        for (std::size_t i = kHeader; good && i < m.size(); ++i)
          good = b[i] == pattern(src, seq, i);
        if (!good) {
          res.fail("p" + std::to_string(rank) + " stream " + std::to_string(k) +
                   ": bad message " + std::to_string(seq) + " from p" + std::to_string(src));
          continue;
        }
        res.done(static_cast<std::uint64_t>(src) << 32 | static_cast<std::uint64_t>(rank) << 8 |
                     static_cast<std::uint64_t>(k),
                 seq, stamp, now);
      }
    }));
  }
  if (s.rma_rounds > 0) {
    SpanScope spawn(api, "t_create", rank, -1, eng);
    tids.push_back(node.t_create([&c, &s, &node, &res, rank, api, eng] {
      const int p = s.cfg.n_procs;
      const int me = 2 * s.streams;
      const int target = (rank + p / 2) % p;
      rma::Engine& rma = node.rma();
      for (int round = 0; round < s.rma_rounds; ++round) {
        const std::uint64_t slot = static_cast<std::uint64_t>(round) % kRmaSlots;
        const std::uint64_t put_off = kRmaRegion + slot * kRmaSlot;
        const std::uint64_t get_off = kRmaRegion + (kRmaSlots + slot) * kRmaSlot;
        Bytes data(kRmaSlot);
        for (std::size_t i = 0; i < data.size(); ++i)
          data[i] = static_cast<std::byte>(pattern(rank, static_cast<std::uint32_t>(round), i));
        // Op ids count per peer, so an op is (peer, id).
        const auto key = [](int peer, std::uint32_t id) {
          return static_cast<std::uint64_t>(peer) << 32 | id;
        };
        std::unordered_map<std::uint64_t, std::int64_t> posted;
        std::uint64_t get_op = 0, add_op = 0;
        {
          SpanScope sp(api, "put", rank, me, eng);
          posted[key(target, rma.put(target, 0, put_off, data))] = ps_of(c.engine().now());
        }
        {
          SpanScope sp(api, "get", rank, me, eng);
          get_op = key(target, rma.get(target, 0, put_off, 0, get_off, kRmaSlot));
          posted[get_op] = ps_of(c.engine().now());
        }
        {
          SpanScope sp(api, "fetch_add", rank, me, eng);
          add_op = key(0, rma.fetch_add(0, 0, 0, 1));
          posted[add_op] = ps_of(c.engine().now());
        }
        {
          SpanScope sp(api, "fence", rank, me, eng);
          rma.fence();
        }
        while (auto done = rma.cq().poll()) {
          const std::uint64_t op = key(done->peer, done->op_id);
          const auto it = posted.find(op);
          if (it == posted.end()) continue;  // remote_put notifications are not ours
          bool good = done->ok;
          if (good && op == get_op)
            good = std::memcmp(rma.window(0)->at(get_off), data.data(), kRmaSlot) == 0;
          if (good && op == add_op) res.fetched.push_back(done->value);
          if (!good) {
            res.fail("p" + std::to_string(rank) + " round " + std::to_string(round) +
                     ": one-sided op " + std::to_string(done->op_id) + " failed");
          } else {
            res.done(static_cast<std::uint64_t>(rank) << 8 | 0xFF, op, it->second,
                     ps_of(done->at));
            res.rma_lat_ps.push_back(ps_of(done->at) - it->second);
          }
          posted.erase(it);
        }
        if (!posted.empty())
          res.fail("p" + std::to_string(rank) + " round " + std::to_string(round) + ": " +
                   std::to_string(posted.size()) + " one-sided ops never completed");
      }
    }));
  }

  if (s.coll_every > 0) {
    const int rounds = s.msgs / s.coll_every;
    const int p = s.cfg.n_procs;
    std::vector<double> v(kAllreduceDoubles);
    for (int round = 0; round < rounds; ++round) {
      for (int k = 0; k < k_streams; ++k) progress->wait();
      for (int i = 0; i < kAllreduceDoubles; ++i)
        v[static_cast<std::size_t>(i)] = static_cast<double>((rank + 1) * (i + 1) + round);
      const std::int64_t t0 = ps_of(c.engine().now());
      std::vector<double> sum;
      {
        SpanScope sp(api, "allreduce", rank, -1, eng);
        sum = node.allreduce_sum(v);
      }
      const std::int64_t t1 = ps_of(c.engine().now());
      bool good = sum.size() == v.size();
      for (int i = 0; good && i < kAllreduceDoubles; ++i)
        good = sum[static_cast<std::size_t>(i)] ==
               static_cast<double>((i + 1) * p * (p + 1) / 2 + p * round);
      if (good) {
        res.done(static_cast<std::uint64_t>(rank) << 8 | 0xFE,
                 static_cast<std::uint64_t>(round), t0, t1);
      } else {
        res.fail("p" + std::to_string(rank) + ": allreduce round " + std::to_string(round) +
                 " wrong sum");
      }
      {
        SpanScope sp(api, "barrier", rank, -1, eng);
        node.barrier();
      }
      res.done(static_cast<std::uint64_t>(rank) << 8 | 0xFD, static_cast<std::uint64_t>(round),
               t1, ps_of(c.engine().now()));
    }
  }
  for (int t : tids) {
    SpanScope sp(api, "join", rank, -1, eng);
    node.host().join(node.user_thread(t));
  }
}

/// Sums registry samples per layer key: "p3/mps/flow/window_stalls" and
/// "switch1/cells" fold into "mps/flow/window_stalls" and "switch/cells".
std::map<std::string, double> fold_metrics(const obs::MetricsRegistry& reg) {
  std::map<std::string, double> out;
  for (const auto& sm : reg.snapshot()) {
    const auto slash = sm.key.find('/');
    std::string head = sm.key.substr(0, slash);
    std::string key = sm.key;
    const bool rank_prefix = head.size() > 1 && head[0] == 'p' &&
                             std::all_of(head.begin() + 1, head.end(),
                                         [](char ch) { return ch >= '0' && ch <= '9'; });
    if (rank_prefix && slash != std::string::npos) {
      key = sm.key.substr(slash + 1);
    } else if (head.rfind("switch", 0) == 0 && slash != std::string::npos) {
      key = "switch" + sm.key.substr(slash);
    }
    out[key] += sm.value;
  }
  return out;
}

double us(std::int64_t ps) { return static_cast<double>(ps) * 1e-6; }

std::int64_t quantile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "ncs_workload: %s\nusage: ncs_workload --workload NAME --seed N "
               "[--profile] [--spans PATH]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, spans_path;
  std::optional<std::uint64_t> seed;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      name = argv[++i];
    } else if (a == "--seed" && has_val) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage("--seed takes an unsigned integer");
    } else if (a == "--profile") {
      profile = true;
    } else if (a == "--spans" && has_val) {
      spans_path = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (name.empty() || !seed) return usage("--workload and --seed are required");
  std::optional<Spec> spec = make_spec(name, *seed);
  if (!spec) return usage(("unknown workload " + name).c_str());
  spec->cfg.profile = profile;

  Tally res;
  res.attempted = planned_ops(*spec);
  res.lat_ps.reserve(res.attempted);
  std::printf("{\"plan\":{\"workload\":\"%s\",\"attempted\":%llu}}\n", name.c_str(),
              static_cast<unsigned long long>(res.attempted));
  std::fflush(stdout);

  SpanLog spans(profile);
  Phases ph;
  std::vector<std::pair<const char*, double>> layers;
  double makespan_s = 0;
  {
    auto t0 = HostClock::now();
    std::unique_ptr<Cluster> c;
    {
      SpanScope sp(&spans, "build", -1, -1, nullptr);
      c = std::make_unique<Cluster>(spec->cfg);
    }
    auto t1 = HostClock::now();
    {
      SpanScope sp(&spans, "init_ncs_hsm", -1, -1, &c->engine());
      c->init_ncs_hsm();
    }
    auto t2 = HostClock::now();
    std::uint64_t spawns_at_init = 0;
    for (int r = 0; r < c->n_procs(); ++r) spawns_at_init += c->host(r).stats().spawns;
    Duration makespan;
    {
      SpanScope sp(&spans, "run", -1, -1, &c->engine());
      makespan = c->run([&](int rank) { rank_main(*c, *spec, rank, res, spans); });
    }
    auto t3 = HostClock::now();
    ph.build_s = secs(t0, t1);
    ph.init_s = secs(t1, t2);
    ph.run_s = secs(t2, t3);
    makespan_s = makespan.sec();

    {
      SpanScope sp(&spans, "collect", -1, -1, &c->engine());
      if (spec->rma_rounds > 0) {
        // The counter must end at exactly P x rounds and the pre-values
        // must be 0 .. P x rounds - 1, each once; otherwise every fetch_add
        // is suspect.
        const std::uint64_t want = static_cast<std::uint64_t>(spec->cfg.n_procs) *
                                   static_cast<std::uint64_t>(spec->rma_rounds);
        std::sort(res.fetched.begin(), res.fetched.end());
        bool gapless = res.fetched.size() == want;
        for (std::uint64_t i = 0; gapless && i < want; ++i) gapless = res.fetched[i] == i;
        if (c->rma(0).window(0)->load_u64(0) != want || !gapless) {
          res.fail("fetch_add counter ended at " +
                   std::to_string(c->rma(0).window(0)->load_u64(0)) + ", want " +
                   std::to_string(want) + (gapless ? "" : "; pre-values not 0..want-1"));
          res.ok -= std::min(res.ok, want);
        }
      }
      const std::map<std::string, double> m = fold_metrics(c->metrics());
      const auto get = [&m](const char* k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
      };
      const double events = static_cast<double>(c->engine().processed());
      layers = {
          {"cluster.build_s", ph.build_s},
          {"cluster.build_us_per_host", ph.build_s * 1e6 / spec->cfg.n_procs},
          {"cluster.init_s", ph.init_s},
          {"mts.spawns", get("mts/spawns")},
          {"mts.host_us_per_spawn",
           ph.init_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(spawns_at_init, 1))},
          {"sim.events", events},
          {"sim.host_ns_per_event", ph.run_s * 1e9 / std::max(events, 1.0)},
          {"sim.peak_pending", static_cast<double>(c->engine().stats().peak_pending)},
          {"atm.nic_tx_cells", get("nic/tx_cells")},
          {"atm.switch_cells", get("switch/cells")},
          {"atm.switch_port_drops", get("switch/port_drops")},
          {"mps.sends", get("mps/sends")},
          {"mps.acks_sent", get("mps/acks_sent")},
          {"mps.window_stalls", get("mps/flow/window_stalls")},
          {"mps.retransmits", get("mps/ec/retransmits")},
          {"proto.eager_msgs_per_frame",
           get("mps/proto/eager_msgs") / std::max(get("mps/proto/eager_frames"), 1.0)},
          {"proto.rndv_completed", get("mps/proto/rndv_completed")},
          {"mts.dispatches", get("mts/dispatches")},
          {"mts.steals", get("mts/steals")},
          {"nic_coll.combines", get("nic_coll/combines")},
          {"nic_coll.fallbacks", get("nic_coll/fallbacks")},
      };
      if (spec->rma_rounds > 0) {
        layers.insert(layers.end(), {
            {"rma.completions", get("rma/completions")},
            {"rma.retransmits", get("rma/retransmits")},
            {"rma.error_completions", get("rma/error_completions")},
            {"rma.op_p50_us", us(quantile(res.rma_lat_ps, 0.5))},
            {"rma.op_p99_us", us(quantile(res.rma_lat_ps, 0.99))},
        });
      }
      if (const obs::Profiler* prof = c->profiler(); prof != nullptr) {
        const auto q = [prof](obs::Layer l, double at) { return us(prof->hist(l).quantile(at)); };
        layers.insert(layers.end(), {
            {"prof.nic_dma.p50_us", q(obs::Layer::nic_dma, 0.5)},
            {"prof.nic_sar.p50_us", q(obs::Layer::nic_sar, 0.5)},
            {"prof.wire.p50_us", q(obs::Layer::wire, 0.5)},
            {"prof.flow_control.p99_us", q(obs::Layer::flow_control, 0.99)},
            {"prof.send_queue.p99_us", q(obs::Layer::send_queue, 0.99)},
            {"prof.mailbox.p99_us", q(obs::Layer::mailbox, 0.99)},
            {"prof.proto.p99_us", q(obs::Layer::proto, 0.99)},
            {"prof.sched_dispatch.p99_us", q(obs::Layer::sched_dispatch, 0.99)},
            {"prof.nic_coll.p99_us", q(obs::Layer::nic_coll, 0.99)},
            {"mps.send_call_p50_us", spans.sim_quantile_us("send", 0.5)},
            {"mps.send_call_p99_us", spans.sim_quantile_us("send", 0.99)},
            {"coll.allreduce_call_p50_us", spans.sim_quantile_us("allreduce", 0.5)},
            {"coll.allreduce_call_p99_us", spans.sim_quantile_us("allreduce", 0.99)},
        });
      }
    }

    auto t4 = HostClock::now();
    {
      SpanScope sp(&spans, "teardown", -1, -1, nullptr);
      c.reset();
    }
    ph.teardown_s = secs(t4, HostClock::now());
  }
  layers.emplace_back("cluster.teardown_s", ph.teardown_s);

  const double lat_p50 = us(quantile(res.lat_ps, 0.5));
  const double lat_p99 = us(quantile(res.lat_ps, 0.99));
  obs::JsonWriter w;
  w.begin_object()
      .field("workload", name)
      .field("seed", *seed)
      .field("profile", profile)
      .field("attempted", res.attempted)
      .field("ok", res.ok);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(res.digest));
  w.field("digest", std::string_view(digest)).key("errors").begin_array();
  for (const auto& e : res.errors) w.value(e);
  w.end_array()
      .key("host")
      .begin_object()
      .field("build_s", ph.build_s)
      .field("init_s", ph.init_s)
      .field("run_s", ph.run_s)
      .field("teardown_s", ph.teardown_s)
      .field("setup_s", ph.build_s + ph.init_s)
      .field("wall_s", ph.wall_s())
      .end_object()
      .key("sim")
      .begin_object()
      .field("makespan_s", makespan_s)
      .field("ops_per_s", makespan_s > 0 ? static_cast<double>(res.ok) / makespan_s : 0.0)
      .field("lat_p50_us", lat_p50)
      .field("lat_p99_us", lat_p99)
      .field("lat_samples", static_cast<std::uint64_t>(res.lat_ps.size()))
      .end_object()
      .key("layers")
      .begin_object();
  for (const auto& [k, v] : layers) w.field(k, v);
  w.end_object().end_object();
  const std::string out = std::move(w).str();
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);

  if (!spans_path.empty() && !spans.write_chrome(spans_path)) {
    std::fprintf(stderr, "ncs_workload: cannot write spans to %s\n", spans_path.c_str());
    return 1;
  }
  return 0;
}
