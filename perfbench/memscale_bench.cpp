// One repetition of one workload of memscale's benchmark.
//
//   memscale_bench workload=<region_random|index_region|index_swap> seed=<n>
//                  [trace=0|1] [ops=<n>] [spans=<file>]
//
// Builds a fresh Engine + Cluster through the public core/workloads API,
// sets the workload up, runs its measured phase closed loop (each simulated
// thread issues its next op only after the previous one completes), checks
// every result and prints one JSON object as the last line of stdout. The
// measured phase runs in slices of simulated time; the JSON lists each
// slice's host seconds and accesses. perfbench/run.py runs this binary once
// per repetition and reduces the repetitions to the benchmark's metrics;
// one process per repetition keeps peak RSS a per-workload figure.
//
// With trace=1 the run also attaches sim::Tracer in flight-recorder mode for
// the measured phase, reads per-layer counters as deltas around that phase,
// and writes its host-side spans (phases and, on the index workloads, one
// span per op) to `spans=` when it ends.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/memory_space.hpp"
#include "core/remote_allocator.hpp"
#include "core/runner.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/tracer.hpp"
#include "workloads/btree.hpp"
#include "workloads/random_access.hpp"

using namespace ms;

namespace {

using Clock = std::chrono::steady_clock;

// region_random: the paper's Fig. 7 "4 servers, 4t, 2 hops" row — client
// node 6 at (1,1) of the 4x4 mesh, donors two hops away.
constexpr ht::NodeId kRandomClient = 6;
const std::vector<ht::NodeId> kRandomServers = {1, 3, 9, 11};
constexpr std::uint64_t kRandomBuffer = std::uint64_t{256} << 20;
constexpr int kRandomThreads = 4;
constexpr std::uint64_t kRandomReads = 160'000;
// Host time is sampled once per slice of simulated time, about 40 per run.
constexpr sim::Time kRandomSlice = sim::us(1'500);

// index_*: the fanout-192, 4 M-key b-tree of Figs. 9-10 (about 61 MiB), one
// simulated thread. Swap keeps a 24 MiB resident set, past Fig. 10's spill
// point. Every kInsertEvery-th op is a timed insert of a fresh even key; the
// others search uniformly over [0, 2 * keys), so half of them hit.
constexpr ht::NodeId kIndexHome = 1;
constexpr int kFanout = 192;
constexpr std::uint64_t kIndexKeys = 4'000'000;
constexpr std::uint64_t kSwapResident = std::uint64_t{24} << 20;
constexpr std::uint64_t kInsertEvery = 20;
constexpr std::uint64_t kRegionOps = 20'000;
constexpr std::uint64_t kRegionWarmup = 20'000;
constexpr std::uint64_t kSwapOps = 20'000;
constexpr std::uint64_t kSwapWarmup = 20'000;
constexpr sim::Time kRegionSlice = sim::us(6'000);
constexpr sim::Time kSwapSlice = sim::us(60'000);
// The warm-up searches draw from their own stream, derived from the seed.
constexpr std::uint64_t kWarmupStream = 0x5741524d55500000ULL;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-side spans (name, start, end, parent), kept in memory and written
/// out when the run ends. Phase spans are always taken — setup_s and run_s
/// are read from them; per-op spans only when tracing.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  int open(const char* name, int parent) {
    spans_.push_back({name, Clock::now(), {}, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           int parent) {
    spans_.push_back({name, start, end, parent});
  }

  Clock::time_point start(int id) const {
    return spans_[static_cast<std::size_t>(id)].start;
  }
  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return seconds_between(s.start, s.end);
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_[0].start;
    auto us = [t0](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[192];
      std::snprintf(line, sizeof(line),
                    "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"parent\":%d}%s\n",
                    i, s.name, us(s.start), us(s.end), s.parent,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
  };
  std::vector<Span> spans_;
};

/// Per-layer counters read through the public accessors; the measured
/// phase's figures are the difference of two snapshots.
struct Snapshot {
  std::uint64_t events = 0, frames_pooled = 0, frames_heap = 0;
  std::uint64_t accesses = 0;
  std::uint64_t fastpath = 0, slowpath = 0, mshr_merges = 0;
  std::uint64_t tlb_hits = 0, tlb_misses = 0, tlb_probes = 0;
  std::uint64_t denials = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_writebacks = 0;
  std::uint64_t rmc_requests = 0, rmc_turnarounds = 0, rmc_timeouts = 0;
  std::uint64_t packets = 0, link_retries = 0;
  std::vector<sim::Time> link_busy;
  std::uint64_t major_faults = 0, evictions = 0, dirty_writebacks = 0;
  sim::Histogram mc_latency, rmc_round_trip, rmc_port_wait, traversal,
      queue_wait;
};

Snapshot snapshot(const sim::Engine& engine, core::Cluster& cluster,
                  core::MemorySpace& space) {
  Snapshot s;
  s.events = engine.events_processed();
  s.frames_pooled = sim::FramePool::frames_pooled();
  s.frames_heap = sim::FramePool::frames_heap();
  s.accesses = space.timed_reads() + space.timed_writes();
  node::Node& home = space.home_node();
  s.fastpath = home.fastpath_hits();
  s.slowpath = home.slowpath_accesses();
  s.mshr_merges = home.mshr_merges();
  s.tlb_hits = space.tlb().hits();
  s.tlb_misses = space.tlb().misses();
  s.tlb_probes = space.tlb().flat_probes();
  s.denials = cluster.reservation().denials();
  for (int c = 0; c < home.num_cores(); ++c) {
    const mem::Cache& cache = home.core(c).cache();
    s.cache_hits += cache.hits();
    s.cache_misses += cache.misses();
    s.cache_writebacks += cache.writebacks();
  }
  for (ht::NodeId id = 1; id <= cluster.num_nodes(); ++id) {
    node::Node& n = cluster.node(id);
    for (int sock = 0; sock < n.params().sockets; ++sock) {
      s.mc_latency.merge(n.mc(sock).latency().histogram());
    }
    const rmc::Rmc& r = cluster.rmc(id);
    s.rmc_requests += r.client_requests();
    s.rmc_turnarounds += r.turnarounds();
    s.rmc_timeouts += r.request_timeouts();
    s.rmc_round_trip.merge(r.round_trip().histogram());
    s.rmc_port_wait.merge(r.port_wait().histogram());
  }
  s.packets = cluster.fabric().packets_delivered();
  s.traversal.merge(cluster.fabric().traversal_latency().histogram());
  cluster.fabric().for_each_link(
      [&s](ht::NodeId, ht::NodeId, int, const ht::Link& link) {
        s.link_busy.push_back(link.busy_time());
        s.link_retries += link.retries();
        s.queue_wait.merge(link.queue_wait().histogram());
      });
  if (const swap::SwapManager* sw = space.swapper()) {
    s.major_faults = sw->major_faults();
    s.evictions = sw->evictions();
    s.dirty_writebacks = sw->dirty_writebacks();
  }
  return s;
}

/// Quantile of the samples recorded between two snapshots of one histogram,
/// with sim::Histogram's own interpolation.
double delta_quantile(const sim::Histogram& after, const sim::Histogram& before,
                      double q) {
  sim::Histogram delta;
  for (int b = 0; b < sim::Histogram::kBuckets; ++b) {
    const std::uint64_t n = after.bucket_count(b) - before.bucket_count(b);
    for (std::uint64_t i = 0; i < n; ++i) delta.add(sim::Histogram::bucket_lo(b));
  }
  return delta.quantile(q);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

template <typename T>
T nearest_rank(std::vector<T> v, double q) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

/// FNV-1a over the simulated statistics: the model-identity digest.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t model_digest(const core::Cluster& cluster,
                           core::MemorySpace& space, sim::Time elapsed) {
  sim::StatRegistry reg;
  cluster.export_stats(reg);
  std::ostringstream dump;
  reg.dump_json(dump);
  dump << "\nelapsed_ps=" << elapsed << " reads=" << space.timed_reads()
       << " writes=" << space.timed_writes();
  if (const swap::SwapManager* sw = space.swapper()) {
    dump << " faults=" << sw->faults() << " evictions=" << sw->evictions()
         << " dirty_writebacks=" << sw->dirty_writebacks();
  }
  return fnv1a(dump.str());
}

struct IndexOp {
  std::uint64_t key;
  bool insert;
};

std::vector<IndexOp> index_ops(std::uint64_t seed, std::uint64_t n,
                               bool with_inserts) {
  sim::Rng rng(seed);
  std::vector<IndexOp> ops;
  ops.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool insert = with_inserts && i % kInsertEvery == kInsertEvery - 1;
    ops.push_back({insert ? 2 * rng.below(kIndexKeys) : rng.below(2 * kIndexKeys),
                   insert});
  }
  return ops;
}

/// What the measured phase of an index workload observed.
struct OpLog {
  std::uint64_t failed = 0;
  std::vector<sim::Time> search_ps, insert_ps;
  std::vector<double> search_host_us, insert_host_us;
  std::unordered_set<std::uint64_t> inserted;
};

/// The single index thread: issues each op after the previous one returns
/// and checks every search against the host-side oracle (the bulk-built odd
/// keys plus the keys inserted so far).
sim::Task<void> index_thread(sim::Engine& engine, workloads::BTree& tree,
                             const std::vector<IndexOp>& ops, OpLog& log,
                             SpanLog* spans, int parent) {
  core::ThreadCtx t;
  for (const IndexOp& op : ops) {
    const sim::Time begin = engine.now();
    const Clock::time_point host_begin =
        spans != nullptr ? Clock::now() : Clock::time_point{};
    if (op.insert) {
      co_await tree.insert(t, op.key);
      log.inserted.insert(op.key);
    } else {
      const bool found = co_await tree.search(t, op.key);
      const bool expected = (op.key % 2 == 1 && op.key < 2 * kIndexKeys) ||
                            log.inserted.count(op.key) != 0;
      if (found != expected) ++log.failed;
    }
    (op.insert ? log.insert_ps : log.search_ps).push_back(engine.now() - begin);
    if (spans != nullptr) {
      const Clock::time_point host_end = Clock::now();
      spans->add(op.insert ? "op.insert" : "op.search", host_begin, host_end,
                 parent);
      (op.insert ? log.insert_host_us : log.search_host_us)
          .push_back(std::chrono::duration<double, std::micro>(host_end -
                                                               host_begin)
                         .count());
    }
  }
}

sim::Task<void> warmup_thread(workloads::BTree& tree,
                              const std::vector<IndexOp>& ops) {
  core::ThreadCtx t;
  for (const IndexOp& op : ops) co_await tree.search(t, op.key);
}

/// After the run: the tree is structurally valid and holds exactly the
/// bulk-built keys plus every inserted key. Returns the number of inserted
/// keys missing (failed inserts); throws on any other divergence.
std::uint64_t verify_tree(const workloads::BTree& tree,
                          const std::unordered_set<std::uint64_t>& inserted) {
  tree.validate();
  const std::vector<std::uint64_t> keys = tree.collect_all();
  std::uint64_t missing = 0;
  for (std::uint64_t k : inserted) {
    if (!std::binary_search(keys.begin(), keys.end(), k)) ++missing;
  }
  std::uint64_t unexpected = 0;
  for (std::uint64_t k : keys) {
    const bool bulk = k % 2 == 1 && k < 2 * kIndexKeys;
    if (!bulk && inserted.count(k) == 0) ++unexpected;
  }
  if (unexpected != 0 ||
      keys.size() != kIndexKeys + inserted.size() - missing) {
    throw std::logic_error("index holds keys the oracle does not");
  }
  return missing;
}

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0, run_s = 0;
  double peak_rss_mb = 0;  // at the end of the measured phase
  std::uint64_t accesses = 0;
  std::vector<std::pair<double, std::uint64_t>> slices;  // host s, accesses
  sim::Time elapsed = 0;
  std::uint64_t digest = 0;
  std::map<std::string, double> layers;  // printed with trace=1 only
};

/// Per-layer metrics of the measured phase (deltas of two snapshots).
void layer_metrics(const Snapshot& a, const Snapshot& b, sim::Time elapsed,
                   double ops, std::size_t store_pages,
                   std::map<std::string, double>& m) {
  const double accesses = static_cast<double>(b.accesses - a.accesses);
  auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  m["sim.events_per_access"] = ratio(d(b.events, a.events), accesses);
  m["sim.frames_per_access"] =
      ratio(d(b.frames_pooled + b.frames_heap, a.frames_pooled + a.frames_heap),
            accesses);
  m["sim.frames_heap"] = d(b.frames_heap, a.frames_heap);
  const double fast = d(b.fastpath, a.fastpath);
  m["node.fastpath_share"] = ratio(fast, fast + d(b.slowpath, a.slowpath));
  m["node.mshr_merges"] = d(b.mshr_merges, a.mshr_merges);
  const double tlb_misses = d(b.tlb_misses, a.tlb_misses);
  m["os.tlb_miss_rate"] = ratio(tlb_misses, tlb_misses + d(b.tlb_hits, a.tlb_hits));
  m["os.tlb_probes_per_access"] = ratio(d(b.tlb_probes, a.tlb_probes), accesses);
  m["os.reservation_denials"] = d(b.denials, a.denials);
  const double hits = d(b.cache_hits, a.cache_hits);
  m["mem.cache_hit_rate"] = ratio(hits, hits + d(b.cache_misses, a.cache_misses));
  m["mem.cache_writebacks_per_op"] =
      ratio(d(b.cache_writebacks, a.cache_writebacks), ops);
  m["mem.mc_latency_p50_ns"] = delta_quantile(b.mc_latency, a.mc_latency, 0.5) / 1e3;
  m["mem.mc_latency_p99_ns"] = delta_quantile(b.mc_latency, a.mc_latency, 0.99) / 1e3;
  m["mem.store_pages"] = static_cast<double>(store_pages);
  m["rmc.requests_per_op"] = ratio(d(b.rmc_requests, a.rmc_requests), ops);
  m["rmc.round_trip_p50_ns"] =
      delta_quantile(b.rmc_round_trip, a.rmc_round_trip, 0.5) / 1e3;
  m["rmc.round_trip_p99_ns"] =
      delta_quantile(b.rmc_round_trip, a.rmc_round_trip, 0.99) / 1e3;
  m["rmc.port_wait_p99_ns"] =
      delta_quantile(b.rmc_port_wait, a.rmc_port_wait, 0.99) / 1e3;
  m["rmc.turnarounds_per_op"] = ratio(d(b.rmc_turnarounds, a.rmc_turnarounds), ops);
  m["rmc.request_timeouts"] = d(b.rmc_timeouts, a.rmc_timeouts);
  m["noc.packets_per_op"] = ratio(d(b.packets, a.packets), ops);
  m["noc.traversal_p99_ns"] = delta_quantile(b.traversal, a.traversal, 0.99) / 1e3;
  double busy_max = 0;
  for (std::size_t i = 0; i < b.link_busy.size(); ++i) {
    busy_max = std::max(busy_max, ratio(d(b.link_busy[i], a.link_busy[i]),
                                        static_cast<double>(elapsed)));
  }
  m["ht.link_busy_max"] = busy_max;
  m["ht.queue_wait_p99_ns"] = delta_quantile(b.queue_wait, a.queue_wait, 0.99) / 1e3;
  m["ht.retries"] = d(b.link_retries, a.link_retries);
  m["swap.major_faults_per_op"] = ratio(d(b.major_faults, a.major_faults), ops);
  m["swap.evictions_per_op"] = ratio(d(b.evictions, a.evictions), ops);
  m["swap.dirty_writebacks_per_op"] =
      ratio(d(b.dirty_writebacks, a.dirty_writebacks), ops);
}

/// Segment split of every transaction the flight recorder saw and, when
/// each op is one transaction, the op latency percentiles under `op`.
void segment_metrics(const sim::Tracer& tracer, const char* op,
                     std::map<std::string, double>& m) {
  sim::StatRegistry reg;
  tracer.export_txn_stats(reg, "txn.");
  const auto& samplers = reg.samplers();
  auto sum = [&samplers](const std::string& name) {
    const auto it = samplers.find(name);
    return it == samplers.end() ? 0.0 : it->second.sum();
  };
  const double total = sum("txn.total_ps");
  for (const char* seg : {"queue", "serialization", "link", "rmc", "memory",
                          "coherence", "swap", "other"}) {
    m[std::string("seg.") + seg + "_share"] =
        ratio(sum(std::string("txn.seg.") + seg + "_ps"), total);
  }
  const auto it = samplers.find("txn.total_ps");
  if (op != nullptr && it != samplers.end()) {
    m[std::string(op) + ".sim_p50_us"] = it->second.p50() / 1e6;
    m[std::string(op) + ".sim_p99_us"] = it->second.p99() / 1e6;
  }
}

struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::uint64_t ops = 0;  // 0: the workload's default
  std::string spans_path;
};

/// The phases every workload shares: timed set-up steps, the measured
/// phase (tracer attached when tracing, per-layer snapshots around it) and
/// the checks after it.
class Harness {
 public:
  explicit Harness(const Run& run) : run_(run) {
    root_ = spans_.open("run", SpanLog::kNoParent);
    if (run_.trace) tracer_.enable_flight_recorder(std::size_t{1} << 16);
  }

  sim::Engine& engine() { return engine_; }
  SpanLog& spans() { return spans_; }

  /// Runs `fn` inside a span named `name`; returns its host seconds.
  template <typename Fn>
  double phase(const char* name, Fn&& fn) {
    const int id = spans_.open(name, root_);
    if (setup_span_ < 0) setup_span_ = id;
    fn();
    spans_.close(id);
    return spans_.seconds(id);
  }

  /// The measured phase; `spawn(runner, span)` registers its threads. The
  /// engine runs it in slices of `slice` simulated time, and each slice's
  /// host seconds and accesses become one sample of the host cost. Stopping
  /// the engine between two events changes nothing the model sees.
  template <typename Spawn>
  void measure(core::Cluster& cluster, core::MemorySpace& space,
               sim::Time slice, Result& r, Spawn&& spawn) {
    before_ = snapshot(engine_, cluster, space);
    if (run_.trace) engine_.set_tracer(&tracer_);
    const int id = spans_.open("measure", root_);
    core::Runner runner(engine_);
    spawn(runner, id);
    const sim::Time start = engine_.now();
    Clock::time_point host = spans_.start(id);
    std::uint64_t accesses = before_.accesses;
    while (engine_.pending_events() != 0) {
      engine_.run_until(engine_.now() + slice);
      const Clock::time_point host_now = Clock::now();
      const std::uint64_t accesses_now = space.timed_reads() + space.timed_writes();
      r.slices.push_back({seconds_between(host, host_now), accesses_now - accesses});
      host = host_now;
      accesses = accesses_now;
    }
    r.elapsed = runner.last_completion() - start;
    runner.run_all();  // nothing left to run: throws if a thread never finished
    spans_.close(id);
    // The workload's peak: the checks after it hold host-side copies of
    // the data whose size varies with the op stream.
    r.peak_rss_mb = peak_rss_mb();
    engine_.set_tracer(nullptr);
    r.setup_s = seconds_between(spans_.start(setup_span_), spans_.start(id));
    r.run_s = spans_.seconds(id);
    after_ = snapshot(engine_, cluster, space);
    r.accesses = after_.accesses - before_.accesses;
  }

  /// `verify()` returns the failed ops; then the digest, and per-layer
  /// metrics plus the span file when tracing.
  template <typename Verify>
  void finish(core::Cluster& cluster, core::MemorySpace& space, Result& r,
              const char* txn_op, Verify&& verify) {
    const int id = spans_.open("verify", root_);
    r.failed = verify();
    if (const swap::SwapManager* sw = space.swapper()) {
      const std::string err = sw->validate();
      if (!err.empty()) throw std::logic_error("swap state: " + err);
    }
    r.digest = model_digest(cluster, space, r.elapsed);
    spans_.close(id);
    spans_.close(root_);
    if (!run_.trace) return;
    layer_metrics(before_, after_, r.elapsed, static_cast<double>(r.attempted),
                  cluster.store().pages_touched(), r.layers);
    segment_metrics(tracer_, txn_op, r.layers);
    if (!run_.spans_path.empty()) spans_.write(run_.spans_path);
  }

 private:
  const Run& run_;
  SpanLog spans_;
  int root_ = 0;
  int setup_span_ = -1;
  sim::Tracer tracer_;  // outlives the engine it is attached to
  sim::Engine engine_;
  Snapshot before_, after_;
};

// The machine every figure kernel builds: the paper's prototype.
core::ClusterConfig prototype() { return core::ClusterConfig::from(sim::Config{}); }

Result run_region_random(const Run& run) {
  Harness h(run);
  Result r;
  core::MemorySpace::Params mp;
  mp.mode = core::MemorySpace::Mode::kRemoteRegion;
  mp.placement = os::RegionManager::Placement::kRemoteOnly;
  mp.swap.resident_limit_bytes = 0;
  workloads::RandomAccess::Params rp;
  rp.buffer_bytes = kRandomBuffer / kRandomServers.size();
  rp.accesses_per_thread = (run.ops != 0 ? run.ops : kRandomReads) / kRandomThreads;
  rp.seed = run.seed;
  r.attempted = rp.accesses_per_thread * kRandomThreads;

  std::optional<core::Cluster> cluster;
  std::optional<core::MemorySpace> space;
  std::optional<workloads::RandomAccess> ra;
  r.layers["core.cluster_build_s"] = h.phase("core.cluster_build", [&] {
    cluster.emplace(h.engine(), prototype());
    space.emplace(*cluster, kRandomClient, mp);
    ra.emplace(*space, rp);
  });
  r.layers["core.data_build_s"] = h.phase("core.data_build", [&] {
    core::Runner setup(h.engine());
    setup.spawn(ra->setup(kRandomServers));
    setup.run_all();
  });
  r.layers["core.warmup_s"] = 0.0;  // caches start empty, as in Fig. 7
  h.measure(*cluster, *space, kRandomSlice, r, [&](core::Runner& runner, int) {
    for (int t = 0; t < kRandomThreads; ++t) runner.spawn(ra->thread_fn(t, t));
  });
  // Every read was compared with RandomAccess::pattern as it completed.
  h.finish(*cluster, *space, r, "op.read", [&] {
    return ra->errors() + (r.attempted - ra->total_reads());
  });
  return r;
}

Result run_index(const Run& run, bool swap) {
  Harness h(run);
  Result r;
  r.attempted = run.ops != 0 ? run.ops : (swap ? kSwapOps : kRegionOps);
  const std::vector<IndexOp> warm =
      index_ops(run.seed ^ kWarmupStream, swap ? kSwapWarmup : kRegionWarmup,
                /*with_inserts=*/false);
  const std::vector<IndexOp> ops = index_ops(run.seed, r.attempted, true);
  core::MemorySpace::Params mp;
  if (swap) {
    mp.mode = core::MemorySpace::Mode::kRemoteSwap;
    mp.swap.resident_limit_bytes = kSwapResident;
  } else {
    mp.mode = core::MemorySpace::Mode::kRemoteRegion;
    mp.placement = os::RegionManager::Placement::kRemoteOnly;
  }

  std::optional<core::Cluster> cluster;
  std::optional<core::MemorySpace> space;
  std::optional<core::RemoteAllocator> alloc;
  std::optional<workloads::BTree> tree;
  r.layers["core.cluster_build_s"] = h.phase("core.cluster_build", [&] {
    cluster.emplace(h.engine(), prototype());
    space.emplace(*cluster, kIndexHome, mp);
    alloc.emplace(*space);
    tree.emplace(*space, *alloc, kFanout);
  });
  const auto odd_key = [](std::uint64_t i) { return 2 * i + 1; };
  r.layers["core.data_build_s"] = h.phase("core.data_build", [&] {
    core::Runner build(h.engine());
    build.spawn(tree->bulk_build(kIndexKeys, odd_key));
    build.run_all();
  });
  r.layers["core.warmup_s"] = h.phase("core.warmup", [&] {
    core::Runner warmup(h.engine());
    warmup.spawn(warmup_thread(*tree, warm));
    warmup.run_all();
  });

  OpLog log;
  h.measure(*cluster, *space, swap ? kSwapSlice : kRegionSlice, r,
            [&](core::Runner& runner, int span) {
    runner.spawn(index_thread(h.engine(), *tree, ops, log,
                              run.trace ? &h.spans() : nullptr, span));
  });
  h.finish(*cluster, *space, r, nullptr, [&] {
    return log.failed + verify_tree(*tree, log.inserted);
  });
  r.layers["op.search.sim_p50_us"] = sim::to_us(nearest_rank(log.search_ps, 0.5));
  r.layers["op.search.sim_p99_us"] = sim::to_us(nearest_rank(log.search_ps, 0.99));
  r.layers["op.insert.sim_p50_us"] = sim::to_us(nearest_rank(log.insert_ps, 0.5));
  r.layers["op.insert.sim_p99_us"] = sim::to_us(nearest_rank(log.insert_ps, 0.99));
  r.layers["op.search.host_p50_us"] = nearest_rank(log.search_host_us, 0.5);
  r.layers["op.search.host_p99_us"] = nearest_rank(log.search_host_us, 0.99);
  r.layers["op.insert.host_p50_us"] = nearest_rank(log.insert_host_us, 0.5);
  r.layers["op.insert.host_p99_us"] = nearest_rank(log.insert_host_us, 0.99);
  return r;
}

// Metrics a workload cannot exercise still print, as 0.
const char* const kOpMetrics[] = {
    "op.read.sim_p50_us",    "op.read.sim_p99_us",    "op.search.sim_p50_us",
    "op.search.sim_p99_us",  "op.insert.sim_p50_us",  "op.insert.sim_p99_us",
    "op.search.host_p50_us", "op.search.host_p99_us", "op.insert.host_p50_us",
    "op.insert.host_p99_us"};
// Host-time per-layer metrics; every other one is a deterministic count or
// simulated figure, identical across runs with the same seed.
const char* const kHostLayers[] = {
    "core.cluster_build_s",  "core.data_build_s",     "core.warmup_s",
    "op.search.host_p50_us", "op.search.host_p99_us", "op.insert.host_p50_us",
    "op.insert.host_p99_us"};

void print_layers(const char* key, const std::map<std::string, double>& m) {
  std::printf(",\"%s\":{", key);
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.17g", sep, name.c_str(), value);
    sep = ",";
  }
  std::printf("}");
}

void print_json(const Run& run, const Result& r) {
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"attempted\":%llu,"
      "\"failed\":%llu,\"setup_s\":%.9g,\"run_s\":%.9g,\"accesses\":%llu,"
      "\"sim_elapsed_ps\":%llu,\"sim_ms\":%.17g,\"sim_us_per_op\":%.17g,"
      "\"peak_rss_mb\":%.6f,\"digest\":\"%016llx\"",
      run.workload.c_str(), static_cast<unsigned long long>(run.seed),
      run.trace ? 1 : 0, static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), r.setup_s, r.run_s,
      static_cast<unsigned long long>(r.accesses),
      static_cast<unsigned long long>(r.elapsed), sim::to_ms(r.elapsed),
      sim::to_us(r.elapsed) / static_cast<double>(r.attempted), r.peak_rss_mb,
      static_cast<unsigned long long>(r.digest));
  std::printf(",\"slices\":[");
  for (std::size_t i = 0; i < r.slices.size(); ++i) {
    std::printf("%s[%.9g,%llu]", i == 0 ? "" : ",", r.slices[i].first,
                static_cast<unsigned long long>(r.slices[i].second));
  }
  std::printf("]");
  if (run.trace) {
    std::map<std::string, double> sim_layers = r.layers;
    for (const char* name : kOpMetrics) sim_layers.emplace(name, 0.0);
    std::map<std::string, double> host_layers;
    for (const char* name : kHostLayers) {
      host_layers[name] = sim_layers[name];
      sim_layers.erase(name);
    }
    print_layers("sim_layers", sim_layers);
    print_layers("host_layers", host_layers);
  }
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const sim::Config cfg = sim::Config::from_args(argc, argv);
    Run run;
    run.workload = cfg.get_str("workload", "");
    run.seed = cfg.get_u64("seed", 1);
    run.trace = cfg.get_bool("trace", false);
    run.ops = cfg.get_u64("ops", 0);
    run.spans_path = cfg.get_str("spans", "");
    Result r;
    if (run.workload == "region_random") {
      r = run_region_random(run);
    } else if (run.workload == "index_region") {
      r = run_index(run, /*swap=*/false);
    } else if (run.workload == "index_swap") {
      r = run_index(run, /*swap=*/true);
    } else {
      std::fprintf(stderr,
                   "memscale_bench: workload must be region_random, "
                   "index_region or index_swap\n");
      return 2;
    }
    print_json(run, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "memscale_bench: %s\n", e.what());
    return 1;
  }
}
