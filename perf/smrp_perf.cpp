// smrp_perf: the measurement binary behind perf/run.py.
//
// One invocation runs one workload for a wall-clock budget and prints a
// single JSON object as its last stdout line: the workload's metrics (name,
// value, unit), a correctness digest, and the attempted / failed operation
// counts. perf/run.py builds this binary, picks the metrics BENCHMARK.json
// names, and checks the digest; perf/README.md describes the workloads.
//
//   smrp_perf --workload smrp_join --seed 1 --seconds 10 --trace 0
//             [--size full|tiny] [--workers K] [--trace-out spans.tsv]
//
// Every input (session sizes, members, churn, failures, fault plans) is
// generated here from --seed; the program under test only sees the
// generated calls. Only public layer entry points are timed:
// SmrpTreeBuilder / SpfTreeBuilder join and leave, proto::select_join_path,
// proto::repair_session, RoutingOracle::spf, the topology generators,
// SimulationHarness, Simulator::run_until and the SimNetwork handler demux.
//
// A workload repeats rounds until --seconds have elapsed; round r draws its
// inputs from stream r of the seed. Every round validates every final tree
// and folds the outcome into a digest. The first round's digest depends on
// the seed alone; perf/run.py compares it with the recorded one, so a run
// that selects or repairs differently fails instead of reporting a number.
//
// With --trace 1 the same work runs under an in-memory span tracer (name,
// start, end, parent, op id), spans are written to --trace-out when the run
// ends, and per-layer metrics are derived from the span self times.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <variant>
#include <vector>

#include "multicast/tree.hpp"
#include "net/graph.hpp"
#include "net/rng.hpp"
#include "net/routing_oracle.hpp"
#include "net/transit_stub.hpp"
#include "net/waxman.hpp"
#include "obs/telemetry.hpp"
#include "sim/fault_injection.hpp"
#include "smrp/harness.hpp"
#include "smrp/path_selection.hpp"
#include "smrp/recovery.hpp"
#include "smrp/tree_builder.hpp"
#include "spf/spf_tree_builder.hpp"

namespace {

using namespace smrp;
using Clock = std::chrono::steady_clock;
using net::NodeId;

/// Topologies of the session workloads are fixed (the benchmark's shape,
/// not an input): --seed varies the sessions, churn and failures on them.
constexpr std::uint64_t kTopologySeed = 0x5312b0a7d5ULL;

double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Independent stream `stream` of run seed `seed` (SplitMix64 finalizer).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0xd1b54a32d192ed03ULL * (stream + 1));
  return net::splitmix64(state);
}

/// A /proc/self/status field (VmHWM, VmRSS) in KiB. Throws when it cannot
/// be read: a memory metric is measured or the run fails, never 0.
double status_kib(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ':') {
      const double kib = std::strtod(line.c_str() + key.size() + 1, nullptr);
      if (kib > 0.0) return kib;
      break;
    }
  }
  throw std::runtime_error("/proc/self/status reports no " + key);
}

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Run fn(0) … fn(workers - 1), each on its own thread (fn(0) on the caller),
/// and rethrow the first exception any of them raised once all have ended.
template <class Fn>
void run_parallel(int workers, Fn&& fn) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  auto guarded = [&](int w) {
    try {
      fn(w);
    } catch (...) {
      errors[static_cast<std::size_t>(w)] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(guarded, w);
  guarded(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Run fn(item, worker) for every item of `order`, dealt in that order to
/// `workers` threads as each becomes free.
template <class Fn>
void parallel_for(int workers, const std::vector<std::size_t>& order, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  run_parallel(workers, [&](int w) {
    for (std::size_t k = next++; k < order.size(); k = next++) fn(order[k], w);
  });
}

/// Fixed-point micro-units: summing these instead of doubles keeps a digest
/// stable when a change reorders a floating-point sum.
std::int64_t micros(double x) { return std::llround(x * 1e6); }

// ---- Correctness digest ----------------------------------------------------

class Digest {
 public:
  void add(const std::string& name, std::int64_t value) {
    fields_.emplace_back(name, value);
  }

  /// FNV-1a over "name=value;" in insertion order.
  [[nodiscard]] std::string hex() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [name, value] : fields_) {
      const std::string text = name + "=" + std::to_string(value) + ";";
      for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
      }
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }

  [[nodiscard]] const std::vector<std::pair<std::string, std::int64_t>>&
  fields() const noexcept {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, std::int64_t>> fields_;
};

/// Order-sensitive hash of a value sequence, folded into one digest field.
class SequenceHash {
 public:
  void add(std::int64_t v) {
    state_ ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL +
              (state_ << 6) + (state_ >> 2);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return static_cast<std::int64_t>(state_ >> 1);
  }

 private:
  std::uint64_t state_ = 0;
};

// ---- Span tracer -------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest on a stack; each
/// close charges its duration to the enclosing span's children, so every
/// name accumulates exact self time even after the stored-span cap is hit.
/// Single-threaded: the traced runs drive every layer from one thread.
class Tracer {
 public:
  struct Span {
    int name = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint64_t op = 0;      ///< workload operation the span belongs to
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Tracer(std::size_t max_spans) : max_spans_(max_spans) {}

  [[nodiscard]] int id(std::string_view name) {
    const auto it = ids_.find(std::string(name));
    if (it != ids_.end()) return it->second;
    const int id = static_cast<int>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(std::string(name), id);
    totals_.emplace_back();
    return id;
  }

  void open(int name, std::uint64_t op) {
    const std::int64_t now = now_ns();
    std::int64_t index = -1;
    if (spans_.size() < max_spans_) {
      index = static_cast<std::int64_t>(spans_.size());
      spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back().index,
                            op, now, now});
    }
    stack_.push_back(Open{name, index, now, 0});
  }

  /// Close the innermost span.
  void close() {
    const std::int64_t now = now_ns();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = now - open.start_ns;
    Total& total = totals_[static_cast<std::size_t>(open.name)];
    total.total_ns += duration;
    total.self_ns += duration - open.child_ns;
    ++total.calls;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (open.index >= 0) spans_[static_cast<std::size_t>(open.index)].end_ns = now;
  }

  [[nodiscard]] double total_ms(std::string_view name) const {
    const auto it = ids_.find(std::string(name));
    return it == ids_.end()
               ? 0.0
               : static_cast<double>(
                     totals_[static_cast<std::size_t>(it->second)].total_ns) /
                     1e6;
  }
  [[nodiscard]] std::uint64_t calls(std::string_view name) const {
    const auto it = ids_.find(std::string(name));
    return it == ids_.end() ? 0
                            : totals_[static_cast<std::size_t>(it->second)].calls;
  }
  [[nodiscard]] double self_ms(std::string_view name) const {
    const auto it = ids_.find(std::string(name));
    return it == ids_.end()
               ? 0.0
               : static_cast<double>(
                     totals_[static_cast<std::size_t>(it->second)].self_ns) /
                     1e6;
  }

  /// Self time per layer, the span-name prefix before the first '.'.
  [[nodiscard]] std::vector<std::pair<std::string, double>> layer_self_ms()
      const {
    std::vector<std::pair<std::string, double>> layers;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      const std::string layer = names_[i].substr(0, names_[i].find('.'));
      auto it = std::find_if(layers.begin(), layers.end(),
                             [&](const auto& l) { return l.first == layer; });
      if (it == layers.end()) {
        layers.emplace_back(layer, 0.0);
        it = layers.end() - 1;
      }
      it->second += static_cast<double>(totals_[i].self_ns) / 1e6;
    }
    return layers;
  }

  [[nodiscard]] std::size_t stored() const noexcept { return spans_.size(); }

  /// Write the stored spans as TSV: id, parent, op, name, start_ns, end_ns.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "id\tparent\top\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.op << '\t'
          << names_[static_cast<std::size_t>(s.name)] << '\t' << s.start_ns
          << '\t' << s.end_ns << '\n';
    }
    if (!out) throw std::runtime_error("failed writing trace file " + path);
  }

 private:
  struct Open {
    int name;
    std::int64_t index;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Total {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t calls = 0;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  std::size_t max_spans_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
  std::vector<Total> totals_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

/// Span-name id, or 0 when not tracing.
int span_id(Tracer* tracer, std::string_view name) {
  return tracer != nullptr ? tracer->id(name) : 0;
}

/// Run `fn`, inside a span when tracing (closed on exceptions too).
template <class Fn>
decltype(auto) traced(Tracer* tracer, int name, std::uint64_t op, Fn&& fn) {
  if (tracer == nullptr) return fn();
  tracer->open(name, op);
  struct Closer {
    Tracer* tracer;
    ~Closer() { tracer->close(); }
  } closer{tracer};
  return fn();
}

// ---- Options, sizes, report ---------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  int workers = 1;     ///< threads for set-up and for the workload's ops
  int op_workers = 0;  ///< threads for the ops when not `workers`
  std::string trace_out;
};

struct SessionLoad {
  net::TransitStubParams topo;
  int sessions = 0;
  int min_size = 2;
  int max_size = 64;
  double zipf_exponent = 1.0;
  double churn = 0.0;  ///< Poisson mean of churn events per session
  int source_pool = 8;
};

struct ChaosLoad {
  int nodes = 50;
  int members = 10;
  int trials = 32;  ///< trials per round
  sim::FaultPlan::RandomParams faults;
};

net::TransitStubParams transit_stub(int transit, int stubs_per, int stub) {
  net::TransitStubParams p;
  p.transit_nodes = transit;
  p.stubs_per_transit = stubs_per;
  p.stub_size = stub;
  return p;
}

SessionLoad smrp_load(bool tiny) {
  SessionLoad load;
  load.topo = tiny ? transit_stub(8, 3, 4) : transit_stub(40, 8, 31);
  load.sessions = tiny ? 12 : 150;
  load.min_size = 2;
  load.max_size = tiny ? 16 : 96;
  load.churn = 4.0;
  load.source_pool = tiny ? 4 : 32;
  return load;
}

SessionLoad spf_load(bool tiny) {
  SessionLoad load;
  load.topo = tiny ? transit_stub(16, 5, 12) : transit_stub(100, 9, 111);
  load.sessions = tiny ? 60 : 1000;
  load.min_size = tiny ? 2 : 4;
  load.max_size = tiny ? 64 : 2000;
  load.churn = 2.0;
  load.source_pool = tiny ? 8 : 64;
  return load;
}

ChaosLoad chaos_load(bool tiny) {
  ChaosLoad load;
  load.nodes = tiny ? 20 : 50;
  load.members = tiny ? 5 : 10;
  load.trials = tiny ? 2 : 64;
  load.faults.link_flaps = tiny ? 3 : 8;
  load.faults.node_restarts = 1;
  load.faults.loss_bursts = 1;
  load.faults.start = 2'000.0;
  load.faults.window = tiny ? 3'000.0 : 8'000.0;
  load.faults.protected_nodes = {0};
  return load;
}

struct Report {
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  Digest digest;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int rounds = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    metrics.emplace_back(name, value, unit);
  }

  [[nodiscard]] std::string json(const Options& opt) const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"size\": \"" << (opt.tiny ? "tiny" : "full")
        << "\", \"trace\": " << (opt.trace ? 1 : 0)
        << ", \"workers\": " << opt.workers << ", \"rounds\": " << rounds
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"digest\": \"" << digest.hex() << "\", \"digest_fields\": {";
    const char* sep = "";
    for (const auto& [name, value] : digest.fields()) {
      out << sep << "\"" << name << "\": " << value;
      sep = ", ";
    }
    out << "}, \"metrics\": {";
    sep = "";
    for (const auto& [name, value, unit] : metrics) {
      out << sep << "\"" << name << "\": {\"value\": " << value
          << ", \"unit\": \"" << unit << "\"}";
      sep = ", ";
    }
    out << "}}";
    return out.str();
  }
};

/// Round r draws its inputs from stream r of the run seed, so a run covers
/// as many distinct inputs as its time allows. The first round's digest is
/// the run's: it depends on the seed alone, whatever the machine's speed.
std::uint64_t round_seed(const Options& opt, const Report& report) {
  return stream_seed(opt.seed, static_cast<std::uint64_t>(report.rounds));
}

void record_round(Report& report, const Digest& round) {
  if (report.rounds == 0) report.digest = round;
  ++report.rounds;
}

/// The end-to-end metrics taken per round: throughput, per-op latency
/// percentiles and peak RSS. A run reports their medians over its rounds,
/// so a burst of outside load that slows one round, or one unusually large
/// round, does not move the result. The first round warms caches and the
/// allocator: it is left out of the medians whenever a later round exists.
/// Peak RSS is the first round's alone: later rounds start from a heap that
/// earlier rounds fragmented, so their peaks grow with the run's length.
class RoundMetrics {
 public:
  /// A round starts: its peak RSS is counted from the current RSS on, so
  /// the set-up and earlier rounds do not set it.
  void start() {
    // Where the kernel refuses the reset, VmHWM stays the peak of the run
    // so far: still a measured figure.
    std::ofstream("/proc/self/clear_refs") << "5";
  }

  /// The round ends: `ops` done in `seconds`, with the latencies from index
  /// `first` of `us` on.
  void end(double ops, double seconds, const std::vector<double>& us,
           std::size_t first) {
    const std::vector<double> round(
        us.begin() + static_cast<std::ptrdiff_t>(first), us.end());
    ops_per_s_.push_back(ratio(ops, seconds));
    p50_.push_back(quantile(round, 0.50));
    p90_.push_back(quantile(round, 0.90));
    p99_.push_back(quantile(round, 0.99));
    peak_mb_.push_back(status_kib("VmHWM") / 1024.0);
    samples_ += round.size();
  }

  void report(Report& r) const {
    auto warm_median = [](const std::vector<double>& v) {
      return median(v.size() > 1 ? std::vector<double>(v.begin() + 1, v.end())
                                 : v);
    };
    r.metric("ops_per_s", warm_median(ops_per_s_), "1/s");
    r.metric("op_p50_us", warm_median(p50_), "us");
    r.metric("op_p90_us", warm_median(p90_), "us");
    r.metric("op_p99_us", warm_median(p99_), "us");
    r.metric("op_samples", static_cast<double>(samples_), "count");
    r.metric("peak_rss_mb", peak_mb_.front(), "MiB");
  }

 private:
  std::vector<double> ops_per_s_, p50_, p90_, p99_, peak_mb_;
  std::size_t samples_ = 0;
};

// ---- Session workloads: world and input generation ------------------------------

/// One transit-stub topology plus the shared oracle warmed on every source.
struct World {
  net::TransitStubTopology topo;
  std::unique_ptr<net::RoutingOracle> oracle;
  std::vector<NodeId> pool;  ///< session sources: the first transit routers
  double topology_s = 0.0;
  double warm_s = 0.0;
};

std::unique_ptr<World> build_world(const SessionLoad& load, int workers,
                                   Tracer* tracer) {
  auto world = std::make_unique<World>();
  net::Rng rng(kTopologySeed);
  const auto t0 = Clock::now();
  traced(tracer, span_id(tracer, "net.topology_gen"), 0, [&] {
    world->topo = net::generate_transit_stub(load.topo, rng);
  });
  const auto t1 = Clock::now();
  const auto& transit = world->topo.nodes_of_domain[net::kTransitDomain];
  const auto pool_size = std::min<std::size_t>(
      static_cast<std::size_t>(load.source_pool), transit.size());
  world->pool.assign(transit.begin(),
                     transit.begin() + static_cast<std::ptrdiff_t>(pool_size));
  world->oracle = std::make_unique<net::RoutingOracle>(world->topo.graph);
  // Sources are dealt as workers become free, so one preempted worker takes
  // fewer of them instead of holding up the whole warm-up.
  std::vector<std::size_t> order(world->pool.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  traced(tracer, span_id(tracer, "net.oracle_warm"), 0, [&] {
    parallel_for(workers, order, [&](std::size_t k, int) {
      static_cast<void>(world->oracle->spf(world->pool[k]));
    });
  });
  const auto t2 = Clock::now();
  world->topology_s = elapsed_s(t0, t1);
  world->warm_s = elapsed_s(t1, t2);
  return world;
}

/// Set the world up `reps` times (the set-up metric is their median) and
/// keep the last one. Discarded worlds are returned to the OS so the memory
/// figures that follow start from the kept world alone.
std::unique_ptr<World> setup_world(const SessionLoad& load, int workers,
                                   int reps, Tracer* tracer, Report& report) {
  std::vector<double> setup, topology, warm;
  std::unique_ptr<World> world;
  for (int i = 0; i < reps; ++i) {
    world.reset();
    malloc_trim(0);
    world = build_world(load, workers, tracer);
    setup.push_back(world->topology_s + world->warm_s);
    topology.push_back(world->topology_s);
    warm.push_back(world->warm_s);
  }
  malloc_trim(0);
  report.metric("setup_s", median(setup), "s");
  report.metric("net.topology_gen_s", median(topology), "s");
  report.metric("net.oracle.warm_s", median(warm), "s");
  return world;
}

/// One session's generated input: its source and its membership calls.
struct SessionPlan {
  NodeId source = net::kNoNode;
  struct Op {
    bool join = true;
    NodeId node = net::kNoNode;
  };
  std::vector<Op> ops;
};

/// Zipf session sizes, random distinct members, then Poisson join/leave
/// churn — session i drawn from its own stream of `seed`. Membership is
/// tracked assuming every join succeeds; a join that fails is counted as a
/// failed operation when the plan runs.
std::vector<SessionPlan> make_plans(const SessionLoad& load,
                                    const World& world, std::uint64_t seed) {
  const NodeId nodes = world.topo.graph.node_count();
  std::vector<double> cdf;
  double total = 0.0;
  for (int k = 0; k <= load.max_size - load.min_size; ++k) {
    total += std::pow(static_cast<double>(k + 1), -load.zipf_exponent);
    cdf.push_back(total);
  }
  // Stratified Zipf: the size multiset is the same for every seed (one size
  // per quantile stratum), dealt to sessions in a seeded order. Cost per
  // join depends strongly on session size, so this keeps the work mix, and
  // with it the figures, comparable across seeds.
  std::vector<int> sizes;
  for (int i = 0; i < load.sessions; ++i) {
    const double target = (i + 0.5) / load.sessions * total;
    sizes.push_back(load.min_size +
                    static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(),
                                                      target) -
                                     cdf.begin()));
  }
  net::Rng deal(stream_seed(seed, ~0ULL));
  for (std::size_t i = sizes.size(); i > 1; --i) {
    std::swap(sizes[i - 1], sizes[deal.below(i)]);
  }
  std::vector<SessionPlan> plans(static_cast<std::size_t>(load.sessions));
  for (int i = 0; i < load.sessions; ++i) {
    SessionPlan& plan = plans[static_cast<std::size_t>(i)];
    net::Rng rng(stream_seed(seed, static_cast<std::uint64_t>(i)));
    plan.source = world.pool[static_cast<std::size_t>(i) % world.pool.size()];
    const int size = sizes[static_cast<std::size_t>(i)];
    std::vector<char> is_member(static_cast<std::size_t>(nodes), 0);
    std::vector<NodeId> members;
    auto draw_join = [&] {
      const auto node = static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(nodes)));
      if (node == plan.source || is_member[static_cast<std::size_t>(node)]) {
        return false;
      }
      is_member[static_cast<std::size_t>(node)] = 1;
      members.push_back(node);
      plan.ops.push_back({true, node});
      return true;
    };
    for (int attempt = 0; static_cast<int>(members.size()) < size &&
                          attempt < 4 * size + 16;
         ++attempt) {
      static_cast<void>(draw_join());
    }
    // Poisson(churn) events via Knuth's product method.
    int events = 0;
    for (double p = rng.uniform(); p > std::exp(-load.churn);
         p *= rng.uniform()) {
      ++events;
    }
    for (int e = 0; e < events; ++e) {
      if (members.empty() || rng.uniform() < 0.5) {
        static_cast<void>(draw_join());
      } else {
        const auto at = static_cast<std::ptrdiff_t>(rng.below(members.size()));
        const NodeId node = members[static_cast<std::size_t>(at)];
        members.erase(members.begin() + at);
        is_member[static_cast<std::size_t>(node)] = 0;
        plan.ops.push_back({false, node});
      }
    }
  }
  return plans;
}

/// Validate a final tree and fold it into the round digest totals.
struct TreeTotals {
  std::int64_t members = 0;
  std::int64_t links = 0;
  std::int64_t cost_micros = 0;
  std::int64_t on_tree = 0;

  void add(const mcast::MulticastTree& tree) {
    tree.validate();
    members += tree.member_count();
    links += static_cast<std::int64_t>(tree.tree_links().size());
    cost_micros += micros(tree.total_cost());
    on_tree += tree.on_tree_count();
  }
  void add_to(Digest& d) const {
    d.add("members", members);
    d.add("tree_links", links);
    d.add("tree_cost_micros", cost_micros);
  }
};

struct SmrpCounters {
  std::int64_t join_calls = 0;
  std::int64_t joins = 0;
  std::int64_t failed = 0;
  std::int64_t leaves = 0;
  std::int64_t fallbacks = 0;
  std::int64_t reshapes = 0;
  std::int64_t candidates = 0;
  double select_s = 0.0;  ///< traced runs' extra select_join_path calls

  SmrpCounters& operator+=(const SmrpCounters& o) {
    join_calls += o.join_calls;
    joins += o.joins;
    failed += o.failed;
    leaves += o.leaves;
    fallbacks += o.fallbacks;
    reshapes += o.reshapes;
    candidates += o.candidates;
    select_s += o.select_s;
    return *this;
  }
};

/// Per-call latencies of the SMRP join workload, in µs.
struct JoinSamples {
  std::vector<double> join, select, join_rest, leave;

  void append(const JoinSamples& o) {
    join.insert(join.end(), o.join.begin(), o.join.end());
    select.insert(select.end(), o.select.begin(), o.select.end());
    join_rest.insert(join_rest.end(), o.join_rest.begin(), o.join_rest.end());
    leave.insert(leave.end(), o.leave.begin(), o.leave.end());
  }
};

/// Run one session's plan on an SMRP engine, timing every join and leave
/// call. Traced runs also time select_join_path on the same tree and oracle
/// just before each join.
std::unique_ptr<proto::SmrpTreeBuilder> run_smrp_session(
    const World& world, const SessionPlan& plan, std::uint64_t& op,
    SmrpCounters& c, JoinSamples& us, Tracer* tracer) {
  const int session_new = span_id(tracer, "smrp.session_new");
  const int select = span_id(tracer, "smrp.select");
  const int join = span_id(tracer, "smrp.join");
  const int leave = span_id(tracer, "smrp.leave");
  auto builder = traced(tracer, session_new, op, [&] {
    return std::make_unique<proto::SmrpTreeBuilder>(
        world.topo.graph, plan.source, proto::SmrpConfig{},
        world.oracle.get());
  });
  for (const SessionPlan::Op& step : plan.ops) {
    ++op;
    if (!step.join) {
      if (!builder->tree().is_member(step.node)) continue;
      const auto t0 = Clock::now();
      traced(tracer, leave, op, [&] { builder->leave(step.node); });
      us.leave.push_back(elapsed_us(t0, Clock::now()));
      ++c.leaves;
      continue;
    }
    if (tracer != nullptr) {
      const auto s0 = Clock::now();
      const auto selection = traced(tracer, select, op, [&] {
        return proto::select_join_path(
            world.topo.graph, builder->tree(), step.node,
            builder->spf_delay(step.node), builder->config(),
            &builder->oracle());
      });
      const auto s1 = Clock::now();
      us.select.push_back(elapsed_us(s0, s1));
      c.select_s += elapsed_s(s0, s1);
      if (selection) c.candidates += selection->candidate_count;
    }
    const auto t0 = Clock::now();
    const proto::JoinOutcome out =
        traced(tracer, join, op, [&] { return builder->join(step.node); });
    us.join.push_back(elapsed_us(t0, Clock::now()));
    if (tracer != nullptr) {
      us.join_rest.push_back(us.join.back() - us.select.back());
    }
    ++c.join_calls;
    if (out.joined) {
      ++c.joins;
    } else {
      ++c.failed;
    }
    if (out.used_fallback) ++c.fallbacks;
    c.reshapes += out.reshapes_triggered;
  }
  return builder;
}

void report_oracle(Report& r, const net::RoutingOracle& oracle) {
  const net::RoutingOracle::Stats s = oracle.stats();
  r.metric("net.oracle.lookups", static_cast<double>(s.lookups), "count");
  r.metric("net.oracle.hit_ratio",
           ratio(static_cast<double>(s.cache_hits),
                 static_cast<double>(s.lookups)),
           "share");
  r.metric("net.oracle.full_runs", static_cast<double>(s.full_runs), "count");
  r.metric("net.oracle.incremental_repairs",
           static_cast<double>(s.incremental_repairs), "count");
  r.metric("net.oracle.snapshot_mb",
           static_cast<double>(oracle.snapshot_bytes()) / (1024.0 * 1024.0),
           "MiB");
}

// ---- smrp_join ----------------------------------------------------------------

/// Sessions largest first, so the last sessions dealt to the workers are
/// short and no worker idles long at the end of a round.
std::vector<std::size_t> largest_first(const std::vector<SessionPlan>& plans) {
  std::vector<std::size_t> order(plans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return plans[a].ops.size() > plans[b].ops.size();
  });
  return order;
}

/// First op id of session i in round `round`: ids stay distinct across a run.
std::uint64_t session_op(int round, std::size_t i) {
  return (static_cast<std::uint64_t>(round) << 40) |
         (static_cast<std::uint64_t>(i) << 20);
}

/// Build every session of `plans` on `workers` threads.
std::vector<std::unique_ptr<proto::SmrpTreeBuilder>> build_smrp_sessions(
    const World& world, const std::vector<SessionPlan>& plans, int round,
    int workers, std::vector<SmrpCounters>& counters,
    std::vector<JoinSamples>& samples, Tracer* tracer) {
  const int session = span_id(tracer, "bench.session");
  std::vector<std::unique_ptr<proto::SmrpTreeBuilder>> sessions(plans.size());
  parallel_for(workers, largest_first(plans), [&](std::size_t i, int w) {
    std::uint64_t op = session_op(round, i);
    sessions[i] = traced(tracer, session, op, [&] {
      return run_smrp_session(world, plans[i], op,
                              counters[static_cast<std::size_t>(w)],
                              samples[static_cast<std::size_t>(w)], tracer);
    });
  });
  return sessions;
}

Report run_smrp_join(const Options& opt, Tracer* tracer) {
  Report r;
  const SessionLoad load = smrp_load(opt.tiny);
  const auto world = setup_world(load, 1, 5, tracer, r);
  const int workers = opt.op_workers;

  JoinSamples us;
  SmrpCounters c;
  RoundMetrics rounds;
  double session_kib = 0.0;
  double on_tree_share = 0.0;
  const int validate = span_id(tracer, "multicast.validate");
  const auto start = Clock::now();
  do {
    rounds.start();
    const std::vector<SessionPlan> plans =
        make_plans(load, *world, round_seed(opt, r));
    std::vector<SmrpCounters> counters(static_cast<std::size_t>(workers));
    std::vector<JoinSamples> samples(static_cast<std::size_t>(workers));
    const double rss0 = status_kib("VmRSS");
    const auto t0 = Clock::now();
    const auto sessions = build_smrp_sessions(*world, plans, r.rounds, workers,
                                              counters, samples, tracer);
    const double build_s = elapsed_s(t0, Clock::now());
    if (r.rounds == 0) {
      session_kib = (status_kib("VmRSS") - rss0) /
                    static_cast<double>(sessions.size());
    }
    SmrpCounters round;
    const std::size_t first = us.join.size();
    for (std::size_t w = 0; w < counters.size(); ++w) {
      round += counters[w];
      us.append(samples[w]);
    }
    // The traced run's extra selections are not part of the workload.
    rounds.end(static_cast<double>(round.joins), build_s - round.select_s,
            us.join, first);
    TreeTotals totals;
    traced(tracer, validate, 0, [&] {
      for (const auto& s : sessions) totals.add(s->tree());
    });
    if (r.rounds == 0) {
      on_tree_share = ratio(static_cast<double>(totals.on_tree),
                            static_cast<double>(sessions.size()) *
                                world->topo.graph.node_count());
    }
    Digest d;
    totals.add_to(d);
    d.add("joins", round.joins);
    d.add("failed_joins", round.failed);
    d.add("leaves", round.leaves);
    d.add("fallbacks", round.fallbacks);
    d.add("reshapes", round.reshapes);
    record_round(r, d);
    c += round;
  } while (elapsed_s(start, Clock::now()) < opt.seconds);

  r.attempted = c.join_calls;
  r.failed = c.failed;
  rounds.report(r);
  r.metric("failed_share",
           ratio(static_cast<double>(c.failed),
                 static_cast<double>(c.join_calls)),
           "share");
  r.metric("multicast.on_tree_share", on_tree_share, "share");
  r.metric("multicast.session_rss_kb", session_kib, "KiB");
  const auto joins = static_cast<double>(c.join_calls);
  r.metric("smrp.fallback_share", ratio(static_cast<double>(c.fallbacks), joins),
           "share");
  r.metric("smrp.reshapes_per_join",
           ratio(static_cast<double>(c.reshapes), joins), "count");
  if (tracer != nullptr) {
    r.metric("smrp.candidates_per_join",
             ratio(static_cast<double>(c.candidates), joins), "count");
    r.metric("smrp.select_us.p50", quantile(us.select, 0.50), "us");
    r.metric("smrp.select_us.p99", quantile(us.select, 0.99), "us");
    r.metric("smrp.join_rest_us.p50", quantile(us.join_rest, 0.50), "us");
    r.metric("smrp.join_rest_us.p99", quantile(us.join_rest, 0.99), "us");
    r.metric("smrp.leave_us.p50", quantile(us.leave, 0.50), "us");
  }
  report_oracle(r, *world->oracle);
  return r;
}

// ---- smrp_repair --------------------------------------------------------------

/// One worker's repair outcomes in a round (summed, so order-independent).
struct RepairTotals {
  std::int64_t failures = 0;
  std::int64_t disconnected = 0;
  std::int64_t repaired = 0;
  std::int64_t unrecoverable = 0;
  std::int64_t rd_micros = 0;
  std::int64_t rd_hops = 0;
  double seconds = 0.0;  ///< time inside repair_session
  TreeTotals after;
  std::vector<double> us;

  void add(const RepairTotals& o) {
    failures += o.failures;
    disconnected += o.disconnected;
    repaired += o.repaired;
    unrecoverable += o.unrecoverable;
    rd_micros += o.rd_micros;
    rd_hops += o.rd_hops;
    seconds += o.seconds;
    after.members += o.after.members;
    after.links += o.after.links;
    us.insert(us.end(), o.us.begin(), o.us.end());
  }
};

Report run_smrp_repair(const Options& opt, Tracer* tracer) {
  Report r;
  const SessionLoad load = smrp_load(opt.tiny);
  const auto world = setup_world(load, 1, 5, tracer, r);
  const int workers = opt.op_workers;

  RepairTotals total;
  RoundMetrics rounds;
  const int copy = span_id(tracer, "multicast.copy");
  const int repair = span_id(tracer, "smrp.repair");
  const int validate = span_id(tracer, "multicast.validate");
  const int failure_op = span_id(tracer, "bench.failure");
  double session_kib = 0.0;
  double on_tree_share = 0.0;
  const auto start = Clock::now();
  do {
    rounds.start();
    // Input generation (untimed, untraced): the sessions smrp_join builds
    // for this round's stream, and each session's distinct worst-case
    // failure links (paper §4.3.1).
    const std::vector<SessionPlan> plans =
        make_plans(load, *world, round_seed(opt, r));
    const double rss0 = status_kib("VmRSS");
    std::vector<SmrpCounters> ignored(static_cast<std::size_t>(workers));
    std::vector<JoinSamples> untimed(static_cast<std::size_t>(workers));
    const auto sessions = build_smrp_sessions(*world, plans, r.rounds, workers,
                                              ignored, untimed, nullptr);
    TreeTotals built;
    std::vector<std::vector<net::LinkId>> failures;
    for (const auto& s : sessions) {
      built.add(s->tree());
      std::vector<net::LinkId> links;
      for (const NodeId m : s->tree().members()) {
        links.push_back(proto::worst_case_failure_link(s->tree(), m));
      }
      std::sort(links.begin(), links.end());
      links.erase(std::unique(links.begin(), links.end()), links.end());
      failures.push_back(std::move(links));
    }
    if (r.rounds == 0) {
      session_kib = (status_kib("VmRSS") - rss0) /
                    static_cast<double>(sessions.size());
      on_tree_share = ratio(static_cast<double>(built.on_tree),
                            static_cast<double>(sessions.size()) *
                                world->topo.graph.node_count());
    }

    // Each session's failures are repaired on untimed copies of its tree;
    // sessions with the most failures are dealt first.
    std::vector<std::size_t> order(sessions.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return failures[a].size() > failures[b].size();
                     });
    std::vector<RepairTotals> partial(static_cast<std::size_t>(workers));
    parallel_for(workers, order, [&](std::size_t s, int w) {
      RepairTotals& t = partial[static_cast<std::size_t>(w)];
      std::uint64_t op = session_op(r.rounds, s);
      for (const net::LinkId link : failures[s]) {
        ++op;
        traced(tracer, failure_op, op, [&] {
          mcast::MulticastTree tree = traced(
              tracer, copy, op, [&] { return sessions[s]->tree(); });
          const auto t0 = Clock::now();
          const proto::SessionRepairReport rep = traced(tracer, repair, op, [&] {
            return proto::repair_session(
                world->topo.graph, tree, proto::Failure::of_link(link),
                proto::DetourPolicy::kLocal, nullptr, nullptr,
                world->oracle.get());
          });
          const auto t1 = Clock::now();
          t.us.push_back(elapsed_us(t0, t1));
          t.seconds += elapsed_s(t0, t1);
          traced(tracer, validate, op, [&] { t.after.add(tree); });
          ++t.failures;
          t.disconnected += rep.disconnected_members;
          t.repaired += rep.repaired_members;
          t.unrecoverable += rep.unrecoverable_members;
          t.rd_micros += micros(rep.total_recovery_distance);
          t.rd_hops += rep.total_recovery_hops;
        });
      }
    });
    RepairTotals round;
    for (const RepairTotals& t : partial) round.add(t);
    rounds.end(static_cast<double>(round.failures), round.seconds, round.us, 0);
    Digest d;
    built.add_to(d);
    d.add("failures", round.failures);
    d.add("disconnected", round.disconnected);
    d.add("repaired", round.repaired);
    d.add("unrecoverable", round.unrecoverable);
    d.add("rd_micros", round.rd_micros);
    d.add("rd_hops", round.rd_hops);
    d.add("members_after", round.after.members);
    d.add("tree_links_after", round.after.links);
    record_round(r, d);
    total.add(round);
  } while (elapsed_s(start, Clock::now()) < opt.seconds);

  r.attempted = total.failures;
  r.failed = 0;  // a repair that breaks its tree fails the run instead
  rounds.report(r);
  const auto disconnected = static_cast<double>(total.disconnected);
  r.metric("failed_share",
           ratio(static_cast<double>(total.unrecoverable), disconnected),
           "share");
  r.metric("smrp.repair.disconnected_per_failure",
           ratio(disconnected, static_cast<double>(total.failures)), "count");
  r.metric("smrp.repair.us_per_disconnected",
           ratio(total.seconds * 1e6, disconnected), "us");
  r.metric("smrp.repair.unrecoverable_share",
           ratio(static_cast<double>(total.unrecoverable), disconnected),
           "share");
  r.metric("multicast.on_tree_share", on_tree_share, "share");
  r.metric("multicast.session_rss_kb", session_kib, "KiB");
  report_oracle(r, *world->oracle);
  return r;
}

// ---- spf_scale ------------------------------------------------------------------

/// Per-worker partial results of one spf_scale round.
struct SpfPartial {
  std::int64_t join_calls = 0;
  std::int64_t joins = 0;
  std::int64_t failed = 0;
  std::int64_t leaves = 0;
  std::vector<double> join_us;
};

Report run_spf_scale(const Options& opt, Tracer* tracer) {
  Report r;
  const SessionLoad load = spf_load(opt.tiny);
  const auto world = setup_world(load, opt.workers, 3, tracer, r);
  const net::Graph& g = world->topo.graph;
  const int workers = opt.op_workers;

  const int session_new = span_id(tracer, "spf.session_new");
  const int join = span_id(tracer, "spf.join");
  const int leave = span_id(tracer, "spf.leave");
  const int validate = span_id(tracer, "multicast.validate");
  const int teardown = span_id(tracer, "multicast.teardown");

  std::vector<double> join_us;
  std::int64_t join_calls = 0, joins = 0, failed = 0;
  RoundMetrics rounds;
  double session_kib = 0.0;
  double on_tree_share = 0.0;
  const auto start = Clock::now();
  do {
    rounds.start();
    const std::vector<SessionPlan> plans =
        make_plans(load, *world, round_seed(opt, r));
    std::vector<std::unique_ptr<baseline::SpfTreeBuilder>> sessions(
        plans.size());
    std::vector<SpfPartial> partials(static_cast<std::size_t>(workers));
    const double rss0 = status_kib("VmRSS");
    const auto t0 = Clock::now();
    parallel_for(workers, largest_first(plans), [&](std::size_t i, int w) {
      SpfPartial& part = partials[static_cast<std::size_t>(w)];
      const SessionPlan& plan = plans[i];
      std::uint64_t op = session_op(r.rounds, i);
      sessions[i] = traced(tracer, session_new, op, [&] {
        return std::make_unique<baseline::SpfTreeBuilder>(g, plan.source,
                                                          world->oracle.get());
      });
      baseline::SpfTreeBuilder& b = *sessions[i];
      for (const SessionPlan::Op& step : plan.ops) {
        ++op;
        if (!step.join) {
          if (!b.tree().is_member(step.node)) continue;
          traced(tracer, leave, op, [&] { b.leave(step.node); });
          ++part.leaves;
          continue;
        }
        const auto j0 = Clock::now();
        const bool ok =
            traced(tracer, join, op, [&] { return b.join(step.node); });
        part.join_us.push_back(elapsed_us(j0, Clock::now()));
        ++part.join_calls;
        if (ok) {
          ++part.joins;
        } else {
          ++part.failed;
        }
      }
    });
    const double build_s = elapsed_s(t0, Clock::now());
    if (r.rounds == 0) {
      session_kib = (status_kib("VmRSS") - rss0) /
                    static_cast<double>(sessions.size());
    }

    // Validate every final tree (in parallel, untimed), then fold the
    // totals in session order so the digest ignores the worker count.
    std::vector<TreeTotals> per_session(sessions.size());
    std::vector<std::size_t> all(sessions.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    traced(tracer, validate, 0, [&] {
      parallel_for(workers, all, [&](std::size_t i, int) {
        per_session[i].add(sessions[i]->tree());
      });
    });
    TreeTotals totals;
    for (const TreeTotals& t : per_session) {
      totals.members += t.members;
      totals.links += t.links;
      totals.cost_micros += t.cost_micros;
      totals.on_tree += t.on_tree;
    }
    if (r.rounds == 0) {
      on_tree_share = ratio(static_cast<double>(totals.on_tree),
                            static_cast<double>(sessions.size()) *
                                g.node_count());
    }
    SpfPartial round;
    const std::size_t first = join_us.size();
    for (SpfPartial& p : partials) {
      round.join_calls += p.join_calls;
      round.joins += p.joins;
      round.failed += p.failed;
      round.leaves += p.leaves;
      join_us.insert(join_us.end(), p.join_us.begin(), p.join_us.end());
    }
    rounds.end(static_cast<double>(round.joins), build_s, join_us, first);
    Digest d;
    totals.add_to(d);
    d.add("joins", round.joins);
    d.add("failed_joins", round.failed);
    d.add("leaves", round.leaves);
    record_round(r, d);
    join_calls += round.join_calls;
    joins += round.joins;
    failed += round.failed;
    traced(tracer, teardown, 0, [&] { sessions.clear(); });
  } while (elapsed_s(start, Clock::now()) < opt.seconds);

  r.attempted = join_calls;
  r.failed = failed;
  rounds.report(r);
  r.metric("failed_share",
           ratio(static_cast<double>(failed), static_cast<double>(join_calls)),
           "share");
  r.metric("multicast.on_tree_share", on_tree_share, "share");
  r.metric("multicast.session_rss_kb", session_kib, "KiB");
  if (tracer != nullptr) {
    r.metric("spf.join_us.p50", quantile(join_us, 0.50), "us");
  }
  report_oracle(r, *world->oracle);
  return r;
}

// ---- chaos_soak ---------------------------------------------------------------

constexpr const char* kMessageNames[] = {
    "Hello",        "Lsa",      "JoinReq", "JoinAck",     "LeaveReq",
    "StateRefresh", "ShrUpdate", "Data",   "RepairQuery", "RepairResp"};
static_assert(std::size(kMessageNames) == std::variant_size_v<sim::Message>);
constexpr std::size_t kRoutingMessages = 2;  // Hello, Lsa

/// Counters one protocol run leaves behind.
struct ChaosRun {
  std::vector<double> gaps_ms;
  int dark = 0;          ///< members starving when the run ends
  int never_served = 0;  ///< members whose join never brought a payload
  double setup_s = 0.0;
  double run_s = 0.0;      ///< wall time inside run_until
  double sim_ms = 0.0;     ///< simulated time advanced
  std::vector<double> slice_us;
  std::uint64_t events = 0;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t floods = 0;
  std::size_t event_slots = 0;
  std::size_t envelopes = 0;
  int repairs_started = 0;
  int repairs_completed = 0;
  int reshapes = 0;
};

/// One protocol run of a trial's fault plan, with bench_chaos_recovery's
/// timers and gap accounting: an interruption is a silence of more than
/// four data intervals at a member that is itself up.
ChaosRun run_protocol(const net::Graph& g, const std::vector<NodeId>& members,
                      proto::SessionConfig::Mode mode,
                      const sim::FaultPlan& plan, obs::Telemetry* telemetry,
                      Tracer* tracer, std::uint64_t op) {
  proto::SessionConfig config;
  config.mode = mode;
  config.data_interval = 25.0;
  config.refresh_interval = 50.0;
  config.upstream_timeout = 100.0;
  config.state_timeout = 400.0;
  config.repair_retry = 40.0;
  routing::RoutingConfig routing_config;
  routing_config.hello_interval = 500.0;
  routing_config.dead_interval = 2000.0;
  routing_config.spf_delay = 100.0;

  ChaosRun run;
  const auto t0 = Clock::now();
  std::unique_ptr<proto::SimulationHarness> h;
  std::unique_ptr<sim::ChaosController> chaos;
  traced(tracer, span_id(tracer, "proto.harness_setup"), op, [&] {
    h = std::make_unique<proto::SimulationHarness>(g, /*source=*/0, config,
                                                   routing_config);
    if (telemetry != nullptr) h->attach_telemetry(telemetry);
    if (tracer != nullptr) {
      // Reinstall the harness demux (routing first, session second) with a
      // span around each handler call, named by message type.
      std::array<int, std::size(kMessageNames)> ids{};
      for (std::size_t k = 0; k < ids.size(); ++k) {
        ids[k] = tracer->id(
            std::string(k < kRoutingMessages ? "routing.handle." : "proto.handle.") +
            kMessageNames[k]);
      }
      proto::SimulationHarness* hp = h.get();
      for (NodeId n = 0; n < g.node_count(); ++n) {
        hp->network().set_handler(
            n, [hp, tracer, ids, n, op](NodeId from, const sim::Message& m) {
              const std::size_t k = m.index();
              tracer->open(ids[k], op);
              if (k < kRoutingMessages) {
                hp->routing().handle(n, from, m);
              } else {
                hp->session().handle(n, from, m);
              }
              tracer->close();
            });
      }
    }
    chaos = std::make_unique<sim::ChaosController>(h->simulator(),
                                                   h->network(), plan);
    h->start();
  });
  run.setup_s = elapsed_s(t0, Clock::now());
  for (const NodeId m : members) h->session().join(m);
  chaos->arm();

  const sim::Time settle = 1500.0;
  const double gap_threshold = 4.0 * config.data_interval;
  const sim::Time end = plan.quiescent_time() + 15'000.0;
  const int run_until = span_id(tracer, "sim.run_until");
  std::vector<double> last_seen(members.size(), -1.0);
  const sim::Time begin = h->simulator().now();
  for (sim::Time horizon = settle; horizon <= end; horizon += 25.0) {
    const auto s0 = Clock::now();
    traced(tracer, run_until, op,
           [&] { return h->simulator().run_until(horizon); });
    const auto s1 = Clock::now();
    run.slice_us.push_back(elapsed_us(s0, s1));
    run.run_s += elapsed_s(s0, s1);
    const sim::Time now = h->simulator().now();
    for (std::size_t i = 0; i < members.size(); ++i) {
      const sim::Time at = h->session().last_data_at(members[i]);
      if (at > last_seen[i]) {
        if (last_seen[i] >= 0.0 && at - last_seen[i] > gap_threshold) {
          run.gaps_ms.push_back(at - last_seen[i]);
        }
        last_seen[i] = at;
      } else if (h->network().node_up(members[i]) &&
                 now - std::max(last_seen[i], 0.0) > gap_threshold &&
                 now + 25.0 > end) {
        ++run.dark;
      }
    }
  }
  run.never_served = static_cast<int>(
      std::count(last_seen.begin(), last_seen.end(), -1.0));
  run.sim_ms = h->simulator().now() - begin;
  run.events = h->simulator().processed();
  run.sent = h->network().messages_sent();
  run.dropped = h->network().messages_dropped();
  run.floods = h->routing().lsa_floods();
  run.event_slots = h->simulator().pool_stats().slots;
  run.envelopes = h->network().pool_stats().envelopes;
  run.repairs_started = h->session().repairs_started();
  run.repairs_completed = h->session().repairs_completed();
  run.reshapes = h->session().reshapes_performed();
  return run;
}

/// One trial: a Waxman graph, its members and fault plan, replayed for
/// SMRP (telemetry attached) and PIM-SPF (detached).
struct ChaosTrial {
  ChaosRun smrp;
  ChaosRun pim;
  double topology_s = 0.0;
  int members = 0;
  double attached_s = 0.0;  ///< traced runs: the SMRP run re-run attached
  double detached_s = 0.0;  ///< ... and detached, both without spans
};

ChaosTrial run_trial(const ChaosLoad& load, std::uint64_t seed,
                     std::uint64_t op, obs::Telemetry* telemetry,
                     Tracer* tracer) {
  ChaosTrial trial;
  net::Rng rng(seed);
  net::WaxmanParams wax;
  wax.node_count = load.nodes;
  const auto g0 = Clock::now();
  const net::Graph g = traced(tracer, span_id(tracer, "net.topology_gen"), op,
                              [&] { return net::waxman_graph(wax, rng); });
  trial.topology_s = elapsed_s(g0, Clock::now());
  std::vector<NodeId> members;
  while (static_cast<int>(members.size()) < load.members) {
    const auto m = static_cast<NodeId>(
        1 + rng.below(static_cast<std::uint64_t>(load.nodes - 1)));
    if (std::find(members.begin(), members.end(), m) == members.end()) {
      members.push_back(m);
    }
  }
  trial.members = static_cast<int>(members.size());
  net::Rng plan_rng = rng.fork();
  const sim::FaultPlan plan =
      sim::FaultPlan::randomized(g, load.faults, plan_rng);

  trial.smrp = run_protocol(g, members, proto::SessionConfig::Mode::kSmrp,
                            plan, telemetry, tracer, op);
  trial.pim = run_protocol(g, members, proto::SessionConfig::Mode::kPimSpf,
                           plan, nullptr, tracer, op);
  if (tracer != nullptr) {
    // The telemetry cost. A control measurement, so its time sits in its
    // own "ctl" layer rather than in the workload's layers.
    traced(tracer, span_id(tracer, "ctl.attach_probe"), op, [&] {
      obs::Telemetry probe;
      trial.attached_s =
          run_protocol(g, members, proto::SessionConfig::Mode::kSmrp, plan,
                       &probe, nullptr, op)
              .run_s;
      trial.detached_s =
          run_protocol(g, members, proto::SessionConfig::Mode::kSmrp, plan,
                       nullptr, nullptr, op)
              .run_s;
    });
  }
  return trial;
}

Report run_chaos_soak(const Options& opt, Tracer* tracer) {
  Report r;
  const ChaosLoad load = chaos_load(opt.tiny);
  const int workers = opt.op_workers;
  const int trial_span = span_id(tracer, "bench.trial");

  std::vector<double> setup_s, topology_s, slice_us;
  double run_s = 0.0, sim_ms = 0.0, attached_s = 0.0, detached_s = 0.0;
  std::uint64_t events = 0, sent = 0, dropped = 0, floods = 0;
  std::size_t event_slots = 0, envelopes = 0;
  std::int64_t repairs_started = 0, repairs_completed = 0, reshapes = 0;
  std::int64_t member_runs = 0, dark = 0, never_served = 0;
  RoundMetrics rounds;
  const auto start = Clock::now();
  do {
    rounds.start();
    const std::uint64_t seed = round_seed(opt, r);
    const auto count = static_cast<std::size_t>(load.trials);
    std::vector<ChaosTrial> trials(count);
    // Each SMRP run's telemetry stays resident until the round ends, as a
    // soak that exports its trials in order would hold them.
    std::vector<std::unique_ptr<obs::Telemetry>> telemetry(count);
    std::vector<std::size_t> order(count);
    for (std::size_t t = 0; t < count; ++t) order[t] = t;
    parallel_for(workers, order, [&](std::size_t t, int) {
      telemetry[t] = std::make_unique<obs::Telemetry>();
      const std::uint64_t op = static_cast<std::uint64_t>(r.rounds) * count + t;
      trials[t] = traced(tracer, trial_span, op, [&] {
        return run_trial(load, stream_seed(seed, t), op, telemetry[t].get(),
                         tracer);
      });
    });

    const std::size_t first = slice_us.size();
    const double run_s0 = run_s;
    Digest d;
    for (const ChaosTrial& trial : trials) {
      setup_s.push_back(trial.topology_s + trial.smrp.setup_s +
                        trial.pim.setup_s);
      topology_s.push_back(trial.topology_s);
      attached_s += trial.attached_s;
      detached_s += trial.detached_s;
      for (const ChaosRun* run : {&trial.smrp, &trial.pim}) {
        SequenceHash gaps;
        std::int64_t gap_total = 0;
        for (const double gap : run->gaps_ms) {
          gaps.add(micros(gap));
          gap_total += micros(gap);
        }
        const std::string variant = run == &trial.smrp ? "smrp" : "pim";
        d.add(variant + ".gaps",
              static_cast<std::int64_t>(run->gaps_ms.size()));
        d.add(variant + ".gap_micros", gap_total);
        d.add(variant + ".gap_sequence", gaps.value());
        d.add(variant + ".dark", run->dark);
        d.add(variant + ".never_served", run->never_served);
        slice_us.insert(slice_us.end(), run->slice_us.begin(),
                        run->slice_us.end());
        run_s += run->run_s;
        sim_ms += run->sim_ms;
        events += run->events;
        sent += run->sent;
        dropped += run->dropped;
        floods += run->floods;
        event_slots = std::max(event_slots, run->event_slots);
        envelopes = std::max(envelopes, run->envelopes);
        repairs_started += run->repairs_started;
        repairs_completed += run->repairs_completed;
        reshapes += run->reshapes;
        member_runs += trial.members;
        dark += run->dark;
        never_served += run->never_served;
      }
    }
    rounds.end(static_cast<double>(slice_us.size() - first), run_s - run_s0,
            slice_us, first);
    record_round(r, d);
  } while (elapsed_s(start, Clock::now()) < opt.seconds);

  // A member join fails when it never brings the member a payload; members
  // dark at the end are a protocol outcome, reported as proto.dark_share.
  r.attempted = member_runs;
  r.failed = never_served;
  r.metric("setup_s", median(setup_s), "s");
  r.metric("net.topology_gen_s", median(topology_s), "s");
  rounds.report(r);
  r.metric("sim_x_realtime", ratio(sim_ms, run_s * 1000.0), "ms/ms");
  r.metric("failed_share",
           ratio(static_cast<double>(dark), static_cast<double>(member_runs)),
           "share");
  r.metric("proto.dark_share",
           ratio(static_cast<double>(dark), static_cast<double>(member_runs)),
           "share");
  r.metric("sim.events", static_cast<double>(events), "count");
  r.metric("sim.events_per_s", ratio(static_cast<double>(events), run_s),
           "1/s");
  r.metric("sim.msgs_sent", static_cast<double>(sent), "count");
  r.metric("sim.msgs_dropped", static_cast<double>(dropped), "count");
  r.metric("sim.pool_event_slots", static_cast<double>(event_slots), "count");
  r.metric("sim.pool_envelopes", static_cast<double>(envelopes), "count");
  r.metric("routing.lsa_floods", static_cast<double>(floods), "count");
  r.metric("proto.repairs_started", static_cast<double>(repairs_started),
           "count");
  r.metric("proto.repairs_completed", static_cast<double>(repairs_completed),
           "count");
  r.metric("proto.reshapes", static_cast<double>(reshapes), "count");
  if (tracer != nullptr) {
    r.metric("sim.self_ms", tracer->self_ms("sim.run_until"), "ms");
    for (std::size_t k = 0; k < std::size(kMessageNames); ++k) {
      const std::string layer = k < kRoutingMessages ? "routing" : "proto";
      const std::string span =
          layer + ".handle." + kMessageNames[k];
      r.metric(layer + ".handle_ms." + kMessageNames[k], tracer->total_ms(span),
               "ms");
      r.metric(layer + ".handle_calls." + kMessageNames[k],
               static_cast<double>(tracer->calls(span)), "count");
    }
    r.metric("obs.attach_overhead_pct",
             100.0 * ratio(attached_s - detached_s, detached_s), "%");
  }
  return r;
}

// ---- main -----------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(arg));
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--size") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--size is full or tiny");
      }
      opt.tiny = value == "tiny";
    } else if (arg == "--workers") {
      opt.workers = std::stoi(value);
    } else if (arg == "--op-workers") {
      opt.op_workers = std::stoi(value);
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(arg));
    }
  }
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (opt.workers < 1) throw std::invalid_argument("--workers must be >= 1");
  if (opt.op_workers < 1) opt.op_workers = opt.workers;
  // The tracer is single-threaded; set-up spans cover only the main thread.
  if (opt.trace && opt.op_workers != 1) {
    throw std::invalid_argument("a traced run needs --op-workers 1");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    std::unique_ptr<Tracer> tracer =
        opt.trace ? std::make_unique<Tracer>(500'000) : nullptr;
    Report report;
    if (opt.workload == "smrp_join") {
      report = run_smrp_join(opt, tracer.get());
    } else if (opt.workload == "smrp_repair") {
      report = run_smrp_repair(opt, tracer.get());
    } else if (opt.workload == "spf_scale") {
      report = run_spf_scale(opt, tracer.get());
    } else if (opt.workload == "chaos_soak") {
      report = run_chaos_soak(opt, tracer.get());
    } else {
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    }
    if (tracer != nullptr) {
      for (const auto& [layer, ms] : tracer->layer_self_ms()) {
        report.metric("layer." + layer + ".self_ms", ms, "ms");
      }
      report.metric("trace.spans", static_cast<double>(tracer->stored()),
                    "count");
      if (!opt.trace_out.empty()) tracer->write(opt.trace_out);
    }
    std::cout << report.json(opt) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "smrp_perf: " << e.what() << "\n";
    return 1;
  }
}
