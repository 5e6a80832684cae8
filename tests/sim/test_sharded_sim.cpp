// Differential suite for the sharded conservative DES (DESIGN.md §15).
//
// Three equivalence contracts, each checked bit-for-bit:
//   1. shards=1 facade ≡ the sequential wheel (pure delegation) — the
//      same randomized schedule/cancel/run scripts the wheel-vs-reference
//      suite uses, across many seeds plus a ≥1e6-event soak.
//   2. sequential Simulator+SimNetwork ≡ ShardedSimNetwork at K>1 on a
//      lossless transit-stub workload: identical per-node delivery logs,
//      identical counters, identical final clock — windows and cross-shard
//      queues are pure plumbing.
//   3. fixed K is reproducible: repeated runs (and any worker-thread
//      count) give byte-identical logs, counters, and telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "net/graph.hpp"
#include "net/rng.hpp"
#include "net/transit_stub.hpp"
#include "obs/telemetry.hpp"
#include "sim/differential_script.hpp"
#include "sim/network.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace smrp::sim {
namespace {

using difftest::Driver;
using difftest::Script;
using difftest::make_script;

// ---------------------------------------------------------------------
// Contract 1: shards=1 facade is the sequential wheel, byte for byte.
// ---------------------------------------------------------------------

void expect_facade_matches_wheel(const Script& script) {
  Driver<Simulator> wheel(script);
  Driver<ShardedSimulator> facade(script, 1);
  wheel.run();
  facade.run();

  ASSERT_EQ(wheel.log.size(), facade.log.size());
  for (std::size_t i = 0; i < wheel.log.size(); ++i) {
    ASSERT_EQ(wheel.log[i].first, facade.log[i].first)
        << "firing order diverged at position " << i;
    ASSERT_EQ(wheel.log[i].second, facade.log[i].second)
        << "firing time diverged at position " << i;
  }
  EXPECT_EQ(wheel.sim.processed(), facade.sim.processed());
  EXPECT_EQ(wheel.sim.pending(), facade.sim.pending());
  EXPECT_EQ(wheel.sim.now(), facade.sim.now());
  // Pure delegation: no windows, no stalls.
  EXPECT_EQ(facade.sim.windows(), 0u);
  EXPECT_EQ(facade.sim.stalls(), 0u);
}

TEST(ShardedFacade, OneShardMatchesWheelAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_facade_matches_wheel(make_script(seed, 4'000));
  }
}

TEST(ShardedFacade, OneShardMillionEventSoakMatchesWheel) {
  const Script script = make_script(0xC0FFEEULL, 1'000'000);
  ASSERT_GE(script.event_count, 1'000'000u);
  expect_facade_matches_wheel(script);
}

TEST(ShardedFacade, OneShardTelemetryIsByteIdentical) {
  const Script script = make_script(7, 20'000);
  obs::Telemetry wheel_t;
  obs::Telemetry facade_t;
  wheel_t.enable_sampling(5.0);
  facade_t.enable_sampling(5.0);

  Driver<Simulator> wheel(script);
  Driver<ShardedSimulator> facade(script, 1);
  wheel.sim.set_telemetry(&wheel_t);
  facade.sim.set_telemetry(&facade_t);
  wheel.run();
  facade.run();
  facade.sim.merge_telemetry();  // no-op with one shard

  ASSERT_EQ(wheel_t.metrics.counters().size(),
            facade_t.metrics.counters().size());
  for (const auto& [name, counter] : wheel_t.metrics.counters()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(counter.value(), facade_t.metrics.counters().at(name).value());
  }
  ASSERT_EQ(wheel_t.samples().size(), facade_t.samples().size());
  for (std::size_t i = 0; i < wheel_t.samples().size(); ++i) {
    EXPECT_EQ(wheel_t.samples()[i].t, facade_t.samples()[i].t);
    EXPECT_EQ(wheel_t.samples()[i].name, facade_t.samples()[i].name);
    EXPECT_EQ(wheel_t.samples()[i].value, facade_t.samples()[i].value);
  }
}

// ---------------------------------------------------------------------
// Contract 2/3: network-level workload harness. A deterministic relay
// flood: each injected message carries (ttl, id, hop) packed into the
// DataMsg seq; every receipt logs (when, from, seq) and, while ttl > 0,
// forwards to a neighbor picked by a fixed hash of (id, hop, node) — so
// the full delivery schedule is a pure function of topology and seeds.
// ---------------------------------------------------------------------

struct Delivery {
  double when;
  NodeId at;
  NodeId from;
  std::uint64_t seq;
};

bool operator==(const Delivery& a, const Delivery& b) {
  return a.when == b.when && a.at == b.at && a.from == b.from && a.seq == b.seq;
}

constexpr std::uint64_t pack_seq(std::uint64_t ttl, std::uint64_t id,
                                 std::uint64_t hop) {
  return (ttl << 48) | (id << 16) | hop;
}

/// Adapters give the harness one shape over both data planes.
struct SequentialFabric {
  Simulator sim;
  SimNetwork net;
  SequentialFabric(const net::Graph& g, NetworkConfig cfg) : net(sim, g, cfg) {}
  double now(NodeId) { return sim.now(); }
  void run_all() { sim.run_all(50'000'000); }
};

struct ShardedFabric {
  ShardedSimNetwork net;
  ShardedFabric(const net::Graph& g, ShardPlan plan, NetworkConfig cfg)
      : net(g, std::move(plan), cfg) {}
  double now(NodeId n) { return net.simulator_of(n).now(); }
  void run_all() { net.sim().run_all(50'000'000); }
};

template <typename Fabric>
struct FloodHarness {
  explicit FloodHarness(const net::Graph& g, Fabric& f) : graph(g), fabric(f) {
    for (NodeId n = 0; n < graph.node_count(); ++n) {
      f.net.set_handler(n, [this, n](NodeId from, const Message& m) {
        on_receive(n, from, m);
      });
    }
  }

  void on_receive(NodeId n, NodeId from, const Message& m) {
    const auto* data = std::get_if<DataMsg>(&m);
    if (data == nullptr) return;
    {
      // Shard workers deliver concurrently when the fabric runs threaded.
      const std::lock_guard<std::mutex> lock(log_mu);
      log.push_back(Delivery{fabric.now(n), n, from, data->seq});
    }
    const std::uint64_t ttl = data->seq >> 48;
    if (ttl == 0) return;
    const std::uint64_t id = (data->seq >> 16) & 0xffffffffULL;
    const std::uint64_t hop = data->seq & 0xffffULL;
    const auto nbrs = graph.neighbors(n);
    const auto pick = (id * 31 + hop * 7 + static_cast<std::uint64_t>(n)) %
                      nbrs.size();
    fabric.net.send(n, nbrs[pick].neighbor,
                    DataMsg{pack_seq(ttl - 1, id, hop + 1)});
  }

  /// Inject `count` relay chains from sources spread over the graph.
  void inject(std::uint64_t count, std::uint64_t ttl) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const NodeId src = static_cast<NodeId>(
          (i * 17) % static_cast<std::uint64_t>(graph.node_count()));
      const auto nbrs = graph.neighbors(src);
      fabric.net.send(src, nbrs[i % nbrs.size()].neighbor,
                      DataMsg{pack_seq(ttl, i, 0)});
    }
  }

  /// Delivery order within one timestamp differs between a single global
  /// wheel and per-shard wheels; the *set* of deliveries is the contract.
  void sort_log() {
    std::sort(log.begin(), log.end(), [](const Delivery& a, const Delivery& b) {
      return std::tie(a.when, a.at, a.from, a.seq) <
             std::tie(b.when, b.at, b.from, b.seq);
    });
  }

  const net::Graph& graph;
  Fabric& fabric;
  std::mutex log_mu;
  std::vector<Delivery> log;
};

net::TransitStubTopology make_topology(std::uint64_t seed) {
  net::TransitStubParams params;
  params.transit_nodes = 4;
  params.stubs_per_transit = 2;
  params.stub_size = 6;
  net::Rng rng(seed);
  return net::generate_transit_stub(params, rng);
}

ShardPlan plan_for(const net::TransitStubTopology& topo, int shards) {
  return build_shard_plan(topo.domain_of_node, shards);
}

void expect_same_deliveries(const std::vector<Delivery>& a,
                            const std::vector<Delivery>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i])
        << "delivery " << i << " diverged: (" << a[i].when << ", " << a[i].at
        << ", " << a[i].from << ", " << a[i].seq << ") vs (" << b[i].when
        << ", " << b[i].at << ", " << b[i].from << ", " << b[i].seq << ")";
  }
}

TEST(ShardedNetworkDifferential, LosslessFloodMatchesSequentialWheel) {
  const auto topo = make_topology(0xABCDULL);
  const NetworkConfig cfg;  // loss 0: per-shard RNG streams never drawn

  SequentialFabric seq(topo.graph, cfg);
  FloodHarness<SequentialFabric> seq_h(topo.graph, seq);
  seq_h.inject(64, 40);
  seq.run_all();

  ShardedFabric shd(topo.graph, plan_for(topo, 4), cfg);
  ASSERT_EQ(shd.net.shard_count(), 4);
  ASSERT_GT(shd.net.lookahead(), 0.0);
  ASSERT_LT(shd.net.lookahead(), std::numeric_limits<double>::infinity());
  FloodHarness<ShardedFabric> shd_h(topo.graph, shd);
  shd_h.inject(64, 40);
  shd.run_all();

  seq_h.sort_log();
  shd_h.sort_log();
  expect_same_deliveries(seq_h.log, shd_h.log);

  EXPECT_EQ(seq.net.messages_sent(), shd.net.messages_sent());
  EXPECT_EQ(seq.net.messages_delivered(), shd.net.messages_delivered());
  EXPECT_EQ(seq.net.messages_dropped(), 0u);
  EXPECT_EQ(shd.net.messages_dropped(), 0u);
  // The transit-stub chains genuinely crossed shards, and the final
  // facade clock is the global last event time — same as the one wheel.
  EXPECT_GT(shd.net.cross_messages(), 0u);
  EXPECT_GT(shd.net.sim().windows(), 0u);
  EXPECT_EQ(seq.sim.now(), shd.net.sim().now());
  // Conservation on both planes.
  EXPECT_EQ(shd.net.messages_sent(),
            shd.net.messages_delivered() + shd.net.messages_dropped());
}

TEST(ShardedNetworkDifferential, GlobalFaultInjectionMatchesSequential) {
  const auto topo = make_topology(0x5EEDULL);
  const NetworkConfig cfg;
  // Cut one stub's access link mid-flood at a time no event can collide
  // with (latencies are sums of Euclidean weights).
  const NodeId gw = topo.gateway_of_domain[1];
  const NodeId stub_entry = topo.nodes_of_domain[1].front();
  const LinkId cut = [&] {
    for (const auto& adj : topo.graph.neighbors(gw)) {
      if (topo.domain_of_node[static_cast<std::size_t>(adj.neighbor)] == 1) {
        return adj.link;
      }
    }
    return net::kNoLink;
  }();
  ASSERT_NE(cut, net::kNoLink);
  (void)stub_entry;
  const double cut_time = 7.777;

  SequentialFabric seq(topo.graph, cfg);
  FloodHarness<SequentialFabric> seq_h(topo.graph, seq);
  seq_h.inject(48, 60);
  seq.sim.schedule_at(cut_time, [&] { seq.net.set_link_up(cut, false); });
  seq.run_all();

  ShardedFabric shd(topo.graph, plan_for(topo, 3), cfg);
  FloodHarness<ShardedFabric> shd_h(topo.graph, shd);
  shd_h.inject(48, 60);
  shd.net.sim().schedule_global(cut_time,
                                [&] { shd.net.set_link_up(cut, false); });
  shd.run_all();

  EXPECT_FALSE(seq.net.link_up(cut));
  EXPECT_FALSE(shd.net.link_up(cut));
  // The cut dropped in-flight traffic in both worlds, identically.
  EXPECT_GT(seq.net.messages_dropped(), 0u);
  EXPECT_EQ(seq.net.messages_sent(), shd.net.messages_sent());
  EXPECT_EQ(seq.net.messages_delivered(), shd.net.messages_delivered());
  EXPECT_EQ(seq.net.messages_dropped(), shd.net.messages_dropped());
  seq_h.sort_log();
  shd_h.sort_log();
  expect_same_deliveries(seq_h.log, shd_h.log);
}

TEST(ShardedNetworkDifferential, FixedShardCountIsReproducible) {
  const auto topo = make_topology(0xF00DULL);
  NetworkConfig cfg;
  cfg.loss_probability = 0.05;  // per-shard loss streams in play

  auto run_once = [&](int threads) {
    ShardedFabric shd(topo.graph, plan_for(topo, 3), cfg);
    shd.net.sim().set_threads(threads);
    FloodHarness<ShardedFabric> h(topo.graph, shd);
    h.inject(64, 50);
    shd.run_all();
    h.sort_log();
    return std::tuple<std::vector<Delivery>, std::uint64_t, std::uint64_t,
                      std::uint64_t, std::uint64_t>(
        h.log, shd.net.messages_delivered(), shd.net.messages_dropped(),
        shd.net.cross_messages(), shd.net.sim().windows());
  };

  const auto first = run_once(1);
  const auto again = run_once(1);
  const auto threaded = run_once(3);
  EXPECT_GT(std::get<2>(first), 0u) << "loss stream never fired";
  expect_same_deliveries(std::get<0>(first), std::get<0>(again));
  expect_same_deliveries(std::get<0>(first), std::get<0>(threaded));
  EXPECT_EQ(std::get<1>(first), std::get<1>(again));
  EXPECT_EQ(std::get<1>(first), std::get<1>(threaded));
  EXPECT_EQ(std::get<2>(first), std::get<2>(threaded));
  EXPECT_EQ(std::get<3>(first), std::get<3>(threaded));
  EXPECT_EQ(std::get<4>(first), std::get<4>(threaded));
}

TEST(ShardedNetwork, TelemetryMergeFoldsShardBundles) {
  const auto topo = make_topology(0xBEEFULL);
  ShardedFabric shd(topo.graph, plan_for(topo, 3), NetworkConfig{});
  obs::Telemetry telemetry;
  telemetry.enable_sampling(5.0);
  shd.net.set_telemetry(&telemetry);
  FloodHarness<ShardedFabric> h(topo.graph, shd);
  h.inject(32, 40);
  shd.run_all();
  shd.net.merge_telemetry();

  const auto& counters = telemetry.metrics.counters();
  // Facade-owned counters.
  EXPECT_EQ(counters.at("smrp.sim.shard_windows").value(),
            shd.net.sim().windows());
  EXPECT_EQ(counters.at("smrp.sim.shard_stalls").value(),
            shd.net.sim().stalls());
  EXPECT_EQ(counters.at("smrp.sim.shard_cross_msgs").value(),
            shd.net.cross_messages());
  // Shard counters folded additively under their own names: every fired
  // event across all wheels lands in one smrp.sim.events.
  std::size_t processed = 0;
  for (int s = 0; s < shd.net.shard_count(); ++s) {
    processed += shd.net.simulator(s).processed();
  }
  EXPECT_EQ(counters.at("smrp.sim.events").value(), processed);
  EXPECT_EQ(counters.at("smrp.sim.rx.DATA").value(),
            shd.net.messages_delivered());
  // Gauges arrive renamed per shard — never blended.
  const auto& gauges = telemetry.metrics.gauges();
  for (int s = 0; s < shd.net.shard_count(); ++s) {
    const std::string suffix = ".shard" + std::to_string(s);
    EXPECT_TRUE(gauges.count("smrp.sim.pool_events" + suffix)) << suffix;
    EXPECT_TRUE(gauges.count("smrp.sim.pool_envelopes" + suffix)) << suffix;
  }
  EXPECT_EQ(gauges.count("smrp.sim.pool_events"), 0u);
  // Per-shard gauge samples got retagged and re-sorted chronologically.
  bool saw_shard_sample = false;
  double prev_t = -1.0;
  for (const auto& s : telemetry.samples()) {
    EXPECT_GE(s.t, prev_t);
    prev_t = s.t;
    if (s.name.find(".shard") != std::string::npos) saw_shard_sample = true;
  }
  EXPECT_TRUE(saw_shard_sample);
}

TEST(ShardedSimulatorFacade, PoolStatsSumAndClockSemantics) {
  const auto topo = make_topology(0x1234ULL);
  ShardedFabric shd(topo.graph, plan_for(topo, 3), NetworkConfig{});
  FloodHarness<ShardedFabric> h(topo.graph, shd);
  h.inject(32, 30);
  shd.run_all();

  auto& sim = shd.net.sim();
  Simulator::PoolStats expected{};
  for (int s = 0; s < sim.shard_count(); ++s) {
    const auto stats = sim.shard(s).pool_stats();
    expected.slots += stats.slots;
    expected.free_slots += stats.free_slots;
    expected.heap_actions += stats.heap_actions;
  }
  const auto summed = sim.pool_stats();
  EXPECT_EQ(summed.slots, expected.slots);
  EXPECT_EQ(summed.free_slots, expected.free_slots);
  EXPECT_EQ(summed.heap_actions, expected.heap_actions);

  SimNetwork::PoolStats net_expected{};
  for (int s = 0; s < shd.net.shard_count(); ++s) {
    const auto stats = shd.net.network(s).pool_stats();
    net_expected.envelopes += stats.envelopes;
    net_expected.free += stats.free;
  }
  EXPECT_EQ(shd.net.pool_stats().envelopes, net_expected.envelopes);
  EXPECT_EQ(shd.net.pool_stats().free, net_expected.free);

  // Facade clock: run_until advances to the horizon even when idle, and
  // schedule_at refuses the past — same contract as the wheel.
  EXPECT_TRUE(sim.idle());
  const Time before = sim.now();
  sim.run_until(before + 100.0);
  EXPECT_EQ(sim.now(), before + 100.0);
  EXPECT_THROW(sim.schedule_at(before, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(sim.schedule_global(sim.now() + 1.0, [] {}));
  EXPECT_THROW(
      sim.schedule_global(std::numeric_limits<Time>::infinity(), [] {}),
      std::invalid_argument);
}

TEST(ShardedSimulatorFacade, StallsCountIdleShardWindows) {
  // Two shards, all traffic on shard 0 → every window stalls shard 1.
  ShardedSimulator sim(2, /*lookahead=*/1.0);
  int fired = 0;
  for (int i = 0; i < 8; ++i) {
    sim.shard(0).schedule(static_cast<Time>(i) * 10.0, [&] { ++fired; });
  }
  sim.run_all();
  EXPECT_EQ(fired, 8);
  EXPECT_GT(sim.windows(), 0u);
  EXPECT_GE(sim.stalls(), sim.windows());  // shard 1 idle in every window
  EXPECT_EQ(sim.processed(), 8u);
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace smrp::sim
