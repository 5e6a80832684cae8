// Simulated network data plane: hop-by-hop delivery between adjacent
// nodes with per-link propagation delay and up/down state for links and
// nodes (the persistent failures the paper studies).
//
// In-flight messages ride pooled envelopes: a send moves its Message into
// a recycled slab slot and the scheduled delivery closure carries only the
// slot index (plus to/link), so the dispatch path performs no per-hop heap
// allocation and a broadcast shares one refcounted envelope across every
// admitted neighbor instead of copying the payload per hop.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <variant>
#include <vector>

#include "net/graph.hpp"
#include "net/rng.hpp"
#include "sim/messages.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace smrp::sim {

struct NetworkConfig {
  /// Milliseconds of propagation per unit of link weight.
  static constexpr double kPropagationPerWeight = 0.01;
  /// Fixed per-hop processing/transmission overhead in ms.
  static constexpr double kHopOverhead = 0.05;
  /// Seed for the deterministic loss process.
  static constexpr std::uint64_t kLossSeed = 0x10551055ULL;

  /// Probability that any single transmission is lost (transient loss on
  /// top of the persistent failures; exercises soft-state robustness).
  double loss_probability = 0.0;
};

class SimNetwork {
 public:
  using Handler = std::function<void(NodeId from, const Message&)>;

  SimNetwork(Simulator& simulator, const net::Graph& graph,
             NetworkConfig config = {});

  [[nodiscard]] const net::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] Simulator& simulator() noexcept { return *simulator_; }

  /// Install the receive handler for a node (replaces any previous one).
  void set_handler(NodeId node, Handler handler);

  /// Send to an adjacent node. Returns false (and drops the message) when
  /// the nodes are not adjacent or the sender is down. A message already
  /// in flight is lost if the link or either endpoint is down at delivery
  /// time — exactly how a persistent cut manifests.
  bool send(NodeId from, NodeId to, Message message);

  /// Broadcast to every neighbor of `from`. Returns messages admitted.
  /// All admitted copies share one pooled envelope (receivers see the
  /// same payload by const reference). A down sender emits nothing and
  /// counts a single batch drop — not one per neighbor, which used to
  /// skew the `smrp.sim.drop.*` counters under node failure.
  int broadcast(NodeId from, const Message& message);

  void set_link_up(LinkId link, bool up);
  [[nodiscard]] bool link_up(LinkId link) const;
  void set_node_up(NodeId node, bool up);
  [[nodiscard]] bool node_up(NodeId node) const;

  /// Change the transient-loss probability at runtime (loss bursts in
  /// chaos plans). Must stay in [0, 1); the loss RNG stream is unaffected,
  /// so a run remains deterministic for a given schedule of calls.
  void set_loss_probability(double p);
  [[nodiscard]] double loss_probability() const noexcept {
    return config_.loss_probability;
  }

  /// Delivery latency for one hop over `link`.
  [[nodiscard]] Time link_latency(LinkId link) const;

  /// Attach (or detach with nullptr) an event tracer; not owned.
  void set_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Attach (or detach with nullptr) the telemetry bundle; not owned.
  /// Maintains per-message-type tx/rx/drop counters in the registry
  /// (`smrp.sim.{tx,rx,drop}.<MESSAGE>` — the registry-side home of the
  /// counts the Tracer tallies), the per-hop latency distribution
  /// `smrp.sim.hop_latency_ms`, and the envelope-pool gauges
  /// `smrp.sim.pool_envelopes{,_free}`. Pure observation.
  void set_telemetry(obs::Telemetry* telemetry);

  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return delivered_;
  }
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept {
    return dropped_;
  }

  /// Envelope-pool occupancy (capacity grows to the peak in-flight count
  /// and is then recycled forever; the steady state allocates nothing).
  struct PoolStats {
    std::size_t envelopes = 0;  ///< slab capacity (peak in-flight messages)
    std::size_t free = 0;       ///< slots on the freelist right now
  };
  [[nodiscard]] PoolStats pool_stats() const noexcept {
    return PoolStats{envelopes_.size(), free_envelopes_};
  }

 private:
  static constexpr std::size_t kMessageTypes =
      std::variant_size_v<Message>;
  static constexpr std::uint32_t kNoEnvelope = 0xffffffffu;

  /// One in-flight payload, shared by every delivery scheduled for it.
  /// Slots live in a deque (stable addresses across pool growth, so a
  /// handler's `const Message&` survives reentrant sends) and are
  /// recycled through a freelist; reassigning the same Message
  /// alternative into a recycled slot reuses its vector capacity.
  struct Envelope {
    Message message = HelloMsg{};
    NodeId from = net::kNoNode;
    std::uint32_t refs = 0;
    std::uint32_t next_free = kNoEnvelope;
  };

  std::uint32_t acquire_envelope();
  void release_envelope(std::uint32_t index);
  /// Record tx bookkeeping and schedule the hop (envelope ref already
  /// counted by the caller).
  void deliver_later(std::uint32_t envelope, NodeId to, LinkId link);
  void deliver(std::uint32_t envelope, NodeId to, LinkId link);
  void count_message(TraceKind kind, const Message& message) noexcept;
  void trace(TraceKind kind, NodeId from, NodeId to, const Message& message);

  Simulator* simulator_;
  const net::Graph* graph_;
  NetworkConfig config_;
  std::vector<Handler> handlers_;
  std::vector<char> link_up_;
  std::vector<char> node_up_;
  net::Rng loss_rng_;
  Tracer* tracer_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::deque<Envelope> envelopes_;
  std::uint32_t free_envelope_head_ = kNoEnvelope;
  std::size_t free_envelopes_ = 0;
  // Telemetry handles, cached at attach time: [kind][variant index].
  obs::Telemetry* telemetry_ = nullptr;
  std::array<std::array<obs::Counter*, kMessageTypes>, 3> msg_counters_{};
  obs::Histogram* hop_latency_hist_ = nullptr;
  obs::Gauge* pool_envelopes_gauge_ = nullptr;
  obs::Gauge* pool_free_gauge_ = nullptr;
};

}  // namespace smrp::sim
