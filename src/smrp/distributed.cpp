#include "smrp/distributed.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/paths.hpp"
#include "smrp/path_selection.hpp"

namespace smrp::proto {

DistributedSession::DistributedSession(sim::Simulator& simulator,
                                       sim::SimNetwork& network,
                                       routing::LinkStateRouting& routing,
                                       net::NodeId source,
                                       SessionConfig config)
    : simulator_(&simulator),
      network_(&network),
      routing_(&routing),
      source_(source),
      config_(config),
      oracle_(std::make_unique<net::RoutingOracle>(network.graph())),
      jitter_rng_(config.jitter_seed),
      conv_detector_(config.convergence) {
  if (!network.graph().valid_node(source)) {
    throw std::out_of_range("bad source");
  }
  agents_.resize(static_cast<std::size_t>(network.graph().node_count()));
}

DistributedSession::AgentState& DistributedSession::agent(net::NodeId n) {
  return agents_[static_cast<std::size_t>(n)];
}

const DistributedSession::AgentState& DistributedSession::agent(
    net::NodeId n) const {
  return agents_[static_cast<std::size_t>(n)];
}

bool DistributedSession::is_member(net::NodeId n) const {
  return agent(n).is_member;
}

bool DistributedSession::on_tree(net::NodeId n) const {
  return agent(n).on_tree;
}

net::NodeId DistributedSession::parent_of(net::NodeId n) const {
  return agent(n).parent;
}

std::vector<net::NodeId> DistributedSession::children_of(net::NodeId n) const {
  std::vector<net::NodeId> out;
  out.reserve(agent(n).children.size());
  for (const auto& [child, info] : agent(n).children) out.push_back(child);
  return out;
}

bool DistributedSession::is_repairing(net::NodeId n) const {
  return agent(n).repairing;
}

bool DistributedSession::is_stranded(net::NodeId n) const {
  return agent(n).stranded;
}

std::size_t DistributedSession::seen_nonce_count(net::NodeId n) const {
  return agent(n).seen_nonces.size();
}

Time DistributedSession::last_data_at(net::NodeId n) const {
  return agent(n).last_data;
}

int DistributedSession::local_member_count(const AgentState& s) const {
  int n = s.is_member ? 1 : 0;
  for (const auto& [child, info] : s.children) n += info.subtree_members;
  return n;
}

int DistributedSession::believed_shr(net::NodeId n) const {
  const AgentState& s = agent(n);
  if (n == source_) return 0;
  return s.shr_upstream + local_member_count(s);
}

bool DistributedSession::upstream_alive(net::NodeId n) const {
  if (n == source_) return true;
  const AgentState& s = agent(n);
  if (!s.on_tree) return false;
  return s.last_data >= 0.0 &&
         simulator_->now() - s.last_data <= config_.upstream_timeout;
}

net::ExclusionSet DistributedSession::down_components() const {
  net::ExclusionSet down(network_->graph());
  for (net::LinkId l = 0; l < network_->graph().link_count(); ++l) {
    if (!network_->link_up(l)) down.ban_link(l);
  }
  for (net::NodeId v = 0; v < network_->graph().node_count(); ++v) {
    if (!network_->node_up(v)) down.ban_node(v);
  }
  return down;
}

void DistributedSession::attach_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  oracle_->attach_telemetry(telemetry);
  node_obs_.assign(agents_.size(), NodeObs{});
  conv_pending_.clear();
  if (telemetry == nullptr) {
    c_watchdog_ = c_rings_ = c_fallbacks_ = c_stranded_ = c_routed_joins_ =
        c_repairs_started_ = c_repairs_completed_ = c_reshapes_ =
            c_conv_detections_ = c_conv_adaptive_fallbacks_ = nullptr;
    h_outage_ms_ = h_rings_ = h_join_ms_ = h_conv_skew_ = nullptr;
    g_conv_converged_ = g_conv_quiet_ms_ = nullptr;
    return;
  }
  obs::MetricsRegistry& m = telemetry->metrics;
  c_watchdog_ = &m.counter("smrp.proto.watchdog_fired");
  c_rings_ = &m.counter("smrp.proto.repair.rings");
  c_fallbacks_ = &m.counter("smrp.proto.repair.fallbacks");
  c_stranded_ = &m.counter("smrp.proto.repair.stranded");
  c_routed_joins_ = &m.counter("smrp.proto.routed_joins");
  c_repairs_started_ = &m.counter("smrp.proto.repairs_started");
  c_repairs_completed_ = &m.counter("smrp.proto.repairs_completed");
  c_reshapes_ = &m.counter("smrp.proto.reshapes");
  h_outage_ms_ = &m.histogram("smrp.proto.outage_ms");
  h_rings_ = &m.histogram(
      "smrp.proto.repair.rings_per_episode",
      {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0});
  h_join_ms_ = &m.histogram("smrp.proto.join_latency_ms");
  c_conv_detections_ = &m.counter("smrp.convergence.detections");
  c_conv_adaptive_fallbacks_ =
      &m.counter("smrp.convergence.adaptive_fallbacks");
  g_conv_converged_ = &m.gauge("smrp.convergence.converged");
  g_conv_quiet_ms_ = &m.gauge("smrp.convergence.quiet_ms");
  h_conv_skew_ = &m.histogram("smrp.convergence.skew_ms");
  obs::EventLog& events = telemetry->events;
  e_forward_ =
      events.shape("forward", {"seq", "on_tree", "from_parent", "epoch"});
  e_deliver_ = events.shape("deliver", {"seq"});
  e_restart_ = events.shape("restart", {"member"});
}

void DistributedSession::tl_open_outage(net::NodeId n) {
  if (telemetry_ == nullptr) return;
  NodeObs& t = node_obs_[static_cast<std::size_t>(n)];
  if (t.outage != obs::kNoSpan) return;
  const Time now = simulator_->now();
  t.outage = telemetry_->spans.open("outage", n, now);
  // The interruption clock starts at the last payload actually delivered,
  // not at detection: total = end - service_lost_at then equals the
  // payload-to-payload gap an external observer of the stream measures.
  telemetry_->spans.attr(t.outage, "service_lost_at",
                         t.last_payload >= 0.0 ? t.last_payload : now);
  telemetry_->spans.attr(t.outage, "silence_ms",
                         t.last_payload >= 0.0 ? now - t.last_payload : 0.0);
}

void DistributedSession::tl_on_data(net::NodeId n) {
  if (telemetry_ == nullptr) return;
  NodeObs& t = node_obs_[static_cast<std::size_t>(n)];
  const Time now = simulator_->now();
  obs::SpanCollector& spans = telemetry_->spans;
  if (t.ring != obs::kNoSpan) {
    // Payload raced the ring search: the upstream healed under the repair.
    spans.close(t.ring, now, obs::SpanStatus::kOk);
    t.ring = obs::kNoSpan;
  }
  if (t.repair != obs::kNoSpan) {
    spans.attr(t.repair, "rings", t.rings_episode);
    spans.close(t.repair, now, obs::SpanStatus::kOk);
    h_rings_->record(t.rings_episode);
    t.repair = obs::kNoSpan;
  }
  if (t.graft != obs::kNoSpan) {
    spans.close(t.graft, now, obs::SpanStatus::kOk);
    t.graft = obs::kNoSpan;
  }
  if (t.fallback != obs::kNoSpan) {
    spans.close(t.fallback, now, obs::SpanStatus::kOk);
    t.fallback = obs::kNoSpan;
  }
  if (t.rejoin != obs::kNoSpan) {
    spans.close(t.rejoin, now, obs::SpanStatus::kOk);
    t.rejoin = obs::kNoSpan;
  }
  if (t.outage != obs::kNoSpan) {
    const obs::Span* span = spans.find(t.outage);
    const double* lost_at =
        span != nullptr ? span->attr("service_lost_at") : nullptr;
    // Copy out of the attrs vector before attr() below may reallocate it.
    const double lost = lost_at != nullptr ? *lost_at : now;
    const double total = now - lost;
    spans.attr(t.outage, "total_ms", total);
    spans.close(t.outage, now, obs::SpanStatus::kOk);
    h_outage_ms_->record(total);
    if (config_.convergence.enabled) {
      // The oracle says the episode is over; the in-protocol end is the
      // source's next convergence detection, which confirms this entry
      // with a `convergence` span (skew = how far detection lagged).
      conv_pending_.push_back(PendingOutage{n, t.outage, lost, now, total});
    }
    t.outage = obs::kNoSpan;
  }
  if (t.join != obs::kNoSpan) {
    const obs::Span* span = spans.find(t.join);
    if (span != nullptr) h_join_ms_->record(now - span->start);
    spans.close(t.join, now, obs::SpanStatus::kOk);
    t.join = obs::kNoSpan;
  }
  if (t.reshape != obs::kNoSpan) {
    spans.close(t.reshape, now, obs::SpanStatus::kOk);
    t.reshape = obs::kNoSpan;
  }
  t.rings_episode = 0;
  t.last_payload = now;
}

void DistributedSession::tl_on_restart(net::NodeId n, bool was_member) {
  if (telemetry_ == nullptr) return;
  NodeObs& t = node_obs_[static_cast<std::size_t>(n)];
  const Time now = simulator_->now();
  obs::SpanCollector& spans = telemetry_->spans;
  // In-flight repair machinery died with the node's RAM.
  if (t.ring != obs::kNoSpan) {
    spans.close(t.ring, now, obs::SpanStatus::kFailed);
    t.ring = obs::kNoSpan;
  }
  if (t.repair != obs::kNoSpan) {
    spans.attr(t.repair, "rings", t.rings_episode);
    spans.close(t.repair, now, obs::SpanStatus::kFailed);
    h_rings_->record(t.rings_episode);
    t.repair = obs::kNoSpan;
  }
  if (t.graft != obs::kNoSpan) {
    spans.close(t.graft, now, obs::SpanStatus::kFailed);
    t.graft = obs::kNoSpan;
  }
  if (t.fallback != obs::kNoSpan) {
    spans.close(t.fallback, now, obs::SpanStatus::kFailed);
    t.fallback = obs::kNoSpan;
  }
  if (t.rejoin != obs::kNoSpan) {
    spans.close(t.rejoin, now, obs::SpanStatus::kFailed);
    t.rejoin = obs::kNoSpan;
  }
  if (t.reshape != obs::kNoSpan) {
    spans.close(t.reshape, now, obs::SpanStatus::kSuperseded);
    t.reshape = obs::kNoSpan;
  }
  t.rings_episode = 0;
  if (was_member) {
    // A member's outage persists across the crash (it is the SAME loss of
    // service as far as the application is concerned) — keep it open, or
    // open it now if the crash itself is what cut the service.
    if (t.last_payload >= 0.0) tl_open_outage(n);
  } else if (t.outage != obs::kNoSpan) {
    // A pure relay restarts with no state and no duty to recover.
    spans.close(t.outage, now, obs::SpanStatus::kSuperseded);
    t.outage = obs::kNoSpan;
  }
}

void DistributedSession::tl_on_prune(net::NodeId n) {
  if (telemetry_ == nullptr) return;
  NodeObs& t = node_obs_[static_cast<std::size_t>(n)];
  const Time now = simulator_->now();
  obs::SpanCollector& spans = telemetry_->spans;
  // Off the tree by choice: open episodes are moot, not failed.
  if (t.repair != obs::kNoSpan) {
    spans.attr(t.repair, "rings", t.rings_episode);
    h_rings_->record(t.rings_episode);
  }
  for (obs::SpanId* id : {&t.ring, &t.repair, &t.graft, &t.fallback, &t.rejoin,
                          &t.join, &t.reshape, &t.outage}) {
    if (*id == obs::kNoSpan) continue;
    spans.close(*id, now, obs::SpanStatus::kSuperseded);
    *id = obs::kNoSpan;
  }
  t.rings_episode = 0;
}

void DistributedSession::tl_open_rejoin(net::NodeId n) {
  if (telemetry_ == nullptr) return;
  NodeObs& t = node_obs_[static_cast<std::size_t>(n)];
  // Only a leg of an ongoing outage: a fresh member's first join has its
  // own join span, and there is no outage to hang a rejoin under.
  if (t.outage == obs::kNoSpan) return;
  if (t.rejoin != obs::kNoSpan) return;  // one routed attempt at a time
  t.rejoin = telemetry_->spans.open("rejoin", n, simulator_->now(), t.outage);
}

void DistributedSession::tl_event_forward(net::NodeId n, std::uint64_t seq,
                                          bool on_tree, bool from_parent) {
  if (telemetry_ == nullptr) return;
  NodeObs& t = node_obs_[static_cast<std::size_t>(n)];
  // Observational tree-membership epoch: bumped when the forwarding
  // node's parent changed since its last forward.
  const net::NodeId parent = agent(n).parent;
  if (parent != t.last_parent) {
    t.last_parent = parent;
    ++t.epoch;
  }
  telemetry_->events.record(
      e_forward_, n, simulator_->now(),
      {static_cast<double>(seq), on_tree ? 1.0 : 0.0,
       from_parent ? 1.0 : 0.0, static_cast<double>(t.epoch)});
}

void DistributedSession::tl_event_deliver(net::NodeId n, std::uint64_t seq) {
  if (telemetry_ == nullptr) return;
  telemetry_->events.record(e_deliver_, n, simulator_->now(),
                            {static_cast<double>(seq)});
}

void DistributedSession::start() {
  if (started_) throw std::logic_error("session already started");
  started_ = true;
  agent(source_).on_tree = true;
  pump_data();
  // Stagger per-node maintenance so timers do not fire in lockstep.
  for (net::NodeId n = 0; n < network_->graph().node_count(); ++n) {
    const Time phase =
        config_.refresh_interval * (0.1 + 0.8 * (n % 17) / 17.0);
    simulator_->schedule(phase, [this, n] { maintenance(n); });
  }
}

void DistributedSession::pump_data() {
  AgentState& s = agent(source_);
  sim::DataMsg data;
  data.seq = ++data_seq_;
  s.last_data = simulator_->now();
  s.last_seq = data.seq;
  bool forwarded = false;
  for (const auto& [child, info] : s.children) {
    network_->send(source_, child, data);
    forwarded = true;
  }
  if (forwarded) tl_event_forward(source_, data.seq, true, true);
  simulator_->schedule(config_.data_interval, [this] { pump_data(); });
}

void DistributedSession::join(net::NodeId member) {
  if (member == source_) {
    throw std::invalid_argument("source cannot join its own session");
  }
  AgentState& s = agent(member);
  if (s.is_member) return;
  s.is_member = true;
  if (telemetry_ != nullptr) {
    NodeObs& t = node_obs_[static_cast<std::size_t>(member)];
    if (t.join == obs::kNoSpan) {
      // Closed by the first payload consumed as a member.
      t.join = telemetry_->spans.open("join", member, simulator_->now());
    }
  }
  if (s.on_tree) return;  // relay upgrading in place
  initiate_join(member);
}

void DistributedSession::initiate_join(net::NodeId member) {
  AgentState& s = agent(member);
  s.stranded = false;
  // A (re)join issued while the member's service is down is the rejoin
  // leg of that outage (crash-restart, post-partition); no-op otherwise.
  tl_open_rejoin(member);

  if (config_.mode == SessionConfig::Mode::kPimSpf) {
    s.on_tree = true;
    send_routed_join(member);
    return;
  }

  // SMRP join: the member (assumed to know the topology, §3.2.2) runs the
  // selection criterion against the *distributed* tree state — merge
  // nodes' SHR values as the protocol currently believes them — over the
  // live topology (failed components excluded).
  const auto snapshot = snapshot_tree();
  const net::ExclusionSet down = down_components();
  if (down.node_banned(source_) || down.node_banned(member)) {
    s.on_tree = true;
    send_routed_join(member);  // nothing to compute against a dead source
    return;
  }
  const net::RoutingOracle::TreePtr spf = oracle_->spf(source_, down);
  const double spf_delay = spf->dist[static_cast<std::size_t>(member)];
  if (!snapshot || spf_delay == net::kInfinity) {
    // Degenerate fallback: routed join (also used mid-churn).
    s.on_tree = true;
    send_routed_join(member);
    return;
  }
  const auto selection = select_path(
      enumerate_candidates(network_->graph(), *snapshot, member, spf_delay,
                           config_.smrp, std::nullopt, &down, oracle_.get()),
      spf_delay, config_.smrp);
  s.on_tree = true;
  if (!selection) {
    send_routed_join(member);
    return;
  }
  send_join_along(member, selection->chosen.graft);
}

void DistributedSession::restart_agent(net::NodeId n) {
  AgentState& s = agent(n);
  const bool was_member = s.is_member;
  tl_on_restart(n, was_member);
  if (telemetry_ != nullptr) {
    telemetry_->events.record(e_restart_, n, simulator_->now(),
                              {was_member ? 1.0 : 0.0});
  }
  s = AgentState{};
  s.is_member = was_member;
  if (n == source_) {
    s.on_tree = true;  // the source anchors the tree by definition
    return;
  }
  if (was_member) initiate_join(n);
}

void DistributedSession::send_join_along(net::NodeId member,
                                         const std::vector<net::NodeId>& path) {
  if (path.size() < 2) return;  // joined in place
  AgentState& s = agent(member);
  s.parent = path[1];
  sim::JoinReqMsg msg;
  msg.member = member;
  msg.path = path;
  msg.hop_index = 0;
  network_->send(member, path[1], msg);
}

void DistributedSession::send_routed_join(net::NodeId from_member) {
  const net::NodeId hop = routing_->next_hop(from_member, source_);
  if (hop == net::kNoNode) return;  // retried by maintenance
  if (telemetry_ != nullptr) c_routed_joins_->add(1);
  agent(from_member).parent = hop;
  sim::JoinReqMsg msg;
  msg.member = from_member;
  msg.hop_index = static_cast<std::size_t>(config_.join_ttl);
  network_->send(from_member, hop, msg);
}

void DistributedSession::leave(net::NodeId member) {
  AgentState& s = agent(member);
  if (!s.is_member) return;
  s.is_member = false;
  if (telemetry_ != nullptr) {
    const Time now = simulator_->now();
    NodeObs& t = node_obs_[static_cast<std::size_t>(member)];
    if (t.join != obs::kNoSpan) {
      // Left before the first payload arrived: the join is moot.
      telemetry_->spans.close(t.join, now, obs::SpanStatus::kSuperseded);
      t.join = obs::kNoSpan;
    }
    // Leaves are instantaneous at the member; the span records the event.
    telemetry_->spans.close(telemetry_->spans.open("leave", member, now), now,
                            obs::SpanStatus::kOk);
  }
  prune_self_if_useless(member);
}

void DistributedSession::prune_self_if_useless(net::NodeId n) {
  AgentState& s = agent(n);
  if (n == source_ || !s.on_tree) return;
  if (s.is_member || !s.children.empty()) return;
  tl_on_prune(n);
  const net::NodeId up = s.parent;
  s.on_tree = false;
  s.parent = net::kNoNode;
  s.shr_upstream = 0;
  s.last_upstream = -1.0;
  s.last_data = -1.0;
  s.repairing = false;
  s.stranded = false;
  s.shr_baseline = -1;
  s.ticks_since_reshape_check = 0;
  if (up != net::kNoNode) {
    network_->send(n, up, sim::LeaveReqMsg{n});
  }
}

void DistributedSession::maintenance(net::NodeId n) {
  simulator_->schedule(config_.refresh_interval,
                       [this, n] { maintenance(n); });
  AgentState& s = agent(n);
  if (!network_->node_up(n)) {
    s.observed_down = true;
    return;
  }
  if (s.observed_down) {
    s.observed_down = false;
    if (hardened()) {
      // First tick after a crash-restart: wipe and (if a member) rejoin
      // rather than trusting pre-crash parent/children pointers.
      restart_agent(n);
      return;
    }
  }
  const Time now = simulator_->now();

  // Expire silent children.
  for (auto it = s.children.begin(); it != s.children.end();) {
    if (now - it->second.last_refresh > config_.state_timeout) {
      it = s.children.erase(it);
    } else {
      ++it;
    }
  }

  if (!s.on_tree) return;

  // Convergence wave (DESIGN.md §13): fold the local quiescence latch
  // with the children's piggybacked reports; the source runs the
  // detector over the root aggregate. Pure computation on protocol
  // state, so it cannot perturb the seeded run.
  const double conv_agg = config_.convergence.enabled
                              ? conv_subtree_quiet_since(n, now)
                              : routing::kNotQuiet;
  if (n == source_ && config_.convergence.enabled) conv_step(conv_agg, now);

  // Parent-facing soft state + liveness.
  if (n != source_ && s.parent != net::kNoNode) {
    sim::StateRefreshMsg refresh;
    refresh.subtree_members = local_member_count(s);
    refresh.conv_quiet_since = conv_agg;  // the wave rides the refresh
    network_->send(n, s.parent, refresh);
    const bool upstream_dead =
        s.last_upstream >= 0.0
            ? now - s.last_upstream > config_.upstream_timeout
            : false;
    const bool data_dead =
        s.last_data >= 0.0 && now - s.last_data > config_.upstream_timeout;
    const bool in_grace = hardened() && now <= s.repair_grace;
    if ((upstream_dead || data_dead) && !in_grace) {
      react_to_dead_upstream(n);
    }
  }

  // Child-facing SHR propagation (Eq. 2 downstream push); the source's
  // convergence verdict rides along so adaptive reshaping can gate on it.
  const int own_shr = believed_shr(n);
  for (const auto& [child, info] : s.children) {
    sim::ShrUpdateMsg update;
    update.shr_upstream = own_shr;
    update.conv_converged = s.conv_converged;
    network_->send(n, child, update);
  }

  // Tree reshaping (§3.2.3), members only, while service is healthy.
  if (config_.mode == SessionConfig::Mode::kSmrp &&
      config_.smrp.enable_reshaping && s.is_member && upstream_alive(n) &&
      n != source_ && !s.repairing) {
    if (s.shr_baseline < 0) s.shr_baseline = believed_shr(n);
    const bool condition_one =
        believed_shr(n) - s.shr_baseline >= config_.smrp.reshape_shr_delta;
    // Adaptive triggers: the periodic (Condition II) reshape waits for
    // the source's convergence verdict instead of firing blind on the
    // tick counter — re-optimising a tree that is still being repaired
    // wastes grafts. The counter keeps accruing, so the reshape fires at
    // the first converged tick past the threshold.
    ++s.ticks_since_reshape_check;
    const bool condition_two =
        s.ticks_since_reshape_check >= config_.reshape_every_ticks &&
        (!config_.adaptive_triggers || s.conv_converged);
    if (condition_one || condition_two) {
      s.ticks_since_reshape_check = 0;
      if (!attempt_reshape(n)) {
        // Selection declined: re-anchor the Condition-I reference so the
        // same growth does not retrigger every tick.
        s.shr_baseline = believed_shr(n);
      }
    }
  }

  prune_self_if_useless(n);
}

bool DistributedSession::attempt_reshape(net::NodeId n) {
  AgentState& s = agent(n);
  const auto snapshot = snapshot_tree();
  if (!snapshot || !snapshot->is_member(n)) return false;
  if (snapshot->parent(n) == net::kNoNode) return false;

  // Reshaping decisions respect the live topology: failed links/nodes
  // (known network-wide once the IGP has flooded them) are unusable.
  const net::ExclusionSet down = down_components();
  if (down.node_banned(n) || down.node_banned(source_)) return false;

  const net::RoutingOracle::TreePtr spf = oracle_->spf(source_, down);
  const double spf_delay = spf->dist[static_cast<std::size_t>(n)];
  if (spf_delay == net::kInfinity) return false;

  const std::optional<JoinCandidate> best = select_reshape(
      *snapshot, n,
      enumerate_candidates(network_->graph(), *snapshot, n, spf_delay,
                           config_.smrp, n, &down, oracle_.get()));
  if (!best) return false;
  // Guard against stale relays: the snapshot may omit soft-state remnants
  // that are still on-tree in reality; routing the new branch through one
  // could close a cycle. Decline and let soft state clean up first.
  for (std::size_t i = 1; i + 1 < best->graft.size(); ++i) {
    if (agent(best->graft[i]).on_tree) return false;
  }

  // Make-before-break: install the new branch, then release the old one.
  const net::NodeId old_parent = s.parent;
  send_join_along(n, best->graft);
  if (old_parent != net::kNoNode && old_parent != s.parent) {
    network_->send(n, old_parent, sim::LeaveReqMsg{n});
  }
  s.shr_baseline = -1;  // re-anchor once the new SHR propagates
  ++reshapes_performed_;
  if (telemetry_ != nullptr) {
    c_reshapes_->add(1);
    const Time now = simulator_->now();
    NodeObs& t = node_obs_[static_cast<std::size_t>(n)];
    if (t.reshape != obs::kNoSpan) {
      telemetry_->spans.close(t.reshape, now, obs::SpanStatus::kSuperseded);
    }
    // Closed by the first payload over the new branch.
    t.reshape = telemetry_->spans.open("reshape", n, now);
    telemetry_->spans.attr(t.reshape, "old_parent",
                           static_cast<double>(old_parent));
    telemetry_->spans.attr(t.reshape, "new_parent",
                           static_cast<double>(s.parent));
  }
  return true;
}

bool DistributedSession::conv_routing_quiet(net::NodeId n, Time now) const {
  if (routing_->spf_pending(n)) return false;
  const Time lsa = routing_->last_lsa_activity(n);
  return lsa < 0.0 || now - lsa >= config_.convergence.lsa_quiet;
}

bool DistributedSession::conv_locally_quiet(net::NodeId n, Time now) const {
  if (!conv_routing_quiet(n, now)) return false;
  const AgentState& s = agent(n);
  // Repair machinery idle: an in-flight ring search, a stranded wait, or
  // a graft still inside its grace window all mean restoration work is
  // pending here.
  if (s.repairing || s.stranded) return false;
  if (now <= s.repair_grace) return false;
  // Data-plane service: a member off the tree is by definition unserved,
  // and an on-tree node must have a parent and payloads fresher than the
  // silence the watchdog would fire on.
  if (s.is_member && !s.on_tree) return false;
  if (s.on_tree && n != source_) {
    if (s.parent == net::kNoNode) return false;
    if (s.last_data < 0.0 || now - s.last_data > watchdog_window()) {
      return false;
    }
  }
  return true;
}

double DistributedSession::conv_subtree_quiet_since(net::NodeId n, Time now) {
  AgentState& s = agent(n);
  double agg = s.conv_local.update(conv_locally_quiet(n, now), now);
  for (const auto& [child, info] : s.children) {
    if (agg < 0.0) break;  // already poisoned
    if (info.conv_report_at < 0.0 ||
        now - info.conv_report_at > config_.convergence.report_timeout) {
      // A child that never reported or went silent cannot vouch for its
      // subtree: assume the worst until it speaks again.
      return routing::kNotQuiet;
    }
    agg = routing::combine_quiet_since(agg, info.conv_quiet_since);
  }
  return agg;
}

void DistributedSession::conv_step(double aggregate_quiet_since, Time now) {
  const std::optional<routing::Detection> detection =
      conv_detector_.step(aggregate_quiet_since, now);
  agent(source_).conv_converged = conv_detector_.converged();
  if (telemetry_ == nullptr) {
    if (detection) conv_pending_.clear();  // always empty when detached
    return;
  }
  g_conv_converged_->set(conv_detector_.converged() ? 1.0 : 0.0);
  g_conv_quiet_ms_->set(aggregate_quiet_since >= 0.0
                            ? now - aggregate_quiet_since
                            : -1.0);
  if (!detection) return;
  c_conv_detections_->add(1);
  // The first detection at/after an episode's restore instant is the
  // source's honest announcement that the episode is over: a
  // `convergence` span covers restore → detection under the outage, so
  // detected_ms >= total_ms (never-early) holds by construction.
  for (const PendingOutage& p : conv_pending_) {
    const double detected_ms = now - p.lost_at;
    const double skew = detected_ms - p.total_ms;
    obs::SpanCollector& spans = telemetry_->spans;
    const obs::SpanId span =
        spans.open("convergence", p.node, p.restored_at, p.outage);
    spans.attr(span, "epoch", static_cast<double>(detection->epoch));
    spans.attr(span, "total_ms", p.total_ms);
    spans.attr(span, "detected_ms", detected_ms);
    spans.attr(span, "skew_ms", skew);
    spans.close(span, now, obs::SpanStatus::kOk);
    h_conv_skew_->record(skew);
  }
  conv_pending_.clear();
}

void DistributedSession::react_to_dead_upstream(net::NodeId n) {
  AgentState& s = agent(n);
  tl_open_outage(n);  // detection instant; idempotent while already open
  if (config_.mode == SessionConfig::Mode::kSmrp) {
    if (hardened() && s.stranded) {
      // Partition give-up: stop flooding repair rings into a dead
      // partition; rejoin as soon as the IGP re-learns a route to the
      // source (the heal signal).
      if (routing_->has_route(n, source_)) {
        s.stranded = false;
        tl_open_rejoin(n);
        send_routed_join(n);
      }
    } else {
      start_repair(n);
    }
  } else if (s.is_member || !s.children.empty()) {
    tl_open_rejoin(n);
    send_routed_join(n);  // PIM: keep re-joining toward the source
  }
}

Time DistributedSession::watchdog_window() const noexcept {
  return std::max(config_.data_timeout, 3.0 * config_.data_interval);
}

void DistributedSession::data_watchdog(net::NodeId n) {
  AgentState& s = agent(n);
  s.watchdog_armed = false;
  if (!hardened() || n == source_) return;
  if (!network_->node_up(n) || !s.on_tree || s.parent == net::kNoNode) return;
  if (s.last_data < 0.0) return;
  const Time now = simulator_->now();
  const Time silent = now - s.last_data;
  if (silent + 1e-9 < watchdog_window()) {
    // Data arrived since arming: sleep out the remainder of the window.
    s.watchdog_armed = true;
    simulator_->schedule(watchdog_window() - silent,
                         [this, n] { data_watchdog(n); });
    return;
  }
  // A served node has gone silent for several payload intervals: the
  // upstream is dead in the data plane. React now instead of waiting for
  // the (much longer) control-plane timeout — this is what makes the
  // local detour fast relative to routed re-joins gated on IGP
  // reconvergence. Re-armed by the next real payload.
  if (now <= s.repair_grace || s.repairing || s.stranded) return;
  if (telemetry_ != nullptr) c_watchdog_->add(1);
  react_to_dead_upstream(n);
}

void DistributedSession::start_repair(net::NodeId n) {
  AgentState& s = agent(n);
  if (s.repairing) return;
  s.repairing = true;
  // Hardened: the ring budget persists across failed episodes — only real
  // data resets it — so a neighborhood where grafts keep "succeeding"
  // without restoring service escalates to the routed fallback instead of
  // re-flooding ring 1 forever. Legacy restarts every episode from 1.
  if (!hardened()) s.repair_ttl = 1;
  s.repair_ring = 0;
  ++repairs_started_;
  if (telemetry_ != nullptr) {
    c_repairs_started_->add(1);
    tl_open_outage(n);
    const Time now = simulator_->now();
    obs::SpanCollector& spans = telemetry_->spans;
    NodeObs& t = node_obs_[static_cast<std::size_t>(n)];
    // A graft/fallback leg that never restored service is what brought us
    // back here: it failed.
    if (t.graft != obs::kNoSpan) {
      spans.close(t.graft, now, obs::SpanStatus::kFailed);
      t.graft = obs::kNoSpan;
    }
    if (t.fallback != obs::kNoSpan) {
      spans.close(t.fallback, now, obs::SpanStatus::kFailed);
      t.fallback = obs::kNoSpan;
    }
    if (t.repair != obs::kNoSpan) {  // defensive; episodes close on exit
      spans.close(t.repair, now, obs::SpanStatus::kSuperseded);
    }
    if (t.rejoin != obs::kNoSpan) {
      // The local repair takes over from a routed attempt that never
      // delivered.
      spans.close(t.rejoin, now, obs::SpanStatus::kSuperseded);
      t.rejoin = obs::kNoSpan;
    }
    t.rings_episode = 0;
    // Span count == repairs_started(): opened nowhere else.
    t.repair = spans.open("repair", n, now, t.outage);
    spans.attr(t.repair, "ttl_start", s.repair_ttl);
  }
  fire_repair_ring(n);
}

void DistributedSession::repair_give_up(net::NodeId n, bool adaptive) {
  AgentState& s = agent(n);
  s.repairing = false;
  const obs::SpanStatus status =
      adaptive ? obs::SpanStatus::kSuperseded : obs::SpanStatus::kFailed;
  NodeObs* t = nullptr;
  if (telemetry_ != nullptr) {
    t = &node_obs_[static_cast<std::size_t>(n)];
    const Time now = simulator_->now();
    obs::SpanCollector& spans = telemetry_->spans;
    if (t->ring != obs::kNoSpan) {
      spans.close(t->ring, now, status);
      t->ring = obs::kNoSpan;
    }
    if (t->repair != obs::kNoSpan) {
      // Ring budget exhausted without an adoptable response — or, on the
      // adaptive trigger, cut short because the routed detour came alive.
      spans.attr(t->repair, "rings", t->rings_episode);
      if (adaptive) spans.attr(t->repair, "adaptive", 1.0);
      spans.close(t->repair, now, status);
      h_rings_->record(t->rings_episode);
      t->repair = obs::kNoSpan;
      t->rings_episode = 0;
    }
  }
  if (!hardened()) return;  // legacy: give up; maintenance retries
  // Repair deadline hit: no on-tree node with live service inside the
  // ring budget, so the detour — if one exists at all — is not local.
  // Fall back to a routed (global) join; if even the IGP has no route,
  // the source sits in another partition: go stranded and let
  // maintenance rejoin once routing heals.
  if (routing_->has_route(n, source_)) {
    if (t != nullptr) {
      c_fallbacks_->add(1);
      if (adaptive) c_conv_adaptive_fallbacks_->add(1);
      t->fallback = telemetry_->spans.open("fallback", n,
                                           simulator_->now(), t->outage);
      if (adaptive) telemetry_->spans.attr(t->fallback, "adaptive", 1.0);
    }
    send_routed_join(n);
    // Give the routed join one detection window to deliver data before
    // maintenance opens another repair episode.
    s.repair_grace = simulator_->now() + config_.upstream_timeout;
  } else {
    if (t != nullptr) {
      c_stranded_->add(1);
      if (t->outage != obs::kNoSpan) {
        telemetry_->spans.attr(t->outage, "stranded", 1.0);
      }
    }
    s.stranded = true;
  }
}

void DistributedSession::fire_repair_ring(net::NodeId n) {
  AgentState& s = agent(n);
  if (!s.repairing) return;
  if (!config_.mutations.ignore_ring_budget &&
      s.repair_ttl > config_.max_repair_ttl) {
    repair_give_up(n, /*adaptive=*/false);
    return;
  }
  // Adaptive trigger (opt-in): the ring search exists because unicast
  // routing is too slow to trust mid-failure — but once the local control
  // plane has quiesced AND re-learned a route to the source, a routed
  // join is one RTT while the next ring is a wider flood plus backoff.
  // Abort the escalation and take the global detour now instead of
  // burning the rest of the budget. Requires one unanswered ring so a
  // genuinely local detour still wins the race it is built to win.
  if (config_.adaptive_triggers && hardened() && s.repair_ring >= 1 &&
      conv_routing_quiet(n, simulator_->now()) &&
      routing_->has_route(n, source_)) {
    repair_give_up(n, /*adaptive=*/true);
    return;
  }
  sim::RepairQueryMsg query;
  query.initiator = n;
  query.nonce = ++nonce_counter_;
  query.ttl = s.repair_ttl;
  query.visited = {n};
  s.repair_nonce = query.nonce;
  if (telemetry_ != nullptr) {
    const Time now = simulator_->now();
    obs::SpanCollector& spans = telemetry_->spans;
    NodeObs& t = node_obs_[static_cast<std::size_t>(n)];
    if (t.ring != obs::kNoSpan) {
      // The previous ring's pacing ran out unanswered.
      spans.close(t.ring, now, obs::SpanStatus::kFailed);
    }
    t.ring = spans.open("ring", n, now, t.repair);
    spans.attr(t.ring, "ttl", s.repair_ttl);
    spans.attr(t.ring, "ttl_cap", config_.max_repair_ttl);
    spans.attr(t.ring, "ring", s.repair_ring);
    c_rings_->add(1);
    ++t.rings_episode;
  }
  network_->broadcast(n, query);
  // Clamp far above any real budget: only the ignore_ring_budget mutation
  // can reach it, and it must widen forever without overflowing.
  s.repair_ttl = s.repair_ttl >= (1 << 20) ? (1 << 20) : s.repair_ttl * 2;
  Time pacing = config_.repair_retry;
  if (hardened()) {
    // Exponential backoff gives ring k time proportional to its radius
    // before the next (wider) flood; deterministic jitter decorrelates
    // the retry storms of neighbors that lost the same upstream.
    for (int ring = 0; ring < s.repair_ring; ++ring) {
      pacing *= config_.repair_backoff;
    }
    pacing *= 1.0 + config_.repair_jitter * (2.0 * jitter_rng_.uniform() - 1.0);
  }
  ++s.repair_ring;
  if (telemetry_ != nullptr) {
    telemetry_->spans.attr(node_obs_[static_cast<std::size_t>(n)].ring,
                           "pacing_ms", pacing);
  }
  simulator_->schedule(pacing, [this, n] { fire_repair_ring(n); });
}

bool DistributedSession::handle(net::NodeId at, net::NodeId from,
                                const sim::Message& message) {
  if (const auto* join_msg = std::get_if<sim::JoinReqMsg>(&message)) {
    on_join(at, from, *join_msg);
    return true;
  }
  if (std::holds_alternative<sim::LeaveReqMsg>(message)) {
    on_leave(at, from);
    return true;
  }
  if (const auto* refresh = std::get_if<sim::StateRefreshMsg>(&message)) {
    on_refresh(at, from, *refresh);
    return true;
  }
  if (const auto* shr = std::get_if<sim::ShrUpdateMsg>(&message)) {
    on_shr_update(at, from, *shr);
    return true;
  }
  if (const auto* data = std::get_if<sim::DataMsg>(&message)) {
    on_data(at, from, *data);
    return true;
  }
  if (const auto* query = std::get_if<sim::RepairQueryMsg>(&message)) {
    on_repair_query(at, from, *query);
    return true;
  }
  if (const auto* resp = std::get_if<sim::RepairRespMsg>(&message)) {
    on_repair_resp(at, from, *resp);
    return true;
  }
  return false;
}

void DistributedSession::on_join(net::NodeId at, net::NodeId from,
                                 const sim::JoinReqMsg& msg) {
  AgentState& s = agent(at);
  // Register the sender as a child (idempotent refresh).
  ChildInfo& child = s.children[from];
  child.last_refresh = simulator_->now();
  child.subtree_members = std::max(child.subtree_members, 1);

  if (!msg.path.empty()) {
    // Explicit graft travelling member → … → merge node.
    const auto it = std::find(msg.path.begin(), msg.path.end(), at);
    if (it == msg.path.end()) return;  // stray
    const auto index = static_cast<std::size_t>(it - msg.path.begin());
    if (index + 1 >= msg.path.size()) return;  // merge point reached
    if (s.on_tree && (!hardened() || upstream_alive(at))) {
      // Graft hit served tree early: stop. The legacy protocol stops at
      // ANY on-tree hop — anchoring branches at service-dead nodes, which
      // can weld repair grafts into persistent parent cycles (the exact
      // livelock the chaos soak reproduces). Hardened: only a hop with
      // live service terminates the graft; a dead one falls through and
      // re-anchors itself along the path toward the live responder.
      return;
    }
    if (s.on_tree && s.parent != net::kNoNode &&
        s.parent != msg.path[index + 1]) {
      network_->send(at, s.parent, sim::LeaveReqMsg{at});
    }
    s.on_tree = true;
    s.parent = msg.path[index + 1];
    sim::JoinReqMsg forward = msg;
    forward.hop_index = index;
    network_->send(at, s.parent, forward);
    return;
  }

  // Routed (PIM-style) join toward the source.
  if (at == source_) return;
  if (s.on_tree && upstream_alive(at)) return;  // already served
  const auto ttl = msg.hop_index;
  if (ttl == 0) return;
  const net::NodeId hop = routing_->next_hop(at, source_);
  if (hop == net::kNoNode || hop == from) return;
  if (s.on_tree && s.parent != hop && s.parent != net::kNoNode) {
    // Unicast routing moved: switch upstream, prune the old branch.
    network_->send(at, s.parent, sim::LeaveReqMsg{at});
  }
  s.on_tree = true;
  s.parent = hop;
  sim::JoinReqMsg forward = msg;
  forward.hop_index = ttl - 1;
  network_->send(at, hop, forward);
}

void DistributedSession::on_leave(net::NodeId at, net::NodeId from) {
  AgentState& s = agent(at);
  s.children.erase(from);
  prune_self_if_useless(at);
}

void DistributedSession::on_refresh(net::NodeId at, net::NodeId from,
                                    const sim::StateRefreshMsg& msg) {
  AgentState& s = agent(at);
  const auto it = s.children.find(from);
  if (it == s.children.end()) {
    // Refresh from an unknown child re-adopts it (soft state recovers
    // from message loss).
    if (s.on_tree) {
      ChildInfo info{simulator_->now(), msg.subtree_members};
      info.conv_quiet_since = msg.conv_quiet_since;
      info.conv_report_at = simulator_->now();
      s.children[from] = info;
    }
    return;
  }
  it->second.last_refresh = simulator_->now();
  it->second.subtree_members = msg.subtree_members;
  it->second.conv_quiet_since = msg.conv_quiet_since;
  it->second.conv_report_at = simulator_->now();
}

void DistributedSession::on_shr_update(net::NodeId at, net::NodeId from,
                                       const sim::ShrUpdateMsg& msg) {
  AgentState& s = agent(at);
  if (s.parent != from) return;  // stale upstream
  s.shr_upstream = msg.shr_upstream;
  s.conv_converged = msg.conv_converged;
  s.last_upstream = simulator_->now();
}

void DistributedSession::on_data(net::NodeId at, net::NodeId from,
                                 const sim::DataMsg& msg) {
  AgentState& s = agent(at);
  if (!s.on_tree || s.parent != from) {  // not my upstream
    if (!config_.mutations.forward_off_tree) return;
    // MUTATION (tests only): accept anyway and flood to every neighbor.
    // Per-seq dedup keeps the flood finite; the forward event it emits
    // carries on_tree/from_parent ground truth, so the forward-* rules in
    // the core ruleset must catch this.
    if (msg.seq <= s.last_seq) return;
    s.last_seq = msg.seq;
    bool flooded = false;
    for (const net::Adjacency& adj : network_->graph().neighbors(at)) {
      if (adj.neighbor == from) continue;
      network_->send(at, adj.neighbor, msg);
      flooded = true;
    }
    if (flooded) tl_event_forward(at, msg.seq, s.on_tree, false);
    return;
  }
  if (msg.seq <= s.last_seq) return;  // duplicate suppression
  s.last_seq = msg.seq;
  s.last_data = simulator_->now();
  s.last_upstream = simulator_->now();
  s.stranded = false;  // service is back; no longer cut off
  s.repair_ttl = 1;    // genuine service resets the ring escalation
  s.repair_ring = 0;
  s.repair_grace = -1.0;
  if (hardened() && !s.watchdog_armed) {
    s.watchdog_armed = true;
    simulator_->schedule(watchdog_window(), [this, at] { data_watchdog(at); });
  }
  if (s.repairing) {
    // Service is back (e.g. upstream healed itself): stop repairing.
    s.repairing = false;
    ++repairs_completed_;
    if (telemetry_ != nullptr) c_repairs_completed_->add(1);
  }
  tl_on_data(at);
  if (s.is_member) tl_event_deliver(at, msg.seq);
  bool forwarded = false;
  for (const auto& [child, info] : s.children) {
    if (child != from) {
      network_->send(at, child, msg);
      forwarded = true;
    }
  }
  // Ground truth at send time: the guard above admitted only on-tree,
  // from-parent payloads, which is exactly what the forward-* rules check.
  if (forwarded) tl_event_forward(at, msg.seq, s.on_tree, true);
}

void DistributedSession::on_repair_query(net::NodeId at, net::NodeId from,
                                         sim::RepairQueryMsg msg) {
  AgentState& s = agent(at);
  if (!s.seen_nonces.insert(msg.nonce).second) return;  // duplicate
  s.nonce_order.push_back(msg.nonce);
  while (s.nonce_order.size() > kSeenNonceCap) {
    // Duplicates of a nonce arrive within one ring's flood, so a FIFO
    // window this deep dedupes everything that can still arrive while
    // keeping per-node state bounded on long chaos runs.
    s.seen_nonces.erase(s.nonce_order.front());
    s.nonce_order.pop_front();
  }
  if (std::find(msg.visited.begin(), msg.visited.end(), at) !=
      msg.visited.end()) {
    return;
  }

  const bool can_serve = s.on_tree && upstream_alive(at) &&
                         at != msg.initiator;
  if (can_serve) {
    sim::RepairRespMsg resp;
    resp.responder = at;
    resp.nonce = msg.nonce;
    resp.shr = believed_shr(at);
    resp.path = msg.visited;
    resp.path.push_back(at);
    resp.hop_index = resp.path.size() - 1;
    // Retrace toward the initiator.
    network_->send(at, resp.path[resp.hop_index - 1], resp);
    return;
  }
  if (msg.ttl <= 1) return;
  msg.ttl -= 1;
  msg.visited.push_back(at);
  for (const net::Adjacency& adj : network_->graph().neighbors(at)) {
    if (adj.neighbor == from) continue;
    network_->send(at, adj.neighbor, msg);
  }
}

void DistributedSession::on_repair_resp(net::NodeId at,
                                        net::NodeId /*from*/,
                                        const sim::RepairRespMsg& msg) {
  if (msg.path.empty()) return;
  if (at != msg.path.front()) {
    // Relay hop: keep retracing toward the initiator.
    const auto it = std::find(msg.path.begin(), msg.path.end(), at);
    if (it == msg.path.end() || it == msg.path.begin()) return;
    const auto index = static_cast<std::size_t>(it - msg.path.begin());
    sim::RepairRespMsg forward = msg;
    forward.hop_index = index;
    network_->send(at, msg.path[index - 1], forward);
    return;
  }
  // Initiator: adopt the first response (nearest ring).
  AgentState& s = agent(at);
  if (!s.repairing || msg.nonce != s.repair_nonce) return;
  s.repairing = false;
  ++repairs_completed_;
  if (telemetry_ != nullptr) {
    c_repairs_completed_->add(1);
    const Time now = simulator_->now();
    obs::SpanCollector& spans = telemetry_->spans;
    NodeObs& t = node_obs_[static_cast<std::size_t>(at)];
    if (t.ring != obs::kNoSpan) {
      spans.attr(t.ring, "answered", 1.0);
      spans.close(t.ring, now, obs::SpanStatus::kOk);
      t.ring = obs::kNoSpan;
    }
    if (t.repair != obs::kNoSpan) {
      spans.attr(t.repair, "rings", t.rings_episode);
      spans.attr(t.repair, "responder",
                 static_cast<double>(msg.responder));
      spans.attr(t.repair, "graft_hops",
                 static_cast<double>(msg.path.size() - 1));
      spans.close(t.repair, now, obs::SpanStatus::kOk);
      h_rings_->record(t.rings_episode);
      t.repair = obs::kNoSpan;
      t.rings_episode = 0;
    }
    if (t.graft != obs::kNoSpan) {  // a prior graft never delivered
      spans.close(t.graft, now, obs::SpanStatus::kSuperseded);
    }
    // Adoption → first payload through the new branch.
    t.graft = spans.open("graft", at, now, t.outage);
    spans.attr(t.graft, "responder", static_cast<double>(msg.responder));
  }
  // Install the graft at → … → responder. JoinReq along the path wires
  // the interior and registers us at the responder.
  send_join_along(at, msg.path);
  s.last_upstream = simulator_->now();
  if (hardened()) {
    // Let the graft settle before re-declaring the upstream dead, but do
    // NOT fake data freshness: a node that merely grafted must not serve
    // other repairs as if it were receiving — that optimism lets two dead
    // nodes resuscitate each other forever (zombie repair cycles, found
    // by the chaos soak).
    s.repair_grace = simulator_->now() + config_.upstream_timeout;
  } else {
    s.last_data = simulator_->now();  // legacy optimism
  }
}

std::optional<mcast::MulticastTree> DistributedSession::snapshot_tree() const {
  const net::Graph& g = network_->graph();
  mcast::MulticastTree tree(g, source_);
  std::vector<net::NodeId> members;
  for (net::NodeId n = 0; n < g.node_count(); ++n) {
    if (agent(n).is_member) members.push_back(n);
  }
  // Graft shorter chains first so later ones can stop at existing nodes.
  std::vector<std::vector<net::NodeId>> chains;
  for (const net::NodeId m : members) {
    std::vector<net::NodeId> chain;
    net::NodeId cur = m;
    int guard = 0;
    while (cur != net::kNoNode && cur != source_) {
      chain.push_back(cur);
      cur = agent(cur).parent;
      if (++guard > g.node_count()) return std::nullopt;  // cycle mid-churn
    }
    if (cur == net::kNoNode) return std::nullopt;  // orphaned member
    chain.push_back(source_);
    chains.push_back(std::move(chain));
  }
  std::sort(chains.begin(), chains.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  for (const auto& chain : chains) {
    const net::NodeId m = chain.front();
    if (tree.on_tree(m)) {
      tree.graft(m, {});
      continue;
    }
    std::vector<net::NodeId> graft;
    for (const net::NodeId n : chain) {
      graft.push_back(n);
      if (tree.on_tree(n)) break;
    }
    // path_links() rejects a non-adjacent hop and graft() the rest;
    // inconsistent chains (e.g. parent pointers across down links
    // mid-repair) abort.
    try {
      tree.graft(m, net::path_links(g, graft));
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return tree;
}

}  // namespace smrp::proto
