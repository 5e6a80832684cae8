#include "eval/multi_session.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "eval/engine.hpp"

namespace smrp::eval {

int sample_zipf(net::Rng& rng, int lo, int hi, double exponent) {
  if (lo > hi) throw std::invalid_argument("sample_zipf: lo > hi");
  const int n = hi - lo + 1;
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -exponent);
  }
  double target = rng.uniform() * total;
  for (int k = 0; k < n; ++k) {
    target -= std::pow(static_cast<double>(k + 1), -exponent);
    if (target <= 0.0) return lo + k;
  }
  return hi;
}

int sample_poisson(net::Rng& rng, double mean) {
  if (mean <= 0.0) return 0;
  // Knuth's product method: fine for the small means used here (the loop
  // runs mean+O(√mean) times).
  const double limit = std::exp(-mean);
  int k = 0;
  double product = 1.0;
  do {
    ++k;
    product *= rng.uniform();
  } while (product > limit);
  return k - 1;
}

MultiSessionDriver::MultiSessionDriver(const net::Graph& g,
                                       MultiSessionParams params)
    : g_(&g), params_(params), oracle_(g) {
  if (params_.sessions < 1) {
    throw std::invalid_argument("MultiSessionParams.sessions must be >= 1");
  }
  if (params_.min_session_size < 1 ||
      params_.max_session_size < params_.min_session_size) {
    throw std::invalid_argument("bad session size range");
  }
  // One inverse-CDF table shared by every size draw.
  const int n = params_.max_session_size - params_.min_session_size + 1;
  zipf_cdf_.reserve(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -params_.zipf_exponent);
    zipf_cdf_.push_back(total);
  }
}

const mcast::MulticastTree& MultiSessionDriver::session_tree(int i) const {
  const Session& s = sessions_.at(static_cast<std::size_t>(i));
  return s.smrp ? s.smrp->tree() : s.spf->tree();
}

bool MultiSessionDriver::try_join(Session& s, net::NodeId member,
                                  MultiSessionReport& report) {
  const mcast::MulticastTree& tree = s.smrp ? s.smrp->tree() : s.spf->tree();
  if (member == tree.source() || tree.is_member(member)) return false;
  bool joined = false;
  if (s.smrp) {
    const proto::JoinOutcome out = s.smrp->join(member);
    joined = out.joined;
    if (out.used_fallback) ++report.fallback_joins;
    report.reshapes += out.reshapes_triggered;
  } else {
    joined = s.spf->join(member);
  }
  if (joined) {
    s.members.push_back(member);
    ++report.join_ops;
  }
  return joined;
}

void MultiSessionDriver::leave(Session& s, std::size_t member_index,
                               MultiSessionReport& report) {
  const net::NodeId member = s.members[member_index];
  if (s.smrp) {
    s.smrp->leave(member);
  } else {
    s.spf->leave(member);
  }
  s.members.erase(s.members.begin() +
                  static_cast<std::ptrdiff_t>(member_index));
  ++report.leave_ops;
}

std::vector<net::NodeId> MultiSessionDriver::resolve_pool(
    const std::vector<net::NodeId>& source_pool) const {
  if (!source_pool.empty()) return source_pool;
  const net::NodeId node_count = g_->node_count();
  const int want = std::min<int>(std::max(params_.source_pool, 1), node_count);
  std::vector<net::NodeId> pool;
  pool.reserve(static_cast<std::size_t>(want));
  for (int i = 0; i < want; ++i) {
    pool.push_back(static_cast<net::NodeId>(
        (static_cast<std::int64_t>(i) * node_count) / want));
  }
  return pool;
}

void MultiSessionDriver::build_and_churn(Session& s, net::NodeId source,
                                         net::Rng& rng,
                                         MultiSessionReport& report) {
  const net::NodeId node_count = g_->node_count();
  if (params_.engine == SessionEngine::kSmrp) {
    s.smrp = std::make_unique<proto::SmrpTreeBuilder>(*g_, source,
                                                      params_.smrp, &oracle_);
  } else {
    s.spf = std::make_unique<baseline::SpfTreeBuilder>(*g_, source, &oracle_);
  }
  // Zipf size via the shared CDF table.
  const double target = rng.uniform() * zipf_cdf_.back();
  int size = params_.min_session_size;
  for (std::size_t k = 0; k < zipf_cdf_.size(); ++k) {
    if (zipf_cdf_[k] >= target) {
      size = params_.min_session_size + static_cast<int>(k);
      break;
    }
  }
  int joined = 0;
  // Random distinct members; bounded retries so a tiny graph cannot
  // stall the build when the session size nears the node count.
  for (int attempt = 0; joined < size && attempt < 4 * size + 16; ++attempt) {
    const auto member = static_cast<net::NodeId>(
        rng.below(static_cast<std::uint64_t>(node_count)));
    if (try_join(s, member, report)) ++joined;
  }
  // Churn straight after the build, all off this session's own stream.
  const int events = sample_poisson(rng, params_.churn_events_per_session);
  for (int e = 0; e < events; ++e) {
    ++report.churn_events;
    const bool do_join = s.members.empty() || rng.uniform() < 0.5;
    if (do_join) {
      const auto member = static_cast<net::NodeId>(
          rng.below(static_cast<std::uint64_t>(node_count)));
      static_cast<void>(try_join(s, member, report));
    } else {
      leave(s, rng.below(s.members.size()), report);
    }
  }
}

MultiSessionReport MultiSessionDriver::finalize(
    std::vector<MultiSessionReport> partials) {
  report_ = MultiSessionReport{};
  report_.sessions = params_.sessions;
  for (const MultiSessionReport& p : partials) {
    report_.join_ops += p.join_ops;
    report_.leave_ops += p.leave_ops;
    report_.churn_events += p.churn_events;
    report_.reshapes += p.reshapes;
    report_.fallback_joins += p.fallback_joins;
  }
  for (const Session& s : sessions_) {
    const mcast::MulticastTree& tree =
        s.smrp ? s.smrp->tree() : s.spf->tree();
    report_.aggregate_members += tree.member_count();
    report_.tree_links += static_cast<std::int64_t>(tree.tree_links().size());
    report_.total_tree_cost += tree.total_cost();
    if (s.smrp) {
      report_.reshape_attempts += s.smrp->reshape_attempts();
      report_.reshape_searches += s.smrp->reshape_searches();
    }
  }
  report_.oracle += oracle_.stats();
  return report_;
}

MultiSessionReport MultiSessionDriver::run_seeded(
    std::uint64_t seed, const std::vector<net::NodeId>& source_pool) {
  if (!sessions_.empty()) {
    throw std::logic_error("MultiSessionDriver::run_seeded called twice");
  }
  if (g_->node_count() < 2) throw std::invalid_argument("graph too small");
  const std::vector<net::NodeId> pool = resolve_pool(source_pool);

  const int workers = std::clamp(params_.workers, 1, params_.sessions);
  sessions_.resize(static_cast<std::size_t>(params_.sessions));

  std::vector<MultiSessionReport> partials(
      static_cast<std::size_t>(workers));
  std::atomic<int> next_session{0};
  auto worker = [&](int w) {
    MultiSessionReport& local = partials[static_cast<std::size_t>(w)];
    // Sessions go to whichever worker frees up first, so a few large
    // sessions do not pile onto one worker. Session i's entire random
    // stream is trial_seed(seed, i), and the partials hold integer sums
    // only — ownership, worker count, and completion order leave no
    // trace in the outcome. Every worker routes through the driver's one
    // oracle, so an SPF snapshot is computed once run-wide no matter
    // which worker needs it first (DESIGN.md §16).
    for (int i = next_session.fetch_add(1, std::memory_order_relaxed);
         i < params_.sessions;
         i = next_session.fetch_add(1, std::memory_order_relaxed)) {
      net::Rng rng(trial_seed(seed, i));
      build_and_churn(sessions_[static_cast<std::size_t>(i)],
                      pool[static_cast<std::size_t>(i) % pool.size()], rng,
                      local);
    }
  };

  if (workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) threads.emplace_back(worker, w);
    for (std::thread& t : threads) t.join();
  }
  return finalize(std::move(partials));
}

}  // namespace smrp::eval
