#include "eval/script.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "net/random_graphs.hpp"
#include "net/waxman.hpp"
#include "obs/expect/checker.hpp"
#include "obs/jsonl.hpp"
#include "sim/fault_injection.hpp"
#include "smrp/harness.hpp"
#include "smrp/invariants.hpp"

namespace smrp::eval {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::invalid_argument("scenario line " + std::to_string(line) + ": " +
                              what);
}

/// Parse "key=value" settings after a topology keyword.
std::map<std::string, double> parse_settings(std::istringstream& in,
                                             int line) {
  std::map<std::string, double> out;
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) fail(line, "expected key=value: " + token);
    try {
      out[token.substr(0, eq)] = std::stod(token.substr(eq + 1));
    } catch (const std::exception&) {
      fail(line, "bad numeric value in " + token);
    }
  }
  return out;
}

double take(std::map<std::string, double>& settings, const std::string& key,
            double fallback) {
  const auto it = settings.find(key);
  if (it == settings.end()) return fallback;
  const double v = it->second;
  settings.erase(it);
  return v;
}

/// An integer setting of type T, at least `min`. Non-finite, fractional
/// and out-of-range values fail with the line number instead of reaching
/// a float-to-integer cast, which is undefined for them.
template <class T>
T take_integer(std::map<std::string, double>& settings, const std::string& key,
               T fallback, T min, int line) {
  const double value = take(settings, key, static_cast<double>(fallback));
  // 2^digits: the first value past T's range, exact as a double.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(value >= static_cast<double>(min) && value < limit) ||
      value != std::trunc(value)) {
    char shown[32];
    std::snprintf(shown, sizeof(shown), "%.17g", value);
    fail(line, key + " needs an integer of at least " + std::to_string(min) +
                   " in range, got " + shown);
  }
  return static_cast<T>(value);
}

}  // namespace

ScenarioScript ScenarioScript::parse(std::istream& in) {
  ScenarioScript script;
  bool saw_run = false;
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream tokens(raw);
    std::string command;
    if (!(tokens >> command)) continue;  // blank/comment line

    if (command == "topology") {
      std::string model;
      if (!(tokens >> model)) fail(line, "topology needs a model");
      auto settings = parse_settings(tokens, line);
      script.node_count_ = take_integer<int>(settings, "n", 60, 1, line);
      script.seed_ =
          take_integer<std::uint64_t>(settings, "seed", 1, 0, line);
      if (model == "waxman") {
        script.topology_ = Topology::kWaxman;
        script.alpha_ = take(settings, "alpha", 0.2);
        script.beta_ = take(settings, "beta", 0.3);
      } else if (model == "erdos") {
        script.topology_ = Topology::kErdosRenyi;
        script.degree_ = take(settings, "degree", 6.0);
      } else if (model == "ba") {
        script.topology_ = Topology::kBarabasiAlbert;
        script.ba_m_ = take_integer<int>(settings, "m", 2, 1, line);
      } else {
        fail(line, "unknown topology model: " + model);
      }
      if (!settings.empty()) {
        fail(line, "unknown setting: " + settings.begin()->first);
      }
    } else if (command == "mode") {
      std::string mode;
      if (!(tokens >> mode)) fail(line, "mode needs smrp|pim");
      if (mode == "smrp") {
        script.session_.mode = proto::SessionConfig::Mode::kSmrp;
      } else if (mode == "pim") {
        script.session_.mode = proto::SessionConfig::Mode::kPimSpf;
      } else {
        fail(line, "unknown mode: " + mode);
      }
    } else if (command == "dthresh") {
      if (!(tokens >> script.session_.smrp.d_thresh)) {
        fail(line, "dthresh needs a number");
      }
    } else if (command == "source") {
      if (!(tokens >> script.source_)) fail(line, "source needs a node id");
    } else if (command == "at") {
      ScriptEvent event;
      std::string action;
      if (!(tokens >> event.at >> action)) {
        fail(line, "at needs a time and an action");
      }
      if (event.at < 0) fail(line, "negative time");
      if (action == "join" || action == "leave" || action == "fail-node" ||
          action == "restore-node") {
        if (!(tokens >> event.a)) fail(line, action + " needs a node id");
        event.kind = action == "join"        ? ScriptEvent::Kind::kJoin
                     : action == "leave"     ? ScriptEvent::Kind::kLeave
                     : action == "fail-node" ? ScriptEvent::Kind::kFailNode
                                             : ScriptEvent::Kind::kRestoreNode;
      } else if (action == "fail-link" || action == "restore-link") {
        if (!(tokens >> event.a >> event.b)) {
          fail(line, action + " needs two node ids");
        }
        event.kind = action == "fail-link" ? ScriptEvent::Kind::kFailLink
                                           : ScriptEvent::Kind::kRestoreLink;
      } else if (action == "flap-link") {
        if (!(tokens >> event.a >> event.b >> event.hold)) {
          fail(line, "flap-link needs two node ids and a hold time");
        }
        if (event.hold <= 0) fail(line, "flap-link hold must be positive");
        event.kind = ScriptEvent::Kind::kFlapLink;
      } else if (action == "crash-node") {
        if (!(tokens >> event.a >> event.hold)) {
          fail(line, "crash-node needs a node id and a downtime");
        }
        if (event.hold <= 0) fail(line, "crash-node downtime must be positive");
        event.kind = ScriptEvent::Kind::kCrashRestart;
      } else if (action == "loss-burst") {
        if (!(tokens >> event.hold >> event.loss)) {
          fail(line, "loss-burst needs a duration and a probability");
        }
        tokens >> event.base_loss;  // optional restore level
        if (event.hold <= 0) fail(line, "loss-burst duration must be positive");
        if (event.loss < 0 || event.loss > 1 || event.base_loss < 0 ||
            event.base_loss > 1) {
          fail(line, "loss probabilities must be in [0, 1]");
        }
        event.kind = ScriptEvent::Kind::kLossBurst;
      } else if (action == "srlg-cut") {
        if (!(tokens >> event.srlg)) {
          fail(line, "srlg-cut needs a group name");
        }
        tokens >> event.hold;  // optional heal time; 0 = permanent
        if (event.hold < 0) fail(line, "srlg-cut heal time must be >= 0");
        event.kind = ScriptEvent::Kind::kSrlgCut;
      } else if (action == "audit") {
        event.kind = ScriptEvent::Kind::kAudit;
      } else if (action == "report") {
        event.kind = ScriptEvent::Kind::kReport;
      } else if (action == "stats") {
        event.kind = ScriptEvent::Kind::kStats;
      } else {
        fail(line, "unknown action: " + action);
      }
      script.events_.push_back(event);
    } else if (command == "trace-out") {
      if (!(tokens >> script.trace_path_)) {
        fail(line, "trace-out needs a file path");
      }
    } else if (command == "expect") {
      if (!(tokens >> script.expect_rules_)) {
        fail(line, "expect needs `core` or a rule-file path");
      }
    } else if (command == "sample-every") {
      if (!(tokens >> script.sample_period_) || script.sample_period_ <= 0) {
        fail(line, "sample-every needs a positive period (ms)");
      }
    } else if (command == "srlg") {
      std::string name;
      if (!(tokens >> name)) fail(line, "srlg needs a group name");
      if (script.srlgs_.count(name) != 0) {
        fail(line, "duplicate srlg group: " + name);
      }
      auto& group = script.srlgs_[name];
      std::string pair;
      while (tokens >> pair) {
        const auto dash = pair.find('-');
        if (dash == std::string::npos || dash == 0 ||
            dash + 1 >= pair.size()) {
          fail(line, "srlg links are endpoint pairs like 0-5, got: " + pair);
        }
        try {
          group.emplace_back(std::stoll(pair.substr(0, dash)),
                             std::stoll(pair.substr(dash + 1)));
        } catch (const std::exception&) {
          fail(line, "bad srlg endpoint in " + pair);
        }
      }
      if (group.empty()) fail(line, "srlg needs at least one link");
    } else if (command == "run") {
      if (!(tokens >> script.run_until_)) fail(line, "run needs a duration");
      saw_run = true;
    } else {
      fail(line, "unknown command: " + command);
    }
  }
  if (!saw_run) {
    throw std::invalid_argument("scenario: missing final `run <ms>`");
  }
  for (const ScriptEvent& e : script.events_) {
    if (e.at > script.run_until_) {
      throw std::invalid_argument("scenario: event after the run horizon");
    }
    if (e.kind == ScriptEvent::Kind::kSrlgCut &&
        script.srlgs_.count(e.srlg) == 0) {
      throw std::invalid_argument("scenario: undefined srlg group: " + e.srlg);
    }
  }
  std::stable_sort(
      script.events_.begin(), script.events_.end(),
      [](const ScriptEvent& x, const ScriptEvent& y) { return x.at < y.at; });
  return script;
}

ScenarioScript ScenarioScript::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

ScenarioScript::RunReport ScenarioScript::execute() const {
  net::Rng rng(seed_);
  net::Graph graph;
  switch (topology_) {
    case Topology::kWaxman: {
      net::WaxmanParams p;
      p.node_count = node_count_;
      p.alpha = alpha_;
      p.beta = beta_;
      graph = net::waxman_graph(p, rng);
      break;
    }
    case Topology::kErdosRenyi: {
      net::ErdosRenyiParams p;
      p.node_count = node_count_;
      p.edge_probability = degree_ / static_cast<double>(node_count_ - 1);
      graph = net::erdos_renyi_graph(p, rng);
      break;
    }
    case Topology::kBarabasiAlbert: {
      net::BarabasiAlbertParams p;
      p.node_count = node_count_;
      p.edges_per_node = ba_m_;
      graph = net::barabasi_albert_graph(p, rng);
      break;
    }
  }
  if (!graph.valid_node(source_)) {
    throw std::invalid_argument("scenario: source outside the topology");
  }

  proto::SimulationHarness harness(graph, source_, session_);
  // Telemetry is pure observation (attached runs are bit-identical to
  // detached ones), so attach whenever any directive wants to read it.
  const bool want_telemetry =
      !trace_path_.empty() || !expect_rules_.empty() || sample_period_ > 0.0 ||
      std::any_of(events_.begin(), events_.end(), [](const ScriptEvent& e) {
        return e.kind == ScriptEvent::Kind::kStats;
      });
  obs::Telemetry telemetry;
  if (sample_period_ > 0.0) telemetry.enable_sampling(sample_period_);
  if (want_telemetry) harness.attach_telemetry(&telemetry);
  // Online expectations (DESIGN.md §12): the checker taps the span/event
  // stream for the whole run, so attach before the clock moves.
  std::unique_ptr<obs::expect::ExpectationChecker> expect_checker;
  if (!expect_rules_.empty()) {
    expect_checker = std::make_unique<obs::expect::ExpectationChecker>(
        obs::expect::RuleSet::load(expect_rules_));
    expect_checker->attach(telemetry);
  }
  harness.start();

  RunReport report;
  std::vector<net::NodeId> members;
  const auto log = [&](sim::Time at, const std::string& text) {
    std::ostringstream line;
    line << "t=" << at << "ms: " << text;
    report.log.push_back(line.str());
  };

  const auto resolve_link = [&](const ScriptEvent& e) {
    const auto link = graph.link_between(e.a, e.b);
    if (!link) {
      throw std::invalid_argument("scenario: no link " + std::to_string(e.a) +
                                  "-" + std::to_string(e.b));
    }
    return *link;
  };

  // Chaos directives go through the fault-injection layer so the compound
  // faults (flap, crash/restart, burst) expand and heal on their own; the
  // controller must be armed before the clock moves.
  sim::FaultPlan plan;
  for (const ScriptEvent& e : events_) {
    switch (e.kind) {
      case ScriptEvent::Kind::kFlapLink:
        plan.flap_link(e.at, resolve_link(e), e.hold);
        break;
      case ScriptEvent::Kind::kCrashRestart:
        if (e.a == source_) {
          throw std::invalid_argument("scenario: refusing to crash the source");
        }
        plan.crash_restart(e.at, e.a, e.hold);
        break;
      case ScriptEvent::Kind::kLossBurst:
        plan.loss_burst(e.at, e.hold, e.loss, e.base_loss);
        break;
      case ScriptEvent::Kind::kSrlgCut: {
        std::vector<net::LinkId> group;
        for (const auto& [a, b] : srlgs_.at(e.srlg)) {
          const auto link = graph.link_between(a, b);
          if (!link) {
            throw std::invalid_argument(
                "scenario: srlg " + e.srlg + " has no link " +
                std::to_string(a) + "-" + std::to_string(b));
          }
          group.push_back(*link);
        }
        plan.srlg_cut(e.at, group, e.hold);
        break;
      }
      default:
        break;
    }
  }
  sim::ChaosController chaos(harness.simulator(), harness.network(), plan);
  if (!plan.actions().empty()) chaos.arm();
  const proto::InvariantChecker checker(harness.session(), harness.network());

  for (const ScriptEvent& e : events_) {
    harness.simulator().run_until(e.at);
    switch (e.kind) {
      case ScriptEvent::Kind::kJoin:
        harness.session().join(e.a);
        members.push_back(e.a);
        log(e.at, "join " + std::to_string(e.a));
        break;
      case ScriptEvent::Kind::kLeave:
        harness.session().leave(e.a);
        members.erase(std::remove(members.begin(), members.end(), e.a),
                      members.end());
        log(e.at, "leave " + std::to_string(e.a));
        break;
      case ScriptEvent::Kind::kFailLink:
        harness.network().set_link_up(resolve_link(e), false);
        log(e.at, "fail-link " + std::to_string(e.a) + "-" +
                      std::to_string(e.b));
        break;
      case ScriptEvent::Kind::kRestoreLink:
        harness.network().set_link_up(resolve_link(e), true);
        log(e.at, "restore-link " + std::to_string(e.a) + "-" +
                      std::to_string(e.b));
        break;
      case ScriptEvent::Kind::kFailNode:
        harness.network().set_node_up(e.a, false);
        log(e.at, "fail-node " + std::to_string(e.a));
        break;
      case ScriptEvent::Kind::kRestoreNode:
        harness.network().set_node_up(e.a, true);
        log(e.at, "restore-node " + std::to_string(e.a));
        break;
      case ScriptEvent::Kind::kFlapLink:
        log(e.at, "flap-link " + std::to_string(e.a) + "-" +
                      std::to_string(e.b) + " hold " + std::to_string(e.hold) +
                      "ms");
        break;
      case ScriptEvent::Kind::kCrashRestart:
        log(e.at, "crash-node " + std::to_string(e.a) + " downtime " +
                      std::to_string(e.hold) + "ms");
        break;
      case ScriptEvent::Kind::kLossBurst:
        log(e.at, "loss-burst " + std::to_string(e.loss) + " for " +
                      std::to_string(e.hold) + "ms");
        break;
      case ScriptEvent::Kind::kSrlgCut:
        log(e.at, "srlg-cut " + e.srlg + " (" +
                      std::to_string(srlgs_.at(e.srlg).size()) + " links" +
                      (e.hold > 0 ? ", heal " + std::to_string(e.hold) + "ms"
                                  : ", permanent") +
                      ")");
        break;
      case ScriptEvent::Kind::kAudit: {
        const proto::InvariantReport audit = checker.audit();
        if (audit.ok()) {
          log(e.at, "audit: invariants ok");
        } else {
          report.invariant_violations +=
              static_cast<int>(audit.violations.size());
          for (const std::string& v : audit.violations) {
            log(e.at, "audit: VIOLATION " + v);
          }
        }
        break;
      }
      case ScriptEvent::Kind::kStats: {
        const auto counter = [&](const std::string& name) {
          const auto& counters = telemetry.metrics.counters();
          const auto it = counters.find(name);
          return it != counters.end() ? it->second.value() : std::uint64_t{0};
        };
        std::uint64_t tx = 0;
        std::uint64_t drop = 0;
        for (const auto& [name, c] : telemetry.metrics.counters()) {
          if (name.rfind("smrp.sim.tx.", 0) == 0) tx += c.value();
          if (name.rfind("smrp.sim.drop.", 0) == 0) drop += c.value();
        }
        std::ostringstream text;
        text << "stats: events=" << counter("smrp.sim.events") << " tx=" << tx
             << " drop=" << drop
             << " repairs=" << counter("smrp.proto.repairs_started") << "/"
             << counter("smrp.proto.repairs_completed")
             << " spans=" << telemetry.spans.spans().size()
             << " open=" << telemetry.spans.open_count();
        log(e.at, text.str());
        break;
      }
      case ScriptEvent::Kind::kReport: {
        for (const net::NodeId m : members) {
          std::ostringstream text;
          text << "member " << m << " ";
          if (!harness.network().node_up(m)) {
            text << "is down";
          } else {
            const sim::Time last = harness.session().last_data_at(m);
            if (last < 0) {
              text << "never served";
            } else {
              text << "last data " << (e.at - last) << "ms ago";
            }
          }
          log(e.at, text.str());
        }
        break;
      }
    }
  }
  harness.simulator().run_until(run_until_);
  if (want_telemetry) {
    // Flush still-open spans as `truncated` — through the expect tap too,
    // so rules flag episodes the end of the run cut off.
    telemetry.finish(run_until_);
  }
  if (!trace_path_.empty()) {
    obs::write_jsonl_file(telemetry, run_until_, trace_path_, "scenario");
  }
  if (expect_checker != nullptr) {
    const obs::expect::ExpectReport expect = expect_checker->report();
    report.expect_violations = static_cast<int>(expect.total_violations());
    report.expect_table = expect.render();
    for (const obs::expect::RuleOutcome& rule : expect.rules) {
      if (rule.ok()) continue;
      log(run_until_, "expect: VIOLATION " + rule.name + " (" +
                          std::to_string(rule.violations) + "x, first " +
                          rule.first->to_string() + ")");
    }
    log(run_until_,
        "expect: " + std::to_string(expect.rules.size()) + " rules, " +
            std::to_string(expect.total_violations()) + " violations");
  }

  report.members_at_end = static_cast<int>(members.size());
  for (const net::NodeId m : members) {
    if (!harness.network().node_up(m)) continue;  // dead, not starved
    const sim::Time last = harness.session().last_data_at(m);
    const bool starved =
        last < 0 || run_until_ - last > 4 * session_.data_interval +
                                            2 * session_.refresh_interval;
    if (starved) ++report.starved_members_at_end;
  }
  report.repairs_completed = harness.session().repairs_completed();
  return report;
}

}  // namespace smrp::eval
