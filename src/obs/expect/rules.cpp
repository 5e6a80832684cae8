#include "obs/expect/rules.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace smrp::obs::expect {

namespace {

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += ',';
    out += parts[i];
  }
  return out;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

/// Formats like the JSONL exporter (%g): integral caps render without a
/// trailing ".0" so describe() round-trips through the parser.
std::string format_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::invalid_argument("rules line " + std::to_string(line) + ": " +
                              what);
}

}  // namespace

std::string Rule::describe() const {
  switch (check) {
    case Check::kStatus:
      return "status " + subject + " " + join(allowed);
    case Check::kChild:
      return "child " + subject + " " + std::to_string(min_children) + " " +
             join(child_kinds);
    case Check::kAttrLe:
      return "attr-le " + subject + " " + attr + " " +
             (cap_attr.empty() ? format_number(cap_value) : cap_attr);
    case Check::kFlag:
      return "flag " + subject + " " + attr;
    case Check::kMonotone:
      return "monotone " + subject + " " + attr;
    case Check::kFollows:
      return "follows " + subject + " " + follow_kind +
             (gate_attr.empty() ? "" : " if " + gate_attr);
  }
  return "?";
}

Rule& RuleSet::add(Check check, std::string name, std::string subject) {
  if (name.empty()) throw std::invalid_argument("rule needs a name");
  if (subject.empty()) throw std::invalid_argument("rule needs a subject");
  for (const Rule& r : rules_) {
    if (r.name == name) {
      throw std::invalid_argument("duplicate rule name: " + name);
    }
  }
  Rule rule;
  rule.check = check;
  rule.name = std::move(name);
  rule.subject = std::move(subject);
  rules_.push_back(std::move(rule));
  return rules_.back();
}

RuleSet& RuleSet::require_status(std::string name, std::string span_kind,
                                 std::vector<std::string> allowed) {
  if (allowed.empty()) {
    throw std::invalid_argument("status rule needs at least one status");
  }
  add(Check::kStatus, std::move(name), std::move(span_kind)).allowed =
      std::move(allowed);
  return *this;
}

RuleSet& RuleSet::require_child(std::string name, std::string span_kind,
                                int min_children,
                                std::vector<std::string> kinds) {
  if (min_children < 1) {
    throw std::invalid_argument("child rule needs min >= 1");
  }
  if (kinds.empty()) {
    throw std::invalid_argument("child rule needs at least one child kind");
  }
  Rule& rule = add(Check::kChild, std::move(name), std::move(span_kind));
  rule.min_children = min_children;
  rule.child_kinds = std::move(kinds);
  return *this;
}

RuleSet& RuleSet::require_attr_le(std::string name, std::string span_kind,
                                  std::string attr, std::string cap_attr) {
  if (attr.empty() || cap_attr.empty()) {
    throw std::invalid_argument("attr-le rule needs an attr and a cap");
  }
  Rule& rule = add(Check::kAttrLe, std::move(name), std::move(span_kind));
  rule.attr = std::move(attr);
  rule.cap_attr = std::move(cap_attr);
  return *this;
}

RuleSet& RuleSet::require_attr_le(std::string name, std::string span_kind,
                                  std::string attr, double cap_value) {
  if (attr.empty()) {
    throw std::invalid_argument("attr-le rule needs an attr");
  }
  Rule& rule = add(Check::kAttrLe, std::move(name), std::move(span_kind));
  rule.attr = std::move(attr);
  rule.cap_value = cap_value;
  return *this;
}

RuleSet& RuleSet::require_flag(std::string name, std::string event_kind,
                               std::string attr) {
  if (attr.empty()) throw std::invalid_argument("flag rule needs an attr");
  add(Check::kFlag, std::move(name), std::move(event_kind)).attr =
      std::move(attr);
  return *this;
}

RuleSet& RuleSet::require_monotone(std::string name, std::string event_kind,
                                   std::string attr) {
  if (attr.empty()) throw std::invalid_argument("monotone rule needs an attr");
  add(Check::kMonotone, std::move(name), std::move(event_kind)).attr =
      std::move(attr);
  return *this;
}

RuleSet& RuleSet::require_follows(std::string name, std::string event_kind,
                                  std::string follow_kind,
                                  std::string gate_attr) {
  if (follow_kind.empty()) {
    throw std::invalid_argument("follows rule needs a follow kind");
  }
  Rule& rule = add(Check::kFollows, std::move(name), std::move(event_kind));
  rule.follow_kind = std::move(follow_kind);
  rule.gate_attr = std::move(gate_attr);
  return *this;
}

RuleSet RuleSet::parse(std::istream& in) {
  RuleSet set;
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream tokens(raw);
    std::string command;
    if (!(tokens >> command)) continue;  // blank/comment line
    if (command != "rule") fail(line, "expected `rule`, got: " + command);
    std::string name;
    std::string check;
    if (!(tokens >> name >> check)) fail(line, "rule needs a name and a check");
    // Builder preconditions (duplicate names, empty lists) surface with
    // the offending line number.
    const auto guarded = [line](auto&& build) {
      try {
        build();
      } catch (const std::invalid_argument& e) {
        fail(line, e.what());
      }
    };
    if (check == "status") {
      std::string subject;
      std::string allowed;
      if (!(tokens >> subject >> allowed)) {
        fail(line, "status needs a span kind and allowed statuses");
      }
      guarded([&] { set.require_status(name, subject, split_commas(allowed)); });
    } else if (check == "child") {
      std::string subject;
      int min_children = 0;
      std::string kinds;
      if (!(tokens >> subject >> min_children >> kinds)) {
        fail(line, "child needs a span kind, a minimum, and child kinds");
      }
      guarded([&] {
        set.require_child(name, subject, min_children, split_commas(kinds));
      });
    } else if (check == "attr-le") {
      std::string subject;
      std::string attr;
      std::string cap;
      if (!(tokens >> subject >> attr >> cap)) {
        fail(line, "attr-le needs a span kind, an attr, and a cap");
      }
      bool numeric_cap = false;
      double cap_value = 0.0;
      try {
        std::size_t used = 0;
        cap_value = std::stod(cap, &used);
        numeric_cap = used == cap.size();
      } catch (const std::exception&) {
        numeric_cap = false;  // cap names another attribute
      }
      guarded([&] {
        if (numeric_cap) {
          set.require_attr_le(name, subject, attr, cap_value);
        } else {
          set.require_attr_le(name, subject, attr, cap);
        }
      });
    } else if (check == "flag") {
      std::string subject;
      std::string attr;
      if (!(tokens >> subject >> attr)) {
        fail(line, "flag needs an event kind and an attr");
      }
      guarded([&] { set.require_flag(name, subject, attr); });
    } else if (check == "monotone") {
      std::string subject;
      std::string attr;
      if (!(tokens >> subject >> attr)) {
        fail(line, "monotone needs an event kind and an attr");
      }
      guarded([&] { set.require_monotone(name, subject, attr); });
    } else if (check == "follows") {
      std::string subject;
      std::string follow;
      if (!(tokens >> subject >> follow)) {
        fail(line, "follows needs two event kinds");
      }
      std::string keyword;
      std::string gate;
      if (tokens >> keyword) {
        if (keyword != "if" || !(tokens >> gate)) {
          fail(line, "follows tail must be `if <attr>`");
        }
      }
      guarded([&] { set.require_follows(name, subject, follow, gate); });
    } else {
      fail(line, "unknown check: " + check);
    }
    std::string trailing;
    if (tokens >> trailing) fail(line, "trailing token: " + trailing);
  }
  return set;
}

RuleSet RuleSet::parse_text(std::string_view text) {
  std::istringstream in{std::string(text)};
  return parse(in);
}

RuleSet RuleSet::load(const std::string& path_or_core) {
  if (path_or_core == "core") return smrp_core();
  std::ifstream in(path_or_core);
  if (!in) {
    throw std::invalid_argument("cannot open rule file: " + path_or_core);
  }
  return parse(in);
}

std::string_view RuleSet::smrp_core_text() {
  // The SMRP conformance contract (rationale in DESIGN.md §12). Every rule
  // is mutation-tested: each SessionConfig::Mutations flag — the legacy
  // repair path, the forward-everything guard, and the ring-budget-
  // ignoring repair — trips at least one of these under the 50-fault
  // chaos soak, while the unmutated protocol passes all.
  return
      "# SMRP core protocol expectations\n"
      "# Every outage must resolve: restored (ok) or mooted by a prune /\n"
      "# relay restart (superseded). A truncated outage is a member still\n"
      "# dark when the run ended.\n"
      "rule outage-resolves status outage ok,superseded\n"
      "# Repair machinery must be resolved by the protocol itself, never\n"
      "# cut off by the end-of-run flush.\n"
      "rule repair-resolves status repair ok,failed,superseded\n"
      "rule ring-resolves status ring ok,failed,superseded\n"
      "# A restored outage must show how: a repair episode, an adopted\n"
      "# graft, a routed fallback, or a crash/stranded rejoin.\n"
      "rule outage-has-recovery child outage 1 repair,graft,fallback,rejoin\n"
      "# Ring searches never exceed the configured cross-episode budget.\n"
      "rule ring-within-budget attr-le ring ttl ttl_cap\n"
      "# Data is forwarded only by on-tree nodes, and only when it arrived\n"
      "# from the forwarder's current parent (or originated at the source).\n"
      "rule forward-on-tree flag forward on_tree\n"
      "rule forward-from-parent flag forward from_parent\n"
      "# No payload nonce is delivered twice to a member: per-member\n"
      "# delivered sequence numbers strictly increase.\n"
      "rule no-duplicate-delivery monotone deliver seq\n"
      "# A crashed member must complete its rejoin: payload delivery must\n"
      "# follow every member restart before the run ends.\n"
      "rule restart-rejoins follows restart deliver if member\n"
      "# Every restored outage must be confirmed in-protocol: the source's\n"
      "# convergence wave (DESIGN.md §13) must declare the tree settled\n"
      "# after the member came back, closing a convergence span under the\n"
      "# outage. Superseded outages (pruned/restarted members) are exempt.\n"
      "rule outage-has-convergence child outage 1 convergence\n"
      "# In-protocol detection can only lag the omniscient restoration\n"
      "# clock, never lead it: the oracle outage duration is a lower bound\n"
      "# on the detected one (skew_ms = detected_ms - total_ms >= 0).\n"
      "rule convergence-never-early attr-le convergence total_ms detected_ms\n";
}

RuleSet RuleSet::smrp_core() { return parse_text(smrp_core_text()); }

std::string RuleSet::to_text() const {
  std::string out;
  for (const Rule& rule : rules_) {
    out += "rule " + rule.name + " " + rule.describe() + "\n";
  }
  return out;
}

}  // namespace smrp::obs::expect
