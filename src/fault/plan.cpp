#include "fault/plan.h"

#include <sstream>
#include <stdexcept>

#include "common/json_writer.h"

namespace eio::fault {

namespace {

void reject_unknown_keys(const json::Object& o,
                         std::initializer_list<const char*> known,
                         const char* where) {
  for (const auto& [key, value] : o) {
    (void)value;
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      throw std::runtime_error(std::string("fault plan: unknown key '") + key +
                               "' in " + where);
    }
  }
}

[[nodiscard]] double checked_probability(const json::Value& v, const char* where) {
  double p = v.number_or("probability", 0.0);
  if (p < 0.0 || p > 1.0) {
    throw std::runtime_error(std::string("fault plan: ") + where +
                             ".probability must be in [0, 1]");
  }
  return p;
}

}  // namespace

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kOstDegraded: return "ost-degraded";
    case Kind::kOstRestored: return "ost-restored";
    case Kind::kStall: return "stall";
    case Kind::kRetry: return "retry";
    case Kind::kStragglerStall: return "straggler-stall";
  }
  return "?";
}

Plan plan_from_json(const json::Value& v) {
  Plan plan;
  const json::Object& root = v.as_object();
  reject_unknown_keys(root, {"slow_osts", "jitter", "transient", "stragglers"},
                      "faults");

  if (v.has("slow_osts")) {
    for (const json::Value& e : v.at("slow_osts").as_array()) {
      reject_unknown_keys(e.as_object(), {"ost", "factor", "from", "until"},
                          "faults.slow_osts[]");
      SlowOst s;
      s.ost = static_cast<OstId>(e.number_or("ost", 0.0));
      s.factor = e.number_or("factor", 0.25);
      s.from = e.number_or("from", 0.0);
      s.until = e.number_or("until", kForever);
      if (s.factor <= 0.0) {
        throw std::runtime_error("fault plan: slow_osts[].factor must be > 0");
      }
      if (s.until <= s.from) {
        throw std::runtime_error(
            "fault plan: slow_osts[] window must have until > from");
      }
      plan.slow_osts.push_back(s);
    }
  }

  if (v.has("jitter")) {
    const json::Value& j = v.at("jitter");
    reject_unknown_keys(j.as_object(),
                        {"probability", "mean_stall", "reads", "writes"},
                        "faults.jitter");
    plan.jitter.probability = checked_probability(j, "jitter");
    plan.jitter.mean_stall = j.number_or("mean_stall", plan.jitter.mean_stall);
    plan.jitter.reads = j.bool_or("reads", true);
    plan.jitter.writes = j.bool_or("writes", true);
  }

  if (v.has("transient")) {
    const json::Value& t = v.at("transient");
    reject_unknown_keys(t.as_object(),
                        {"probability", "max_retries", "timeout", "backoff"},
                        "faults.transient");
    plan.transient.probability = checked_probability(t, "transient");
    plan.transient.max_retries = static_cast<std::uint32_t>(
        t.number_or("max_retries", plan.transient.max_retries));
    plan.transient.timeout = t.number_or("timeout", plan.transient.timeout);
    plan.transient.backoff = t.number_or("backoff", plan.transient.backoff);
  }

  if (v.has("stragglers")) {
    const json::Value& s = v.at("stragglers");
    reject_unknown_keys(s.as_object(), {"count", "ranks", "slowdown"},
                        "faults.stragglers");
    plan.stragglers.count =
        static_cast<std::uint32_t>(s.number_or("count", 0.0));
    if (s.has("ranks")) {
      for (const json::Value& r : s.at("ranks").as_array()) {
        plan.stragglers.ranks.push_back(static_cast<RankId>(r.as_number()));
      }
    }
    plan.stragglers.slowdown = s.number_or("slowdown", plan.stragglers.slowdown);
    if (plan.stragglers.slowdown < 1.0) {
      throw std::runtime_error("fault plan: stragglers.slowdown must be >= 1");
    }
  }

  return plan;
}

std::string plan_to_json(const Plan& plan) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  if (!plan.slow_osts.empty()) {
    w.key("slow_osts").begin_array();
    for (const SlowOst& s : plan.slow_osts) {
      w.begin_object().kv("ost", s.ost).kv("factor", s.factor).kv("from", s.from);
      if (s.until < kForever) w.kv("until", s.until);
      w.end_object();
    }
    w.end_array();
  }
  if (plan.jitter.probability > 0.0) {
    w.key("jitter")
        .begin_object()
        .kv("probability", plan.jitter.probability)
        .kv("mean_stall", plan.jitter.mean_stall)
        .kv("reads", plan.jitter.reads)
        .kv("writes", plan.jitter.writes)
        .end_object();
  }
  if (plan.transient.probability > 0.0) {
    w.key("transient")
        .begin_object()
        .kv("probability", plan.transient.probability)
        .kv("max_retries", plan.transient.max_retries)
        .kv("timeout", plan.transient.timeout)
        .kv("backoff", plan.transient.backoff)
        .end_object();
  }
  if (plan.stragglers.count > 0 || !plan.stragglers.ranks.empty()) {
    w.key("stragglers").begin_object();
    if (!plan.stragglers.ranks.empty()) {
      w.key("ranks").begin_array();
      for (RankId r : plan.stragglers.ranks) w.value(r);
      w.end_array();
    } else {
      w.kv("count", plan.stragglers.count);
    }
    w.kv("slowdown", plan.stragglers.slowdown).end_object();
  }
  w.end_object();
  return os.str();
}

}  // namespace eio::fault
