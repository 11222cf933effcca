#include "net/faults.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <utility>

namespace ibwan::net {

namespace {

// ---- Minimal JSON reader -------------------------------------------
//
// Enough JSON for fault plans: objects, arrays, numbers, strings,
// booleans, null. No dependencies, rejects trailing garbage, reports
// the byte offset of the first error.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Key order preserved so "unknown key" errors are stable.
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* err)
      : text_(text), err_(err) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (err_ && err_->empty())
      *err_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue* out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return parse_string(&out->string);
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_keyword(JsonValue* out) {
    auto match = [this](const char* kw) {
      const std::size_t n = std::string(kw).size();
      if (text_.compare(pos_, n, kw) != 0) return false;
      pos_ += n;
      return true;
    };
    if (match("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (match("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return true;
    }
    if (match("null")) {
      out->type = JsonValue::Type::kNull;
      return true;
    }
    return fail("invalid keyword");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return fail("expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    out->type = JsonValue::Type::kNumber;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          default: return fail("unsupported escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return fail("unterminated string");
  }

  /// Containers recurse through parse_value; a hostile input of "[[[["
  /// repeated would otherwise turn into unbounded C++ stack growth.
  static constexpr int kMaxDepth = 64;

  struct DepthGuard {
    explicit DepthGuard(int& depth) : depth_(depth) { ++depth_; }
    ~DepthGuard() { --depth_; }
    int& depth_;
  };

  bool parse_array(JsonValue* out) {
    const DepthGuard guard(depth_);
    if (depth_ > kMaxDepth) return fail("nesting deeper than 64 levels");
    out->type = JsonValue::Type::kArray;
    consume('[');
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue v;
      skip_ws();
      if (!parse_value(&v)) return false;
      out->array.push_back(std::move(v));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue* out) {
    const DepthGuard guard(depth_);
    if (depth_ > kMaxDepth) return fail("nesting deeper than 64 levels");
    out->type = JsonValue::Type::kObject;
    consume('{');
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      // A duplicated key means one of the two settings would silently
      // win; refuse the plan instead of guessing which one was meant.
      if (out->find(key) != nullptr)
        return fail("duplicate key \"" + key + "\"");
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      JsonValue v;
      if (!parse_value(&v)) return false;
      out->object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::string* err_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

// ---- JSON -> FaultPlanConfig ---------------------------------------

bool reject_unknown_keys(const JsonValue& obj,
                         std::initializer_list<const char*> known,
                         const char* where, std::string* err) {
  for (const auto& [key, value] : obj.object) {
    if (std::find_if(known.begin(), known.end(), [&](const char* k) {
          return key == k;
        }) == known.end()) {
      if (err) *err = std::string("unknown key \"") + key + "\" in " + where;
      return false;
    }
  }
  return true;
}

bool get_number(const JsonValue& obj, const char* key, const char* where,
                double* out, std::string* err) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;  // optional, keep default
  if (v->type != JsonValue::Type::kNumber) {
    if (err)
      *err = std::string("\"") + key + "\" in " + where + " must be a number";
    return false;
  }
  *out = v->number;
  return true;
}

sim::Duration us_to_ns(double us) {
  return static_cast<sim::Duration>(us * 1000.0);
}

// Value validation: casting a NaN/infinite/negative double to the
// unsigned Duration type is undefined behaviour, and a probability
// outside [0, 1] silently saturates the Gilbert-Elliott chain. Bound
// times to ~11.5 simulated days (1e12 us) so the ns conversion cannot
// overflow either.
constexpr double kMaxPlanUs = 1e12;

bool check_probability(double v, const char* key, const char* where,
                       std::string* err) {
  if (std::isfinite(v) && v >= 0.0 && v <= 1.0) return true;
  if (err)
    *err = std::string("\"") + key + "\" in " + where +
           " must be a probability in [0, 1]";
  return false;
}

bool check_duration_us(double v, const char* key, const char* where,
                       std::string* err) {
  if (std::isfinite(v) && v >= 0.0 && v <= kMaxPlanUs) return true;
  if (err)
    *err = std::string("\"") + key + "\" in " + where +
           " must be a duration in [0, 1e12] us";
  return false;
}

bool check_byte_count(double v, const char* key, const char* where,
                      std::string* err) {
  if (std::isfinite(v) && v >= 0.0 && v <= 9.0e18) return true;
  if (err)
    *err = std::string("\"") + key + "\" in " + where +
           " must be a byte count in [0, 9e18]";
  return false;
}

bool parse_ge(const JsonValue& v, GilbertElliott* ge, std::string* err) {
  if (v.type != JsonValue::Type::kObject) {
    if (err) *err = "\"gilbert_elliott\" must be an object";
    return false;
  }
  if (!reject_unknown_keys(
          v, {"p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"},
          "gilbert_elliott", err))
    return false;
  if (!get_number(v, "p_good_to_bad", "gilbert_elliott", &ge->p_good_to_bad,
                  err) ||
      !get_number(v, "p_bad_to_good", "gilbert_elliott", &ge->p_bad_to_good,
                  err) ||
      !get_number(v, "loss_good", "gilbert_elliott", &ge->loss_good, err) ||
      !get_number(v, "loss_bad", "gilbert_elliott", &ge->loss_bad, err))
    return false;
  return check_probability(ge->p_good_to_bad, "p_good_to_bad",
                           "gilbert_elliott", err) &&
         check_probability(ge->p_bad_to_good, "p_bad_to_good",
                           "gilbert_elliott", err) &&
         check_probability(ge->loss_good, "loss_good", "gilbert_elliott",
                           err) &&
         check_probability(ge->loss_bad, "loss_bad", "gilbert_elliott", err);
}

bool parse_flaps(const JsonValue& v, std::vector<FlapWindow>* out,
                 std::string* err) {
  if (v.type != JsonValue::Type::kArray) {
    if (err) *err = "\"flaps\" must be an array";
    return false;
  }
  for (const JsonValue& w : v.array) {
    if (w.type != JsonValue::Type::kObject) {
      if (err) *err = "\"flaps\" entries must be objects";
      return false;
    }
    if (!reject_unknown_keys(w, {"down_at_us", "down_for_us"}, "flaps", err))
      return false;
    double at = 0, dur = 0;
    if (!get_number(w, "down_at_us", "flaps", &at, err) ||
        !get_number(w, "down_for_us", "flaps", &dur, err))
      return false;
    if (!check_duration_us(at, "down_at_us", "flaps", err) ||
        !check_duration_us(dur, "down_for_us", "flaps", err))
      return false;
    out->push_back(FlapWindow{us_to_ns(at), us_to_ns(dur)});
  }
  return true;
}

bool parse_brownouts(const JsonValue& v, std::vector<BrownoutWindow>* out,
                     std::string* err) {
  if (v.type != JsonValue::Type::kArray) {
    if (err) *err = "\"brownouts\" must be an array";
    return false;
  }
  for (const JsonValue& w : v.array) {
    if (w.type != JsonValue::Type::kObject) {
      if (err) *err = "\"brownouts\" entries must be objects";
      return false;
    }
    if (!reject_unknown_keys(w, {"at_us", "for_us", "buffer_bytes"},
                             "brownouts", err))
      return false;
    double at = 0, dur = 0, bytes = 0;
    if (!get_number(w, "at_us", "brownouts", &at, err) ||
        !get_number(w, "for_us", "brownouts", &dur, err) ||
        !get_number(w, "buffer_bytes", "brownouts", &bytes, err))
      return false;
    if (!check_duration_us(at, "at_us", "brownouts", err) ||
        !check_duration_us(dur, "for_us", "brownouts", err) ||
        !check_byte_count(bytes, "buffer_bytes", "brownouts", err))
      return false;
    out->push_back(BrownoutWindow{us_to_ns(at), us_to_ns(dur),
                                  static_cast<std::uint64_t>(bytes)});
  }
  return true;
}

std::optional<FaultPlanConfig>& global_plan_slot() {
  // NOLINT-IBWAN(CONC003): loaded once from --faults before the engine
  // starts; read-only while LPs run
  static std::optional<FaultPlanConfig> plan;
  return plan;
}

}  // namespace

FaultPlan::FaultPlan(sim::Simulator& sim, Link& link,
                     const FaultPlanConfig& cfg)
    : sim_(sim),
      link_(link),
      cfg_(cfg),
      ge_rng_(sim.rng_stream(link.name() + "/faults.ge")),
      jitter_rng_(sim.rng_stream(link.name() + "/faults.jitter")) {
  if (cfg_.ge.enabled()) {
    link_.set_loss_model([this](const Packet&) { return ge_draw(); });
  }
  if (cfg_.jitter_max > 0) {
    link_.set_jitter_model([this] {
      return static_cast<sim::Duration>(jitter_rng_.uniform(
          static_cast<std::uint64_t>(cfg_.jitter_max) + 1));
    });
  }
  const sim::Time now = sim_.now();
  for (const FlapWindow& w : cfg_.flaps) {
    sim_.schedule_at(std::max(now, w.down_at), [this] {
      if (down_nest_++ == 0) link_.set_down(true);
    });
    sim_.schedule_at(std::max(now, w.down_at + w.down_for), [this] {
      if (--down_nest_ == 0) link_.set_down(false);
    });
  }
  if (!cfg_.flaps.empty()) {
    // Static union of the scheduled outages, for the channel-mode
    // in-flight kill check (Link::set_down_schedule). Replay the exact
    // event sequence scheduled above — (time, schedule order), nest
    // counting — and record every 0→1 transition.
    std::vector<std::pair<sim::Time, int>> edges;
    edges.reserve(cfg_.flaps.size() * 2);
    for (const FlapWindow& w : cfg_.flaps) {
      edges.emplace_back(std::max(now, w.down_at), +1);
      edges.emplace_back(std::max(now, w.down_at + w.down_for), -1);
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<sim::Time> starts;
    int nest = 0;
    for (const auto& [t, d] : edges) {
      if (d > 0 && nest == 0) starts.push_back(t);
      nest += d;
    }
    link_.set_down_schedule(std::move(starts));
  }
  for (const BrownoutWindow& w : cfg_.brownouts) {
    const std::uint64_t bytes = w.buffer_bytes;
    sim_.schedule_at(std::max(now, w.at), [this, bytes] {
      ++brownout_nest_;
      link_.set_buffer_override(bytes);
    });
    sim_.schedule_at(std::max(now, w.at + w.duration), [this] {
      if (--brownout_nest_ == 0) link_.clear_buffer_override();
    });
  }
}

bool FaultPlan::ge_draw() {
  // Advance the chain first, then draw loss from the new state, so a
  // burst can start on the packet that enters the bad state.
  if (bad_) {
    if (ge_rng_.chance(cfg_.ge.p_bad_to_good)) bad_ = false;
  } else {
    if (ge_rng_.chance(cfg_.ge.p_good_to_bad)) bad_ = true;
  }
  return ge_rng_.chance(bad_ ? cfg_.ge.loss_bad : cfg_.ge.loss_good);
}

bool parse_fault_plan(const std::string& text, FaultPlanConfig* out,
                      std::string* err) {
  if (err) err->clear();
  JsonValue root;
  JsonParser parser(text, err);
  if (!parser.parse(&root)) return false;
  if (root.type != JsonValue::Type::kObject) {
    if (err) *err = "fault plan must be a JSON object";
    return false;
  }
  if (!reject_unknown_keys(
          root, {"gilbert_elliott", "jitter_max_us", "flaps", "brownouts"},
          "fault plan", err))
    return false;
  FaultPlanConfig cfg;
  if (const JsonValue* ge = root.find("gilbert_elliott")) {
    if (!parse_ge(*ge, &cfg.ge, err)) return false;
  }
  double jitter_us = 0.0;
  if (!get_number(root, "jitter_max_us", "fault plan", &jitter_us, err))
    return false;
  if (!check_duration_us(jitter_us, "jitter_max_us", "fault plan", err))
    return false;
  cfg.jitter_max = us_to_ns(jitter_us);
  if (const JsonValue* flaps = root.find("flaps")) {
    if (!parse_flaps(*flaps, &cfg.flaps, err)) return false;
  }
  if (const JsonValue* brownouts = root.find("brownouts")) {
    if (!parse_brownouts(*brownouts, &cfg.brownouts, err)) return false;
  }
  *out = std::move(cfg);
  return true;
}

bool load_fault_plan(const std::string& path, FaultPlanConfig* out,
                     std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_fault_plan(text, out, err);
}

FaultPlanConfig bursty_loss_plan(double loss_bad) {
  FaultPlanConfig plan;
  plan.ge.p_good_to_bad = 0.002;
  plan.ge.p_bad_to_good = 0.1;
  plan.ge.loss_good = 0.0001;
  plan.ge.loss_bad = loss_bad;
  return plan;
}

const FaultPlanConfig* global_fault_plan() {
  const auto& slot = global_plan_slot();
  return slot.has_value() ? &*slot : nullptr;
}

void set_global_fault_plan(const FaultPlanConfig& cfg) {
  global_plan_slot() = cfg;
}

void clear_global_fault_plan() { global_plan_slot().reset(); }

}  // namespace ibwan::net
