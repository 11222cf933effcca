// Deterministic WAN fault injection.
//
// A FaultPlan attaches to one Link and drives four fault sources:
//
//   - Gilbert–Elliott bursty loss: a two-state (good/bad) Markov chain
//     advanced per packet, with a state-dependent drop probability —
//     the standard model for correlated WAN loss, which i.i.d.
//     `loss_rate` cannot reproduce.
//   - Link flaps: scheduled down/up windows. Going down kills whatever
//     is on the wire and pauses the serializer (see Link::set_down).
//   - Jitter: bounded uniform extra per-packet propagation delay.
//   - Brownouts: temporary squeezes of the WAN send buffer.
//
// Every random draw comes from a *named* RNG stream derived from the
// run seed (Simulator::rng_stream), never from Simulator::rng() — so a
// run with faults enabled-but-inert is byte-identical to one without
// the plan, and the committed CSVs stay reproducible.
//
// Plans load from JSON (times in microseconds):
//
//   {
//     "gilbert_elliott": { "p_good_to_bad": 0.01, "p_bad_to_good": 0.2,
//                          "loss_good": 0.0, "loss_bad": 0.3 },
//     "jitter_max_us": 20,
//     "flaps":     [ { "down_at_us": 5000, "down_for_us": 800 } ],
//     "brownouts": [ { "at_us": 20000, "for_us": 5000,
//                      "buffer_bytes": 16384 } ]
//   }
//
// Benches accept `--faults plan.json` (bench::init); core::Testbed
// applies the process-global plan to both WAN directions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace ibwan::net {

/// Two-state Gilbert–Elliott bursty-loss parameters. All probabilities
/// are per packet.
struct GilbertElliott {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 0.0;
  double loss_good = 0.0;
  double loss_bad = 0.0;

  bool enabled() const {
    return p_good_to_bad > 0.0 || loss_good > 0.0 || loss_bad > 0.0;
  }
};

/// One scheduled outage window (absolute simulated times).
struct FlapWindow {
  sim::Time down_at = 0;
  sim::Duration down_for = 0;
};

/// One scheduled buffer squeeze window.
struct BrownoutWindow {
  sim::Time at = 0;
  sim::Duration duration = 0;
  std::uint64_t buffer_bytes = 0;
};

struct FaultPlanConfig {
  GilbertElliott ge;
  /// Uniform extra per-packet delay in [0, jitter_max]; 0 disables.
  sim::Duration jitter_max = 0;
  std::vector<FlapWindow> flaps;
  std::vector<BrownoutWindow> brownouts;

  bool any() const {
    return ge.enabled() || jitter_max > 0 || !flaps.empty() ||
           !brownouts.empty();
  }
};

/// The benches' embedded bursty-loss plan (the examples/chaos_plan.json
/// shape): ~2% of time in the bad state, losing `loss_bad` of packets
/// in bursts there and 0.01% in the good state.
FaultPlanConfig bursty_loss_plan(double loss_bad = 0.2);

/// Drives one Link's fault hooks from a FaultPlanConfig. Construct
/// after Simulator::seed() so the named streams derive from the run
/// seed. Windows already in the past are applied at the current
/// instant; overlapping windows nest (the link comes back up / relaxes
/// when the last overlapping window ends).
class FaultPlan {
 public:
  FaultPlan(sim::Simulator& sim, Link& link, const FaultPlanConfig& cfg);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  bool in_bad_state() const { return bad_; }

 private:
  bool ge_draw();

  sim::Simulator& sim_;
  Link& link_;
  FaultPlanConfig cfg_;
  sim::Rng ge_rng_;
  sim::Rng jitter_rng_;
  bool bad_ = false;
  int down_nest_ = 0;
  int brownout_nest_ = 0;
};

/// Parses a fault plan from JSON text / a file. Returns false and sets
/// *err on malformed input. Unknown keys are rejected so typos do not
/// silently disable a fault source.
bool parse_fault_plan(const std::string& text, FaultPlanConfig* out,
                      std::string* err);
bool load_fault_plan(const std::string& path, FaultPlanConfig* out,
                     std::string* err);

/// Process-global plan applied by core::Testbed to the WAN links of
/// every fabric it builds. Set once (bench::init --faults) before
/// testbeds are constructed; sweeps read it from worker threads.
const FaultPlanConfig* global_fault_plan();
void set_global_fault_plan(const FaultPlanConfig& cfg);
void clear_global_fault_plan();

}  // namespace ibwan::net
