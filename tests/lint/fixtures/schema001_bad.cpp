// SCHEMA001 fixture: metric/trace names drifting from the documented
// schema (fixtures/metrics_docs.md stands in for docs/METRICS.md).

struct MetricsRegistryB;
struct CounterB;

namespace stdfix {
const char* to_string(int);
}

struct RegB {
  CounterB& counter(const char* scope, const char* name);
  CounterB& gauge(const char* scope, const char* name);
};

namespace simfix_b {
enum MetricUnit { kCount, kBytes };
}

// A component's field exports: (scope, "leaf", unit, field).
struct ExportsB {
  void counter(const char* scope, const char* name, simfix_b::MetricUnit unit,
               const unsigned long* field);
};

void register_bad(RegB& m, ExportsB& exports, const unsigned long* field) {
  const char* scope = "node3/fix.layer";
  m.counter(scope, "undocumented_metric");  // EXPECT-IBWAN(SCHEMA001)
  // Documented as a gauge; registering it as a counter is drift too.
  m.counter(scope, "wrong_kind");  // EXPECT-IBWAN(SCHEMA001)
  // Documented in bytes: the unit is the third argument even when a
  // bound field follows it.
  exports.counter(scope, "good_bytes", simfix_b::kCount, field);  // EXPECT-IBWAN(SCHEMA001)
}

const char* trace_kind_name(int kind) {
  switch (kind) {
    case 0:
      return "good-trace";
    case 1:
      return "rogue-trace";  // EXPECT-IBWAN(SCHEMA001)
  }
  return "?";
}
