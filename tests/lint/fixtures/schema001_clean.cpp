// SCHEMA001 clean fixture: registrations and trace kinds that match
// fixtures/metrics_docs.md exactly, including the production idiom of
// building the scope from a node prefix at runtime.

struct CounterC;

struct RegC {
  CounterC& counter(const char* scope, const char* name);
  CounterC& counter3(const char* scope, const char* name, int unit);
};

namespace sim_fix {
enum MetricUnit { kCount, kBytes };
}

struct RegC2 {
  CounterC& counter(const char* scope, const char* name,
                    sim_fix::MetricUnit unit);
};

// A component's field exports: the bound field rides as a fourth
// argument after the unit.
struct ExportsC {
  void counter(const char* scope, const char* name, sim_fix::MetricUnit unit,
               const unsigned long* field);
};

void register_good(RegC& m, RegC2& m2, ExportsC& exports,
                   const unsigned long* field, const char* node_prefix) {
  const char* scope = "node7/fix.layer";
  m.counter(scope, "good_metric");
  m2.counter(scope, "good_bytes", sim_fix::kBytes);
  exports.counter(scope, "good_metric", sim_fix::kCount, field);
  (void)node_prefix;
}
