// CONC001 suppressed fixture: construction-time wiring schedules into
// sites before the engine starts; that is single-threaded and legal,
// but must say so.

struct SimS1 {
  void schedule(long delay_ns, void (*cb)());
  void schedule_at(long at_ns, void (*cb)());
};

struct EngineS1 {
  SimS1& site(int i);
};

void arm() {}

void prime_site(SimS1& s, long d_ns) { s.schedule(d_ns, &arm); }

void wire_up(EngineS1& eng, long d_ns) {
  // NOLINT-IBWAN(CONC001): construction-time wiring, engine not started
  prime_site(eng.site(0), d_ns);
  // NOLINT-IBWAN(CONC001): wiring phase — the engine has not started,
  // so no window is open and the injection cannot race a merge
  eng.site(0).schedule_at(0, &arm);
}
