// CONC001 fixture: scheduling into a selected site, which bypasses the
// WAN channel API (sim::SiteEngine / DESIGN.md §13).  The direct form
// `site(i).schedule(...)` is a call chain of length zero; the pass-1
// call graph also catches methods and free functions that reach
// Simulator::schedule transitively.

struct Sim {
  void schedule(long delay_ns, void (*cb)());
  void schedule_at(long at_ns, void (*cb)());
  // A method that schedules: calling it on a selected site injects an
  // event without crossing a Channel.
  void fire_later(long delay_ns, void (*cb)()) { schedule(delay_ns, cb); }
};

struct Engine {
  Sim& site(int i);
};

struct Fabric {
  Sim& sim_of(int cluster);
  Sim& sim_of_node(unsigned node);
};

struct Testbed {
  Sim& sim_a();
  Sim& sim_b();
  Sim& sim_for(unsigned node);
};

void poke() {}

// Free function that schedules into whatever simulator it is handed.
void relay_into(Sim& s, long d_ns) { s.schedule(d_ns, &poke); }

// Two hops: still reachable in the call graph.
void relay_hop(Sim& s, long d_ns) { relay_into(s, d_ns); }

void direct_form(Engine& eng, Fabric& fab, Testbed& tb, long at_ns) {
  eng.site(1).schedule_at(at_ns, &poke);         // EXPECT-IBWAN(CONC001)
  fab.sim_of(1).schedule(at_ns, &poke);          // EXPECT-IBWAN(CONC001)
  fab.sim_of_node(7).schedule_at(at_ns, &poke);  // EXPECT-IBWAN(CONC001)
  tb.sim_b().schedule(at_ns, &poke);             // EXPECT-IBWAN(CONC001)
  tb.sim_for(2).schedule_at(at_ns, &poke);       // EXPECT-IBWAN(CONC001)
}

void chain_form(Engine& eng, long d_ns) {
  eng.site(1).fire_later(d_ns, &poke);  // EXPECT-IBWAN(CONC001)
}

void arg_form(Engine& eng, long d_ns) {
  relay_into(eng.site(2), d_ns);  // EXPECT-IBWAN(CONC001)
  relay_hop(eng.site(3), d_ns);   // EXPECT-IBWAN(CONC001)
}
