// CONC001 clean fixture: the legal patterns — scheduling into your own
// site's simulator, crossing sites through the channel API, reads on a
// selected site, and engine-aware runners (they take the SiteEngine, so
// they own the cross-LP coordination) receiving a selected site's
// simulator.

struct SiteEngine;

struct SimC1 {
  void schedule(long delay_ns, void (*cb)());
  void schedule_at(long at_ns, void (*cb)());
  long now() const { return now_ns_; }
  long now_ns_ = 0;
};

struct EngineC1 {
  SimC1& site(int i);
};

struct Channel {
  void push(long arrival, void (*cb)());
};

void tick() {}

// A site's own code holding its own simulator reference is fine.
void local_work(SimC1& my_site, long delay_ns) {
  my_site.schedule(delay_ns, &tick);
  my_site.schedule_at(delay_ns + 25, &tick);
}

// Crossing the LP boundary through the channel is the supported path.
void cross_site(Channel& ch, long now, long lookahead) {
  ch.push(now + lookahead, &tick);
}

// Engine-aware: takes the SiteEngine alongside the site simulator, so
// it synchronizes LP crossings itself (like core::run_iozone).
void drive_site(SimC1& s, long d_ns, SiteEngine* eng) {
  (void)eng;
  s.schedule(d_ns, &tick);
}

long observe_only(EngineC1& eng) {
  // `now` has no path to schedule in the call graph: reading a
  // selected site's clock is not an injection.
  return eng.site(0).now();
}

void run_engine_aware(EngineC1& eng, long d_ns, SiteEngine* se) {
  drive_site(eng.site(1), d_ns, se);
}
