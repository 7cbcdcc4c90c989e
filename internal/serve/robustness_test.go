package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"zipserv/internal/engine"
)

// mustPlan parses a fault plan or fails the test.
func mustPlan(t *testing.T, text string) *FaultPlan {
	t.Helper()
	plan, err := ParseFaultPlan(text)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// makeCall hand-assembles a call the way Server.Submit does — the
// fixture for resurrection tests that need the call object itself.
func makeCall(s *Server, promptLen, outputLen int) *call {
	id := int(s.ids.Add(1))
	c := &call{
		req: engine.Request{
			ID: id, ArrivalSeconds: ArrivalNow,
			PromptLen: promptLen, OutputLen: outputLen,
		},
		clientID:  id,
		class:     ClassInteractive,
		submitted: time.Now(),
		events:    make(chan Event, 8),
		result:    make(chan Result, 1),
	}
	c.ticket = Ticket{ID: c.clientID, events: c.events, result: c.result}
	return c
}

// TestRouterCountsAllClientVisibleRejections pins the Submit accounting
// fix: every failure a router returns to the caller must count in
// Stats.Rejected — the all-stopped and never-fits paths included, not
// just the queue-full fast failure.
func TestRouterCountsAllClientVisibleRejections(t *testing.T) {
	r, _ := newTestRouter(t, 2, 4)

	// Never-fits: no replica could ever admit it.
	if _, err := r.Submit(Request{PromptLen: 10, OutputLen: 100_000_000}); !errors.Is(err, ErrNeverFits) {
		t.Fatalf("impossible request: err = %v, want ErrNeverFits", err)
	}
	if got := r.Stats().Rejected; got != 1 {
		t.Errorf("Rejected after never-fits = %d, want 1", got)
	}

	// All-stopped: every replica refuses with ErrStopped.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(Request{PromptLen: 64, OutputLen: 8}); !errors.Is(err, ErrStopped) {
		t.Fatalf("all-stopped submit: err = %v, want ErrStopped", err)
	}
	if got := r.Stats().Rejected; got != 2 {
		t.Errorf("Rejected after all-stopped = %d, want 2", got)
	}
}

// TestStopExpiredContextForceFailsDrain pins the force-fail Stop
// contract: a context that is already expired must not abandon the
// drain silently — the scheduler promptly fails every undelivered
// request, counts them in Stats.Failed, and Stop returns ctx.Err()
// only after that accounting has landed. Run under -race in CI.
func TestStopExpiredContextForceFailsDrain(t *testing.T) {
	// TimeScale 1 paces the loop at wall speed: the long decodes below
	// cannot complete before Stop lands.
	s := newServer(t, Config{QueueDepth: 8, TimeScale: 1})
	s.Start()

	const n = 4
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := s.Submit(Request{PromptLen: 512, OutputLen: 2048})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	time.Sleep(50 * time.Millisecond) // let admission pick some up

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired on entry
	start := time.Now()
	if err := s.Stop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stop(expired) = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("force-fail Stop took %v, want prompt", waited)
	}

	for i, tk := range tickets {
		res := awaitResult(t, tk)
		if !errors.Is(res.Err, ErrStopped) {
			t.Errorf("request %d: err = %v, want ErrStopped (drain deadline)", i, res.Err)
		}
	}
	if got := s.Stats().Failed; got != n {
		t.Errorf("Stats.Failed = %d, want %d: force-failed requests must be counted", got, n)
	}
}

// TestCrashFailsLostRequestsWithoutHealth: a scripted crash on a
// standalone replica (no health router) fails every held request to
// the client and counts the loss.
func TestCrashFailsLostRequestsWithoutHealth(t *testing.T) {
	plan := mustPlan(t, "crash replica=0 at=0\n")
	s := newServer(t, Config{QueueDepth: 8, Faults: plan.Replica(0)})

	const n = 3
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := s.Submit(Request{PromptLen: 256, OutputLen: 32})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	s.Start() // crash triggers at virtual 0, before any work

	for i, tk := range tickets {
		if res := awaitResult(t, tk); !errors.Is(res.Err, ErrStopped) {
			t.Errorf("request %d: err = %v, want ErrStopped (crash)", i, res.Err)
		}
	}
	st := s.Stats()
	if st.LostRequests != n || st.Failed != n {
		t.Errorf("lost/failed = %d/%d, want %d/%d", st.LostRequests, st.Failed, n, n)
	}
	if _, err := s.Submit(Request{PromptLen: 64, OutputLen: 8}); !errors.Is(err, ErrStopped) {
		t.Errorf("post-crash submit: err = %v, want ErrStopped", err)
	}
}

// TestCrashResurrectionEndToEnd is the tentpole's core promise: with
// health-aware routing on, a replica crash loses no requests — the
// doomed replica's whole queue resurrects on the survivor and every
// client sees a normal result, flagged Resurrected.
func TestCrashResurrectionEndToEnd(t *testing.T) {
	plan := mustPlan(t, "crash replica=0 at=0\n")
	const n = 8
	doomed := newServer(t, Config{QueueDepth: n, Faults: plan.Replica(0)})
	survivor := newServer(t, Config{QueueDepth: n})
	r, err := NewRouter(doomed, survivor)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableHealth(HealthConfig{RetryBudget: 3}); err != nil {
		t.Fatal(err)
	}

	// Load the doomed replica before the fleet starts: everything it
	// holds dies with it at virtual time 0.
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := doomed.Submit(Request{PromptLen: 256, OutputLen: 16})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	r.Start()

	for i, tk := range tickets {
		res := awaitResult(t, tk)
		if res.Err != nil {
			t.Fatalf("request %d failed despite resurrection: %v", i, res.Err)
		}
		if res.Resurrected != 1 {
			t.Errorf("request %d: Resurrected = %d, want 1", i, res.Resurrected)
		}
	}
	agg := r.Stats()
	if agg.Completed != n || agg.Failed != 0 {
		t.Errorf("completed/failed = %d/%d, want %d/0", agg.Completed, agg.Failed, n)
	}
	if agg.LostRequests != n || agg.Resurrections != n {
		t.Errorf("lost/resurrections = %d/%d, want %d/%d", agg.LostRequests, agg.Resurrections, n, n)
	}
	if !agg.HealthEnabled {
		t.Error("aggregate does not report health routing enabled")
	}
}

// TestResurrectionDuplicateIdempotence pins the duplicate-delivery
// guard: a resurrected request whose original copy delivered late must
// produce exactly one terminal result and count Completed exactly once
// — the CAS claim decides, whoever wins.
func TestResurrectionDuplicateIdempotence(t *testing.T) {
	origin := newServer(t, Config{QueueDepth: 4})
	rescuer := newServer(t, Config{QueueDepth: 4})
	r, err := NewRouter(origin, rescuer)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableHealth(HealthConfig{RetryBudget: 2}); err != nil {
		t.Fatal(err)
	}
	r.Start()

	// A lost call resurrects on the rescuer and completes there.
	c := makeCall(origin, 128, 8)
	r.resurrect(origin, []*call{c})
	res := awaitResult(t, &c.ticket)
	if res.Err != nil {
		t.Fatalf("resurrected call failed: %v", res.Err)
	}
	if res.Resurrected != 1 {
		t.Errorf("Resurrected = %d, want 1", res.Resurrected)
	}
	// The original owner limps back and tries to deliver its copy: the
	// claim must lose, so it neither counts nor delivers.
	if c.claim() {
		t.Error("late duplicate won the claim after delivery")
	}
	// Exactly one terminal event reached the (now closed) stream.
	finished := 0
	for ev := range c.ticket.Events() {
		if ev.Type == EventFinished {
			finished++
		}
	}
	if finished != 1 {
		t.Errorf("terminal events = %d, want exactly 1", finished)
	}
	if len(c.result) != 0 {
		t.Error("a second result is buffered: duplicate delivery")
	}
	// The rescuer published its completion before delivering it.
	if got := r.Stats().Completed; got != 1 {
		t.Errorf("fleet Completed = %d, want 1", got)
	}
	if got := r.Stats().Resurrections; got != 1 {
		t.Errorf("Resurrections = %d, want 1", got)
	}

	// A call whose original already delivered must not resurrect at all.
	c2 := makeCall(origin, 128, 8)
	c2.finish(Result{OutputLen: 8})
	r.resurrect(origin, []*call{c2})
	if got := r.Stats().Resurrections; got != 1 {
		t.Errorf("already-delivered call resurrected: Resurrections = %d, want 1", got)
	}
	if len(c2.result) != 1 {
		t.Error("already-delivered call lost or duplicated its result")
	}

	// A call past its retry budget fails to the client instead.
	c3 := makeCall(origin, 128, 8)
	c3.retries.Store(2) // budget is 2
	r.resurrect(origin, []*call{c3})
	res3 := awaitResult(t, &c3.ticket)
	if !errors.Is(res3.Err, ErrRetriesExhausted) {
		t.Errorf("over-budget call: err = %v, want ErrRetriesExhausted", res3.Err)
	}
	agg := r.Stats()
	if agg.RetryExhausted != 1 {
		t.Errorf("RetryExhausted = %d, want 1", agg.RetryExhausted)
	}
	if agg.Failed != 1 {
		t.Errorf("Failed = %d, want 1: abandoned resurrections are client failures", agg.Failed)
	}
}

// TestHealthBreakerEjectsAndRoutesAround: submissions into a fleet with
// one stopped replica must all succeed, and the breaker must eject the
// dead replica after MaxConsecutiveFailures and keep probing it.
func TestHealthBreakerEjectsAndRoutesAround(t *testing.T) {
	dead := newServer(t, Config{QueueDepth: 16})
	live := newServer(t, Config{QueueDepth: 16})
	r, err := NewRouter(dead, live)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableHealth(HealthConfig{MaxConsecutiveFailures: 2, ProbeEvery: 4}); err != nil {
		t.Fatal(err)
	}
	r.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := dead.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	const n = 12
	for i := 0; i < n; i++ {
		tk, err := r.Submit(Request{PromptLen: 128, OutputLen: 8})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	agg, per := r.Snapshot()
	if agg.Completed != n || agg.Rejected != 0 {
		t.Errorf("completed/rejected = %d/%d, want %d/0", agg.Completed, agg.Rejected, n)
	}
	if agg.Ejections != 1 {
		t.Errorf("Ejections = %d, want 1", agg.Ejections)
	}
	if agg.HealthProbes < 1 {
		t.Errorf("HealthProbes = %d, want >= 1: the breaker must keep trying", agg.HealthProbes)
	}
	if agg.ReplicasEjected != 1 || agg.ReplicasHealthy != 1 {
		t.Errorf("census ejected/healthy = %d/%d, want 1/1", agg.ReplicasEjected, agg.ReplicasHealthy)
	}
	if got := HealthState(per[0].HealthState); got != HealthEjected {
		t.Errorf("dead replica state = %q, want %q", got, HealthEjected)
	}
	if got := HealthState(per[1].HealthState); got != HealthHealthy {
		t.Errorf("live replica state = %q, want %q", got, HealthHealthy)
	}
}

// TestHealthMalformedSubmitsKeepReplicasHealthy: a malformed request
// is the client's fault, refused alike by every replica. A health
// router must fail it at once with ErrInvalidRequest — counted as a
// rejection, never failed over, never charged to a breaker — or a
// burst of bad requests ejects a healthy fleet.
func TestHealthMalformedSubmitsKeepReplicasHealthy(t *testing.T) {
	r, err := NewRouter(newServer(t, Config{}), newServer(t, Config{}), newServer(t, Config{}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := HealthConfig{MaxConsecutiveFailures: 3}
	if err := r.EnableHealth(cfg); err != nil {
		t.Fatal(err)
	}
	r.Start()
	n := cfg.MaxConsecutiveFailures + 1
	for i := 0; i < n; i++ {
		if _, err := r.Submit(Request{PromptLen: 0, OutputLen: 8}); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("malformed submit %d: err = %v, want ErrInvalidRequest", i, err)
		}
	}
	st := r.Stats()
	if st.Ejections != 0 || st.ReplicasHealthy != 3 {
		t.Errorf("after %d malformed submits: ejections=%d replicas_healthy=%d, want 0 and 3",
			n, st.Ejections, st.ReplicasHealthy)
	}
	if st.Rejected != int64(n) {
		t.Errorf("Rejected = %d, want %d", st.Rejected, n)
	}
	tk, err := r.Submit(Request{PromptLen: 64, OutputLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res := awaitResult(t, tk); res.Err != nil {
		t.Fatalf("valid request after malformed burst: %v", res.Err)
	}
}

// TestHealthBreakerStateMachine drives the breaker transitions
// directly: eject on consecutive failures, reinstate on a successful
// probe, never move on a request fault, demote on error rate.
func TestHealthBreakerStateMachine(t *testing.T) {
	a := newServer(t, Config{})
	b := newServer(t, Config{})
	r, err := NewRouter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := HealthConfig{MaxConsecutiveFailures: 3, ProbeEvery: 2, MinSamples: 8, MaxErrorRate: 0.5}
	if err := r.EnableHealth(cfg); err != nil {
		t.Fatal(err)
	}
	state := func(bk leaf) HealthState {
		st, _ := r.classify(bk, &Stats{}, false)
		return st
	}
	rankAB := func() ranking { return r.rank([][]leaf{{a, b}}, Request{}, true) }

	// ErrNeverFits is the request's fault: the breaker must not move.
	for i := 0; i < 5; i++ {
		r.noteSubmitErr(a, ErrNeverFits)
	}
	if got := state(a); got != HealthHealthy {
		t.Fatalf("state after never-fits streak = %q, want healthy", got)
	}

	// Three real failures in a row eject.
	for i := 0; i < 3; i++ {
		r.noteSubmitErr(a, ErrStopped)
	}
	if got := state(a); got != HealthEjected {
		t.Fatalf("state after failure streak = %q, want ejected", got)
	}
	if got := r.Stats().Ejections; got != 1 {
		t.Fatalf("Ejections = %d, want 1", got)
	}

	// The ejected replica leaves ranking; the probe comes due after
	// ProbeEvery considerations and ranks first.
	if rk := rankAB(); rk.probes != 0 {
		t.Fatal("probe due immediately after ejection")
	}
	if rk := rankAB(); rk.probes != 1 || rk.order[0] != a {
		t.Fatalf("second consideration: order %v with %d probes, want the ejected replica probed first", rk.order, rk.probes)
	}
	// An undispatched trial is released and due again immediately.
	r.releaseProbe(a)
	if rk := rankAB(); rk.probes != 1 {
		t.Fatal("released probe not due again")
	}
	// So is a trial the request itself failed: it proved nothing about
	// the replica.
	for _, err := range []error{ErrNeverFits, ErrInvalidRequest} {
		r.noteSubmitErr(a, err)
		if rk := rankAB(); rk.probes != 1 {
			t.Fatalf("trial refused with %v not due again", err)
		}
	}
	// A failed trial re-arms the ejection without a new ejection count.
	r.noteSubmitErr(a, ErrStopped)
	if got := state(a); got != HealthEjected {
		t.Fatalf("state after failed probe = %q, want ejected", got)
	}
	if got := r.Stats().Ejections; got != 1 {
		t.Fatalf("Ejections after failed probe = %d, want still 1", got)
	}
	// A successful dispatch reinstates.
	r.noteSubmitOK(a)
	if got := state(a); got != HealthHealthy {
		t.Fatalf("state after successful probe = %q, want healthy", got)
	}
	if got := r.Stats().Reinstatements; got != 1 {
		t.Fatalf("Reinstatements = %d, want 1", got)
	}

	// An elevated recent error rate demotes to degraded (not ejected):
	// interleave successes so no streak trips the breaker. 6 failures
	// in 9 recent outcomes clears the 0.5 rate over MinSamples=8.
	for i := 0; i < 3; i++ {
		r.noteSubmitErr(b, ErrQueueFull)
		r.noteSubmitErr(b, ErrQueueFull)
		r.noteSubmitOK(b)
	}
	if got := state(b); got != HealthDegraded {
		t.Fatalf("state at 2/3 recent errors = %q, want degraded", got)
	}
	// Degraded replicas still rank — last.
	if rk := rankAB(); len(rk.order) != 2 || rk.order[1] != b {
		t.Fatalf("degraded replica not ranked last: %v", rk.order)
	}
}

// TestSlowFaultDilatesVirtualTime: a factor-4 slow window must stretch
// the same request's virtual completion time by about that factor.
func TestSlowFaultDilatesVirtualTime(t *testing.T) {
	run := func(f *ReplicaFaults) float64 {
		s := newServer(t, Config{QueueDepth: 1, Faults: f})
		s.Start()
		tk, err := s.Submit(Request{PromptLen: 512, OutputLen: 64})
		if err != nil {
			t.Fatal(err)
		}
		res := awaitResult(t, tk)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Finished
	}
	plain := run(nil)
	slow := run(mustPlan(t, "slow replica=0 at=0 factor=4\n").Replica(0))
	if plain <= 0 {
		t.Fatalf("plain run finished at %v", plain)
	}
	if ratio := slow / plain; ratio < 3.5 || ratio > 4.5 {
		t.Errorf("slow/plain = %.2f, want ~4 (deterministic dilation)", ratio)
	}
}

// TestCodecFaultFallsBackToPlainCache: with the codec scripted to
// fail, cold prefix blocks must degrade to plain physical parking —
// the cache keeps serving hits, nothing is frozen compressed, and the
// fallbacks are counted.
func TestCodecFaultFallsBackToPlainCache(t *testing.T) {
	plan := mustPlan(t, "codecfail replica=0 at=0\n")
	srv, err := New(Config{
		Engine: prefixTestEngine(t), QueueDepth: 1,
		PrefixCache: true, CompressedCache: true,
		Faults: plan.Replica(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	prefix := seqTokens(128, 1)
	for i := 0; i < 6; i++ {
		prompt := append(append([]int(nil), prefix...), seqTokens(32, 100+i)...)
		tk, err := srv.Submit(Request{Prompt: prompt, OutputLen: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.CodecFallbacks == 0 {
		t.Error("codec fault produced no fallbacks")
	}
	if st.CompressedKVBlocks != 0 || st.DecompressClaims != 0 {
		t.Errorf("compressed activity despite codec fault: blocks=%d claims=%d",
			st.CompressedKVBlocks, st.DecompressClaims)
	}
	if st.PrefixHits == 0 {
		t.Error("plain-parking fallback served no prefix hits: degradation is not graceful")
	}
}

// TestStaleStatsFreezesSnapshot: inside a stalestats window the
// published snapshot freezes (routers see stale load and digests);
// after the window closes the snapshot catches up.
func TestStaleStatsFreezesSnapshot(t *testing.T) {
	frozen := newServer(t, Config{QueueDepth: 4, PrefixCache: true,
		Faults: mustPlan(t, "stalestats replica=0 at=0\n").Replica(0)})
	// A window opening at 0 must not blank the pre-start snapshot: a
	// router's capacity ranking reads it before the first iteration.
	pre := frozen.Stats()
	if pre.TotalKVBlocks == 0 || pre.FreeKVBlocks != pre.TotalKVBlocks || pre.PrefixSummary == nil {
		t.Fatalf("pre-start snapshot blank under stalestats: free %d of %d blocks, digest %v",
			pre.FreeKVBlocks, pre.TotalKVBlocks, pre.PrefixSummary)
	}
	frozen.Start()
	tk, err := frozen.Submit(Request{Prompt: seqTokens(256, 3), OutputLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res := awaitResult(t, tk); res.Err != nil {
		t.Fatal(res.Err)
	}
	st := frozen.Stats()
	if st.Completed != 0 || st.SimSeconds != 0 {
		t.Errorf("frozen snapshot advanced: completed=%d sim=%v", st.Completed, st.SimSeconds)
	}
	// The digest freezes with the rest of the snapshot, its age included.
	if st.PrefixSummary != pre.PrefixSummary || st.SummaryAgeSeconds != pre.SummaryAgeSeconds {
		t.Errorf("frozen digest moved: %p age %v, pre-start %p age %v",
			st.PrefixSummary, st.SummaryAgeSeconds, pre.PrefixSummary, pre.SummaryAgeSeconds)
	}
	if st.Submitted != 1 {
		t.Errorf("Submitted = %d, want 1: admission counters are live, only the publish freezes", st.Submitted)
	}

	// A bounded window: the snapshot resumes once virtual time passes it.
	bounded := newServer(t, Config{QueueDepth: 4,
		Faults: mustPlan(t, "stalestats replica=0 at=0 for=0.001\n").Replica(0)})
	bounded.Start()
	tk, err = bounded.Submit(Request{PromptLen: 256, OutputLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res := awaitResult(t, tk); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := bounded.Stats().Completed; got != 1 {
		t.Errorf("Completed = %d after the window closed, want 1", got)
	}
}

// TestDropHandoffFaultLosesThenResurrects: a scripted transfer drop on
// a disaggregated fleet fails the request without health routing, and
// resurrects it with — both runs counting the drop.
func TestDropHandoffFaultLosesThenResurrects(t *testing.T) {
	build := func(withHealth bool) *Router {
		plan := mustPlan(t, "drophandoff replica=0 at=0\n")
		p := newServer(t, Config{Engine: prefixTestEngine(t), QueueDepth: 4,
			PrefixCache: true, Pool: PoolPrefill, Faults: plan.Replica(0)})
		d := newServer(t, Config{Engine: prefixTestEngine(t), QueueDepth: 4,
			PrefixCache: true, Pool: PoolDecode})
		r, err := NewPooledRouter(p, d)
		if err != nil {
			t.Fatal(err)
		}
		if withHealth {
			if err := r.EnableHealth(HealthConfig{RetryBudget: 3}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	req := Request{Prompt: seqTokens(256, 9), OutputLen: 16}

	// Without health, live: the dropped request fails to the client, and
	// the failure is published before it is delivered.
	r := build(false)
	r.Start()
	tk, err := r.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if res := awaitResult(t, tk); !errors.Is(res.Err, ErrStopped) {
		t.Fatalf("dropped handoff: err = %v, want ErrStopped", res.Err)
	}
	if st := r.Stats(); st.HandoffDrops != 1 || st.LostRequests != 1 || st.Failed != 1 {
		t.Errorf("after the failed Result: drops/lost/failed = %d/%d/%d, want 1/1/1",
			st.HandoffDrops, st.LostRequests, st.Failed)
	}

	// With health, replayed: the drop victim resurrects and completes.
	// The router counts a resurrection after handing it to the rescuer,
	// which may deliver first on a live fleet, so only a replay can
	// check the count once the Result is in.
	r = build(true)
	results, err := Replay(r, []Request{req}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := results[0]; res.Err != nil || res.Resurrected != 1 {
		t.Fatalf("drop victim: err %v, resurrected %d; want served after 1 resurrection", res.Err, res.Resurrected)
	}
	if st := r.Stats(); st.HandoffDrops != 1 || st.Resurrections != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Errorf("drops/resurrections/completed/failed = %d/%d/%d/%d, want 1/1/1/0",
			st.HandoffDrops, st.Resurrections, st.Completed, st.Failed)
	}
}

// TestEnableHealthValidation rejects nonsense knobs.
func TestEnableHealthValidation(t *testing.T) {
	r, err := NewRouter(&acceptStub{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []HealthConfig{
		{MaxConsecutiveFailures: -1}, {MaxErrorRate: -0.5}, {MaxErrorRate: 1.5},
		{MinSamples: -1}, {MaxStepTimeEWMA: -1}, {ProbeEvery: -1},
		{RetryBudget: -1}, {RetryBackoff: -1},
	} {
		if err := r.EnableHealth(bad); err == nil {
			t.Errorf("EnableHealth(%+v) accepted a bad knob", bad)
		}
	}
	if r.Stats().HealthEnabled {
		t.Error("rejected configs must not enable health routing")
	}
	if err := r.EnableHealth(HealthConfig{}); err != nil {
		t.Fatal(err)
	}
	if !r.Stats().HealthEnabled {
		t.Error("stats report health routing off after EnableHealth")
	}
}
