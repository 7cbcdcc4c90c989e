package serve

import (
	"context"
	"testing"
	"time"

	"zipserv/internal/engine"
)

// poolServer builds (but does not start) a pool-labelled server over
// its own engine replica.
func poolServer(t testing.TB, pool PoolRole) *Server {
	t.Helper()
	s, err := New(Config{
		Engine:      prefixTestEngine(t),
		PrefixCache: true,
		Pool:        pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	return s
}

// sharedPrompts is a burst of n requests, half sharing one prompt, to
// exercise the decode side's content-addressed dedup.
func sharedPrompts(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		seed := i
		if i%2 == 0 {
			seed = 0
		}
		reqs[i] = Request{Prompt: seqTokens(256+16*seed, seed), OutputLen: 16, Arrival: ArrivalNow}
	}
	return reqs
}

// TestPooledRouterDisaggregatedServes is the end-to-end disaggregation
// path: one prefill and one decode replica, every request prefilled on
// the former and decoded on the latter, with the handoff counters
// consistent on both sides.
func TestPooledRouterDisaggregatedServes(t *testing.T) {
	prefill := poolServer(t, PoolPrefill)
	decode := poolServer(t, PoolDecode)
	r, err := NewPooledRouter(prefill, decode)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	for i, res := range replayAll(t, r, sharedPrompts(n)) {
		if res.Handoffs != 1 {
			t.Errorf("request %d made %d handoffs, want exactly 1", i, res.Handoffs)
		}
		if res.TTFT <= 0 || res.TPOT <= 0 || res.Finished <= res.FirstToken {
			t.Errorf("request %d: discontinuous metrics across the handoff: %+v", i, res)
		}
	}

	ps, ds := prefill.Stats(), decode.Stats()
	if ps.Completed != 0 || ds.Completed != n {
		t.Errorf("completions: prefill %d decode %d, want 0/%d", ps.Completed, ds.Completed, n)
	}
	if ps.HandoffBytes <= 0 || ps.HandoffFailures != 0 {
		t.Errorf("prefill handoff stats: bytes %d failures %d", ps.HandoffBytes, ps.HandoffFailures)
	}
	if ds.HandoffImports != n {
		t.Errorf("decode imported %d, want %d", ds.HandoffImports, n)
	}
	if ps.Pool != string(PoolPrefill) || ds.Pool != string(PoolDecode) {
		t.Errorf("pool labels %q/%q", ps.Pool, ds.Pool)
	}

	agg, per := r.Snapshot()
	if agg.Handoffs != n || agg.HandoffImports != n || agg.Completed != n {
		t.Errorf("router aggregate: handoffs %d imports %d completed %d, want %d each",
			agg.Handoffs, agg.HandoffImports, agg.Completed, n)
	}
	if agg.Pool != string(PoolMixed) {
		t.Errorf("heterogeneous fleet pool = %q, want mixed", agg.Pool)
	}
	pools := PoolAggregate(per)
	if pools["prefill"].Handoffs != n || pools["decode"].HandoffImports != n {
		t.Errorf("pool breakdown: %+v", pools)
	}
}

// TestPooledRouterDecodeDeathFailsOver kills one of two decode replicas
// while a burst is in flight: dispatches that raced into the dead
// replica drain there, later ones land on the survivor or fall back
// co-located, and every request completes either way. Run with -race.
func TestPooledRouterDecodeDeathFailsOver(t *testing.T) {
	prefill := poolServer(t, PoolPrefill)
	d0 := poolServer(t, PoolDecode)
	d1 := poolServer(t, PoolDecode)
	r, err := NewPooledRouter(prefill, d0, d1)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()

	const n = 12
	stopErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		stopErr <- d0.Stop(ctx)
	}()
	tickets := make([]*Ticket, n)
	for i, req := range sharedPrompts(n) {
		if tickets[i], err = r.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	for i, tk := range tickets {
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatalf("request %d failed across decode-replica death: %v", i, res.Err)
		}
	}
	if err := <-stopErr; err != nil {
		t.Fatal(err)
	}
	agg := r.Stats()
	if agg.Completed != n || agg.Failed != 0 {
		t.Errorf("fleet completed %d failed %d, want %d/0", agg.Completed, agg.Failed, n)
	}
}

// TestPooledRouterColocatedFallback stops the only decode replica
// before traffic arrives: every dispatch fails, and the prefill replica
// must thaw each export back into its own stepper and serve co-located
// without losing a request.
func TestPooledRouterColocatedFallback(t *testing.T) {
	prefill := poolServer(t, PoolPrefill)
	decode := poolServer(t, PoolDecode)
	r, err := NewPooledRouter(prefill, decode)
	if err != nil {
		t.Fatal(err)
	}
	decode.closeGate() // what Stop does first: every later handoff is refused

	const n = 6
	for i, res := range replayAll(t, r, sharedPrompts(n)) {
		if res.Handoffs != 0 {
			t.Errorf("request %d counts %d handoffs but none succeeded", i, res.Handoffs)
		}
	}
	ps := prefill.Stats()
	if ps.Completed != n || ps.Handoffs != 0 || ps.HandoffFailures != n {
		t.Errorf("prefill completed %d, handoffs %d, failures %d, want %d/0/%d",
			ps.Completed, ps.Handoffs, ps.HandoffFailures, n, n)
	}
}

// TestDuplicateHandoffIdempotent delivers the same export to a decode
// replica twice in one batch: the first import serves the request, the
// duplicate must change nothing and the result must be delivered
// exactly once. Run with -race.
func TestDuplicateHandoffIdempotent(t *testing.T) {
	e := prefixTestEngine(t)
	src, err := engine.NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	src.PackedPrefill = true
	if err := src.EnablePrefixCache(0); err != nil {
		t.Fatal(err)
	}
	req := engine.Request{ID: 42, PromptLen: 256, OutputLen: 16, Prompt: seqTokens(256, 9)}
	if err := src.Admit(req); err != nil {
		t.Fatal(err)
	}
	for src.InFlight()-src.ActiveCount() > 0 {
		src.Prefill()
	}
	exp, err := src.ExportSequence(req.ID)
	if err != nil {
		t.Fatal(err)
	}

	decode := poolServer(t, PoolDecode)
	c := &call{
		req:       req,
		class:     ClassInteractive,
		handoffs:  1,
		submitted: time.Now(),
		events:    make(chan Event, 8),
		result:    make(chan Result, 1),
	}
	h := &handoff{exp: exp, c: c}
	if err := decode.acceptHandoff(h); err != nil {
		t.Fatal(err)
	}
	if err := decode.acceptHandoff(h); err != nil {
		t.Fatal(err)
	}
	// Replaying no requests runs the decode replica dry: both copies are
	// served or dropped by the time it returns.
	if _, err := Replay(decode, nil, 0); err != nil {
		t.Fatal(err)
	}

	if len(c.result) != 1 {
		t.Fatalf("%d results buffered after the replay, want exactly 1", len(c.result))
	}
	res := <-c.result
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.ID != req.ID || res.Handoffs != 1 {
		t.Errorf("result %+v, want id %d with 1 handoff", res, req.ID)
	}
	ds := decode.Stats()
	if ds.Completed != 1 || ds.HandoffImports != 1 {
		t.Errorf("decode completed %d and imported %d sequences from 2 copies, want 1 each", ds.Completed, ds.HandoffImports)
	}
	if ds.Failed != 0 {
		t.Errorf("duplicate handoff failed a request: %d", ds.Failed)
	}
}

// TestNewPooledRouterValidation: fleet shapes with no defined handoff
// behaviour are rejected at construction.
func TestNewPooledRouterValidation(t *testing.T) {
	if _, err := NewPooledRouter(); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewPooledRouter(nil); err == nil {
		t.Error("nil server accepted")
	}
	if _, err := NewPooledRouter(poolServer(t, PoolPrefill)); err == nil {
		t.Error("prefill pool with no decode replica accepted")
	}
	if _, err := New(Config{Engine: prefixTestEngine(t), Pool: "gpu"}); err == nil {
		t.Error("unknown pool role accepted")
	}
	// All-decode and all-mixed fleets serve co-located.
	for _, role := range []PoolRole{PoolDecode, PoolMixed} {
		r, err := NewPooledRouter(poolServer(t, role))
		if err != nil {
			t.Fatalf("single-%s fleet: %v", role, err)
		}
		r.Start()
		tk, err := r.Submit(Request{PromptLen: 64, OutputLen: 4, Arrival: ArrivalNow})
		if err != nil {
			t.Fatal(err)
		}
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}
