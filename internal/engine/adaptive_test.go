package engine

import (
	"sort"
	"testing"
)

func TestAdaptiveChunkingValidation(t *testing.T) {
	e := newPrefixTestEngine(t)
	sp, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		target   float64
		min, max int
	}{
		{"zero target", 0, 0, 0},
		{"negative target", -1, 0, 0},
		{"nan target", nan(), 0, 0},
		{"negative min", 0.02, -1, 0},
		{"max below min", 0.02, 256, 64},
	} {
		if err := sp.EnableAdaptiveChunking(tc.target, tc.min, tc.max); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if sp.AdaptiveChunking() {
		t.Fatal("rejected enables left the controller on")
	}
	if err := sp.EnableAdaptiveChunking(0.03, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !sp.AdaptiveChunking() || sp.TargetStepTime() != 0.03 {
		t.Fatalf("controller not armed: adaptive=%v target=%v", sp.AdaptiveChunking(), sp.TargetStepTime())
	}
	if got := sp.ChunkBudget(); got != DefaultAdaptiveChunkMax {
		t.Fatalf("idle-start budget %d, want max %d", got, DefaultAdaptiveChunkMax)
	}
}

func nan() float64 { z := 0.0; return z / z }

// TestAdaptiveChunkingGrowsWhenIdle: on a mixed replica an empty
// decode batch is transient idleness — no cadence to protect — so a
// long prompt prefills at the budget ceiling.
func TestAdaptiveChunkingGrowsWhenIdle(t *testing.T) {
	e := newPrefixTestEngine(t)
	sp, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	sp.PackedPrefill = true
	if err := sp.EnableAdaptiveChunking(0.03, 64, 512); err != nil {
		t.Fatal(err)
	}
	if err := sp.Admit(Request{ID: 1, PromptLen: 4096, OutputLen: 4}); err != nil {
		t.Fatal(err)
	}
	sp.Prefill()
	if got := sp.PrefillTokens(); got != 512 {
		t.Fatalf("idle-loop iteration prefilled %d tokens, want the 512 ceiling", got)
	}
}

// TestAdaptiveChunkingDecodeFreeOperatingPoint: with DecodeFree set —
// a dedicated prefill-pool replica, whose every iteration is
// decode-free by design — the controller must solve the budget
// directly against the step-time target instead of defaulting to the
// ceiling. The regression guarded here: the pre-fix controller treated
// "no decode batch" as "no constraint" and prefilled MaxTokens per
// iteration, blowing the target on every step of a prefill-pool
// replica.
func TestAdaptiveChunkingDecodeFreeOperatingPoint(t *testing.T) {
	e := newPrefixTestEngine(t)
	sp, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	sp.PackedPrefill = true
	sp.DecodeFree = true
	// The 512-token ceiling costs well over the 30ms target on this
	// engine, so a solved budget must land strictly below it.
	const target = 0.03
	if err := sp.EnableAdaptiveChunking(target, 64, 512); err != nil {
		t.Fatal(err)
	}
	if err := sp.Admit(Request{ID: 1, PromptLen: 4096, OutputLen: 1}); err != nil {
		t.Fatal(err)
	}
	iters := 0
	for len(sp.admitted) > 0 {
		if iters++; iters > 1<<10 {
			t.Fatal("prefill failed to make progress")
		}
		budget := sp.ChunkBudget()
		_, elapsed := sp.Prefill()
		if elapsed > target*1.001 {
			t.Fatalf("decode-free iteration %d took %.4fs with budget %d, want <= %.4fs target",
				iters, elapsed, budget, target)
		}
	}
	if got := sp.ChunkBudget(); got <= 64 || got >= 512 {
		t.Errorf("decode-free budget %d, want a solved point strictly inside (64, 512)", got)
	}
	// The solved budget must actually use the target, not idle at the
	// floor: a 4096-token prompt at the floor would need 64 iterations.
	if iters >= 4096/64 {
		t.Errorf("prompt took %d decode-free iterations — budget pinned at the floor", iters)
	}
	for sp.InFlight() > 0 {
		if _, _, err := sp.DecodeStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveChunkingHoldsStepTarget: against a deep decode batch the
// controller must shrink the budget so every combined iteration
// (prefill chunk + decode step) stays under the target whenever the
// budget is above its floor — and it must never stop making prompt
// progress even when the decode step alone blows the target.
func TestAdaptiveChunkingHoldsStepTarget(t *testing.T) {
	e := newPrefixTestEngine(t)
	sp, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	sp.PackedPrefill = true
	// Decode-only time for the steady batch below is ~20 ms; leave a
	// few ms of prefill headroom.
	const target = 0.026
	if err := sp.EnableAdaptiveChunking(target, 64, 2048); err != nil {
		t.Fatal(err)
	}

	// Build a deep decode batch first.
	for id := 1; id <= 24; id++ {
		if err := sp.Admit(Request{ID: id, PromptLen: 128, OutputLen: 256}); err != nil {
			t.Fatal(err)
		}
	}
	for len(sp.admitted) > 0 {
		sp.Prefill() // the 2048-token ceiling needs two carves for 24×128
	}
	if sp.ActiveCount() != 24 {
		t.Fatalf("decode batch %d, want 24", sp.ActiveCount())
	}
	// Now wedge a long prompt in and drive the loop.
	if err := sp.Admit(Request{ID: 99, PromptLen: 4096, OutputLen: 8}); err != nil {
		t.Fatal(err)
	}
	overTarget := 0
	for iter := 0; sp.InFlight() > 0; iter++ {
		if iter > 1<<20 {
			t.Fatal("scheduler failed to make progress")
		}
		budget := sp.ChunkBudget()
		_, pElapsed := sp.Prefill()
		_, dElapsed, err := sp.DecodeStep()
		if err != nil {
			t.Fatal(err)
		}
		if pElapsed > 0 && dElapsed > 0 && pElapsed+dElapsed > target*1.001 && budget > 64 {
			overTarget++
		}
	}
	// The controller may overshoot only transiently (the first carve
	// after the long prompt lands, before the solved budget takes
	// effect via fast-shrink — which applies the same iteration, so in
	// practice never).
	if overTarget > 1 {
		t.Errorf("%d combined iterations exceeded the %.0fms target with budget above the floor",
			overTarget, target*1e3)
	}
	if sp.StepTimeEWMA() <= 0 {
		t.Error("step-time EWMA never observed an iteration")
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveOutputsIdenticalToMonolithic: the controller changes
// timing only — which requests finish and how many tokens they emit
// must be byte-identical to monolithic prefill.
func TestAdaptiveOutputsIdenticalToMonolithic(t *testing.T) {
	e := newPrefixTestEngine(t)
	reqs := sharedPrefixTrace(12, 128, 24, 16, 0.02)
	mono, spMono, _ := driveChunked(t, e, reqs, 0)
	adaptive, spAdaptive := driveAdaptive(t, e, reqs, 0.03)
	if got, want := fingerprint(t, reqs, adaptive, spAdaptive), fingerprint(t, reqs, mono, spMono); got != want {
		t.Errorf("adaptive outputs diverge from monolithic:\n--- adaptive\n%s\n--- monolithic\n%s", got, want)
	}
}

// driveAdaptive replays a trace through a Stepper under the adaptive
// chunk controller, FIFO admission.
func driveAdaptive(t testing.TB, e *Engine, reqs []Request, target float64) ([]RequestMetrics, *Stepper) {
	t.Helper()
	sp, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	sp.PackedPrefill = true
	if err := sp.EnableAdaptiveChunking(target, 0, 0); err != nil {
		t.Fatal(err)
	}
	var done []RequestMetrics
	nextIdx := 0
	for iter := 0; len(done) < len(reqs); iter++ {
		if iter > 1<<20 {
			t.Fatal("scheduler failed to make progress")
		}
		if sp.InFlight() == 0 && nextIdx < len(reqs) && reqs[nextIdx].ArrivalSeconds > sp.Clock() {
			sp.AdvanceTo(reqs[nextIdx].ArrivalSeconds)
		}
		for nextIdx < len(reqs) && reqs[nextIdx].ArrivalSeconds <= sp.Clock() {
			if !sp.CanAdmitRequest(reqs[nextIdx]) {
				break
			}
			if err := sp.Admit(reqs[nextIdx]); err != nil {
				t.Fatal(err)
			}
			nextIdx++
		}
		sp.Prefill()
		fin, _, err := sp.DecodeStep()
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, fin...)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(done, func(i, j int) bool { return done[i].ID < done[j].ID })
	return done, sp
}

// TestAdmissionLookupMemoized: the CanAdmitRequest → Admit pair must
// walk the prefix trie once for the capacity lookup (plus once for the
// claim itself), with the memo invalidated the moment the allocator's
// generation moves.
func TestAdmissionLookupMemoized(t *testing.T) {
	e := newPrefixTestEngine(t)
	sp, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	sp.PackedPrefill = true
	if err := sp.EnablePrefixCache(0); err != nil {
		t.Fatal(err)
	}
	seed := Request{ID: 1, PromptLen: 128, OutputLen: 4, Prompt: prefixTokens(128, 1)}
	if err := sp.Admit(seed); err != nil {
		t.Fatal(err)
	}
	for sp.InFlight() > 0 {
		sp.Prefill()
		if _, _, err := sp.DecodeStep(); err != nil {
			t.Fatal(err)
		}
	}

	r := Request{ID: 2, PromptLen: 128, OutputLen: 4, Prompt: prefixTokens(128, 1)}
	before := sp.mgr.Walks()
	if got, _ := sp.lookupCost(r); got == 0 {
		t.Fatal("seeded prefix did not match")
	}
	if sp.lookupCost(r); sp.mgr.Walks() != before+1 {
		t.Fatalf("%d walks for two identical lookups, want 1 (memoized)", sp.mgr.Walks()-before)
	}
	// Admit reuses the memoized lookup; only the claim itself walks.
	before = sp.mgr.Walks()
	if err := sp.Admit(r); err != nil {
		t.Fatal(err)
	}
	if got := sp.mgr.Walks() - before; got != 1 {
		t.Fatalf("Admit after Lookup performed %d walks, want 1 (the claim)", got)
	}
	// The claim moved the generation: a fresh lookup must re-walk.
	before = sp.mgr.Walks()
	sp.lookupCost(r)
	if got := sp.mgr.Walks() - before; got != 1 {
		t.Fatalf("stale-generation lookup performed %d walks, want 1", got)
	}
	for sp.InFlight() > 0 {
		sp.Prefill()
		if _, _, err := sp.DecodeStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}
