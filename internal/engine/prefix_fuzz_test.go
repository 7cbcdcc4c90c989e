package engine

import (
	"math/rand"
	"testing"

	"zipserv/internal/gpu"
	"zipserv/internal/weights"
)

// FuzzPrefixCacheInvariants drives random shared-prefix workloads —
// prompts drawn from a small pool of common prefixes plus unique
// suffixes — through a prefix-cached Stepper with random chunk
// budgets, cache capacities (cacheCap%64) and a mid-run preemption,
// with cold blocks stored compressed when cacheCap&64 is set (so
// freezes, thaws and the frozen pool run too), checking the
// sharing invariants after every iteration: the allocator's refcounts
// always equal the true table references (so no block is ever freed —
// or reused — while referenced), every request's output is emitted
// exactly once, and after the drain all refcounts have returned to
// zero with no block leaked.
func FuzzPrefixCacheInvariants(f *testing.F) {
	// Seeds: monolithic and tiny chunks, bursty and spaced arrivals,
	// tight and unbounded cache capacities, early/late preemption.
	f.Add(int64(1), uint16(0), uint8(6), uint8(0), uint16(0))
	f.Add(int64(2), uint16(1), uint8(4), uint8(2), uint16(3))
	f.Add(int64(3), uint16(7), uint8(9), uint8(5), uint16(0))
	f.Add(int64(4), uint16(64), uint8(12), uint8(200), uint16(17))
	f.Add(int64(5), uint16(33), uint8(8), uint8(9), uint16(1))
	f.Add(int64(12), uint16(48), uint8(11), uint8(4), uint16(64+40)) // compressed: thaws and cap evictions

	model, err := weights.ByName("LLaMA3.1-8B")
	if err != nil {
		f.Fatal(err)
	}
	dev := gpu.MustByName("RTX4090")

	f.Fuzz(func(t *testing.T, seed int64, chunk uint16, nReqs uint8, preemptAt uint8, cacheCap uint16) {
		e, err := New(Config{Model: model, Device: dev, NumGPUs: 1, Backend: BackendZipServ})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := NewStepper(e)
		if err != nil {
			t.Fatal(err)
		}
		sp.PackedPrefill = true
		sp.PrefillChunkTokens = int(chunk % 512)
		if err := sp.EnablePrefixCache(int(cacheCap % 64)); err != nil {
			t.Fatal(err)
		}
		if cacheCap&64 != 0 {
			if err := sp.EnableCompressedCache(); err != nil {
				t.Fatal(err)
			}
		}

		rng := rand.New(rand.NewSource(seed))
		n := int(nReqs%12) + 2
		pending := make([]Request, n)
		var wantTokens int64
		for i := range pending {
			// Prompt = a random cut of one of three common prefixes
			// plus a unique suffix; some requests repeat a prompt
			// exactly (fully cached case), some carry no tokens at all
			// (must coexist with cached ones).
			pool := rng.Intn(3) + 1
			prefixLen := rng.Intn(200)
			suffixLen := rng.Intn(60) + 1
			prompt := append(prefixTokens(prefixLen, pool), prefixTokens(suffixLen, 50+pool)...)
			if rng.Intn(4) == 0 {
				prompt = prefixTokens(prefixLen+suffixLen, pool) // exact repeats across requests
			}
			r := Request{
				ID:             i + 1,
				ArrivalSeconds: rng.Float64() * 0.3,
				PromptLen:      len(prompt),
				OutputLen:      rng.Intn(40) + 1,
				Prompt:         prompt,
			}
			if rng.Intn(5) == 0 {
				r.Prompt = nil // tokenless request: prices by length only
			}
			pending[i] = r
			wantTokens += int64(r.OutputLen)
		}

		freeStart := sp.FreeBlocks()
		finished := make(map[int]int, n)
		preemptIter := int(preemptAt % 32)
		preempted := false
		nextIdx := 0
		for iter := 0; len(finished) < n; iter++ {
			if iter > 1<<20 {
				t.Fatal("scheduler failed to make progress")
			}
			if sp.InFlight() == 0 && nextIdx < len(pending) && pending[nextIdx].ArrivalSeconds > sp.Clock() {
				sp.AdvanceTo(pending[nextIdx].ArrivalSeconds)
			}
			for nextIdx < len(pending) && pending[nextIdx].ArrivalSeconds <= sp.Clock() {
				r := pending[nextIdx]
				if !sp.CanAdmitRequest(r) {
					break
				}
				if err := sp.Admit(r); err != nil {
					t.Fatal(err)
				}
				nextIdx++
			}

			// One preemption at a fuzzed iteration: a victim holding
			// shared blocks must release references, never the shared
			// blocks themselves.
			if !preempted && iter == preemptIter && sp.InFlight() > 0 {
				id := rng.Intn(n) + 1
				if req, ok := sp.Preempt(id); ok {
					preempted = true
					req.ArrivalSeconds = sp.Clock()
					pending = append(pending, req)
				}
			}

			sp.Prefill()
			fin, _, err := sp.DecodeStep()
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range fin {
				finished[m.ID]++
				if finished[m.ID] > 1 {
					t.Fatalf("request %d finished %d times (duplicated tokens)", m.ID, finished[m.ID])
				}
			}
			// The core sharing invariant, checked every iteration: the
			// stored refcounts equal the true table reference counts and
			// free/cached/owned partition the block space — no block is
			// freed while referenced.
			if err := sp.mgr.CheckInvariants(); err != nil {
				t.Fatalf("iteration %d: %v", iter, err)
			}
			if sp.InFlight() == 0 && nextIdx >= len(pending) && len(finished) < n {
				t.Fatalf("drained with %d/%d requests finished (lost tokens)", len(finished), n)
			}
		}

		if got := sp.OutputTokens(); got != wantTokens {
			t.Fatalf("emitted %d tokens, want %d (lost or duplicated work)", got, wantTokens)
		}
		// After the drain every refcount is zero: cached blocks are all
		// reclaimable, so the full block budget reads as free again.
		if got := sp.FreeBlocks(); got != freeStart {
			t.Fatalf("KV blocks not conserved: %d free after drain, started with %d", got, freeStart)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
