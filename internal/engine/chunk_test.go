package engine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// driveChunked replays a trace through a fresh Stepper with the given
// prefill chunk budget (0 = monolithic) under FIFO admission — the
// offline Serve loop generalised to chunk-carrying iterations. It
// returns the finished per-request metrics, the drained stepper, and
// the decode-gap samples: the virtual time between consecutive decode
// steps while the batch stayed non-empty, i.e. the inter-token cadence
// every decoding sequence actually experienced.
func driveChunked(t *testing.T, e *Engine, reqs []Request, chunk int) ([]RequestMetrics, *Stepper, []float64) {
	t.Helper()
	sp, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	sp.PackedPrefill = true
	sp.PrefillChunkTokens = chunk

	pending := append([]Request(nil), reqs...)
	sort.SliceStable(pending, func(i, j int) bool {
		return pending[i].ArrivalSeconds < pending[j].ArrivalSeconds
	})
	var (
		done    []RequestMetrics
		gaps    []float64
		nextIdx int
		prevEnd = -1.0
	)
	for len(done) < len(pending) {
		if sp.InFlight() == 0 && nextIdx < len(pending) && pending[nextIdx].ArrivalSeconds > sp.Clock() {
			sp.AdvanceTo(pending[nextIdx].ArrivalSeconds)
		}
		for nextIdx < len(pending) && pending[nextIdx].ArrivalSeconds <= sp.Clock() {
			r := pending[nextIdx]
			if !sp.CanAdmit(r.PromptLen, r.OutputLen) {
				break
			}
			if err := sp.Admit(r); err != nil {
				t.Fatal(err)
			}
			nextIdx++
		}
		sp.Prefill()
		finished, elapsed, err := sp.DecodeStep()
		if err != nil {
			t.Fatal(err)
		}
		if elapsed > 0 {
			if prevEnd >= 0 {
				gaps = append(gaps, sp.Clock()-prevEnd)
			}
			prevEnd = sp.Clock()
			if sp.ActiveCount() == 0 {
				prevEnd = -1
			}
		}
		done = append(done, finished...)
		if sp.InFlight() == 0 && nextIdx >= len(pending) && len(done) < len(pending) {
			t.Fatalf("chunk=%d: drained with %d/%d requests finished", chunk, len(done), len(pending))
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatalf("chunk=%d: %v", chunk, err)
	}
	return done, sp, gaps
}

// fingerprint serialises the outcome of a run with every timing field
// stripped: which requests finished, each one's prompt and output token
// counts, and the totals. Two runs that differ only in scheduling
// timing produce byte-identical fingerprints.
func fingerprint(t *testing.T, reqs []Request, done []RequestMetrics, sp *Stepper) string {
	t.Helper()
	byID := make(map[int]Request, len(reqs))
	for _, r := range reqs {
		byID[r.ID] = r
	}
	seen := make(map[int]int, len(done))
	ids := make([]int, 0, len(done))
	for _, m := range done {
		seen[m.ID]++
		ids = append(ids, m.ID)
	}
	sort.Ints(ids)
	out := ""
	for _, id := range ids {
		if seen[id] != 1 {
			t.Fatalf("request %d finished %d times", id, seen[id])
		}
		r := byID[id]
		out += fmt.Sprintf("id=%d prompt=%d output=%d\n", id, r.PromptLen, r.OutputLen)
	}
	out += fmt.Sprintf("total_output_tokens=%d prefill_tokens=%d\n", sp.OutputTokens(), sp.PrefillTokens())
	return out
}

// TestChunkedPrefillEquivalence: for every chunk budget, chunked
// prefill must produce byte-identical per-request outputs and token
// counts to monolithic prefill on the same trace — only timing may
// differ. Chunking changes when tokens are computed, never which.
func TestChunkedPrefillEquivalence(t *testing.T) {
	e := stepperEngine(t)
	reqs := SyntheticTrace(14, 50, 48, 12, 11)
	var long []Request
	for i, r := range reqs {
		if i%5 == 0 {
			r.PromptLen = 7 * r.PromptLen // long prompts cross many chunk boundaries
		}
		long = append(long, r)
	}

	doneMono, spMono, _ := driveChunked(t, e, long, 0)
	want := fingerprint(t, long, doneMono, spMono)
	var wantTotal int64
	for _, r := range long {
		wantTotal += int64(r.OutputLen)
	}
	if got := spMono.OutputTokens(); got != wantTotal {
		t.Fatalf("monolithic emitted %d tokens, want %d", got, wantTotal)
	}

	for _, chunk := range []int{1, 7, 64} {
		done, sp, _ := driveChunked(t, e, long, chunk)
		if got := fingerprint(t, long, done, sp); got != want {
			t.Errorf("chunk=%d outputs diverge from monolithic:\n got:\n%s want:\n%s", chunk, got, want)
		}
		if chunk < 48 && sp.PrefillIterations() <= spMono.PrefillIterations() {
			t.Errorf("chunk=%d ran %d prefill iterations, monolithic ran %d; chunking did not split prefill",
				chunk, sp.PrefillIterations(), spMono.PrefillIterations())
		}
	}
}

// TestChunkedPrefillCadence enforces the cadence win chunking exists
// for: on a trace mixing one very long prompt into an active decode
// batch, the chunked decode gap stays bounded by ~2× one budgeted step
// (chunk prefill + decode), while the monolithic gap swallows the whole
// prompt — and the improvement must not regress below 1.2×.
func TestChunkedPrefillCadence(t *testing.T) {
	const (
		decoders   = 8
		shortIn    = 64
		shortOut   = 256
		longPrompt = 4096
		chunk      = 256
	)
	mix := func() []Request {
		reqs := make([]Request, 0, decoders+1)
		for i := 0; i < decoders; i++ {
			reqs = append(reqs, Request{ID: i, ArrivalSeconds: 0, PromptLen: shortIn, OutputLen: shortOut})
		}
		// The long prompt lands once the decoders are mid-stream.
		reqs = append(reqs, Request{ID: decoders, ArrivalSeconds: 0.5, PromptLen: longPrompt, OutputLen: 8})
		return reqs
	}

	e := stepperEngine(t)
	_, spMono, _ := driveChunked(t, e, mix(), 0)
	_, spChunk, _ := driveChunked(t, e, mix(), chunk)

	gapMono, gapChunk := spMono.MaxDecodeGap(), spChunk.MaxDecodeGap()
	if gapMono <= 0 || gapChunk <= 0 {
		t.Fatalf("decode gaps not measured: mono=%g chunk=%g", gapMono, gapChunk)
	}

	// Bound: one budgeted step is the worst-case chunk (deepest prefix
	// offset) plus one decode step over the full mixed batch.
	worstChunk := e.ChunkedPrefillTime([]PrefillChunk{{Start: longPrompt - chunk, Tokens: chunk, Final: true}})
	worstDecode := e.BatchDecodeStepTime(decoders+1, decoders*(shortIn+shortOut)+longPrompt+8)
	if bound := 2 * (worstChunk + worstDecode); gapChunk > bound {
		t.Errorf("chunked decode gap %.4fs exceeds 2x budgeted step %.4fs", gapChunk, bound)
	}

	if gapChunk >= gapMono {
		t.Errorf("chunking did not shrink the decode gap: chunked %.4fs >= monolithic %.4fs", gapChunk, gapMono)
	}
	if ratio := gapMono / gapChunk; ratio < 1.2 {
		t.Errorf("decode-gap improvement %.2fx regressed below 1.2x (mono %.4fs, chunked %.4fs)",
			ratio, gapMono, gapChunk)
	}
}

// TestChunkedPrefillTPOTImprovement enforces the win on the decode
// TPOT distribution: with long prompts arriving throughout the run,
// the p99 inter-token gap the decoders experience must be strictly
// better — by at least 1.2× — with chunking than without. (Mean TPOT
// cannot show this: a stall amortised over a long output vanishes
// from the mean; the tail is exactly what chunking fixes.)
func TestChunkedPrefillTPOTImprovement(t *testing.T) {
	e := stepperEngine(t)
	mix := make([]Request, 0, 18)
	for i := 0; i < 8; i++ {
		mix = append(mix, Request{ID: i, ArrivalSeconds: 0, PromptLen: 64, OutputLen: 512})
	}
	// A stream of long prompts keeps stalling the monolithic loop.
	for i := 0; i < 10; i++ {
		mix = append(mix, Request{ID: 8 + i, ArrivalSeconds: 0.3 + 0.6*float64(i), PromptLen: 4096, OutputLen: 8})
	}

	p99 := func(gaps []float64) float64 {
		if len(gaps) == 0 {
			t.Fatal("no decode-gap samples")
		}
		s := append([]float64(nil), gaps...)
		sort.Float64s(s)
		i := (len(s)*99 + 99) / 100
		if i > len(s) {
			i = len(s)
		}
		return s[i-1]
	}

	_, _, gapsMono := driveChunked(t, e, mix, 0)
	_, _, gapsChunk := driveChunked(t, e, mix, 256)
	mono, chunked := p99(gapsMono), p99(gapsChunk)
	if chunked >= mono {
		t.Errorf("chunking did not improve decode TPOT p99: chunked %.5fs >= monolithic %.5fs", chunked, mono)
	}
	if ratio := mono / chunked; ratio < 1.2 {
		t.Errorf("TPOT p99 improvement %.2fx regressed below 1.2x (mono %.5fs, chunked %.5fs)",
			ratio, mono, chunked)
	}
}

// TestPreemptMidPrefill: evicting a partially prefilled sequence must
// discard its chunk progress cleanly — every claimed block returns,
// no phantom tokens remain, and re-admission restarts from scratch.
func TestPreemptMidPrefill(t *testing.T) {
	e := stepperEngine(t)
	sp, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	sp.PackedPrefill = true
	sp.PrefillChunkTokens = 64

	freeBefore := sp.FreeBlocks()
	r := Request{ID: 1, PromptLen: 300, OutputLen: 16}
	if err := sp.Admit(r); err != nil {
		t.Fatal(err)
	}
	// Two chunk iterations: 128 of 300 prompt tokens prefilled.
	sp.Prefill()
	sp.Prefill()
	if len(sp.admitted) != 1 || sp.ActiveCount() != 0 {
		t.Fatalf("sequence left mid-prefill: admitted=%d active=%d", len(sp.admitted), sp.ActiveCount())
	}
	if got := sp.PrefillTokens(); got != 128 {
		t.Fatalf("prefilled %d tokens over two 64-chunks, want 128", got)
	}
	if sp.OutputTokens() != 0 {
		t.Fatalf("mid-prefill sequence emitted %d tokens", sp.OutputTokens())
	}

	req, ok := sp.Preempt(r.ID)
	if !ok || !reflect.DeepEqual(req, r) {
		t.Fatalf("Preempt = %+v, %v; want original request", req, ok)
	}
	if got := sp.FreeBlocks(); got != freeBefore {
		t.Fatalf("free blocks %d after mid-prefill preempt, want %d", got, freeBefore)
	}
	if sp.OutputTokens() != 0 {
		t.Fatalf("preempt left %d phantom tokens", sp.OutputTokens())
	}

	// Re-admission restarts from chunk zero and runs to completion.
	if err := sp.Admit(req); err != nil {
		t.Fatal(err)
	}
	for sp.InFlight() > 0 {
		sp.Prefill()
		if _, _, err := sp.DecodeStep(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sp.OutputTokens(), int64(r.OutputLen); got != want {
		t.Errorf("output tokens %d after readmitted drain, want %d", got, want)
	}
	// 300 discarded + 300 recomputed prompt tokens.
	if got := sp.PrefillTokens(); got != 128+300 {
		t.Errorf("prefill tokens %d, want %d (discarded progress recomputed)", got, 128+300)
	}
	if err := sp.Close(); err != nil {
		t.Errorf("Close after mid-prefill preempt cycle: %v", err)
	}
}

// TestChunkedPrefillTimeDegeneratesToPacked pins the cost-model
// identity the equivalence rests on: a whole prompt processed as one
// chunk prices exactly like the packed prefill path.
func TestChunkedPrefillTimeDegeneratesToPacked(t *testing.T) {
	e := stepperEngine(t)
	prompts := []int{17, 256, 1000}
	chunks := make([]PrefillChunk, len(prompts))
	for i, p := range prompts {
		chunks[i] = PrefillChunk{Start: 0, Tokens: p, Final: true}
	}
	if got, want := e.ChunkedPrefillTime(chunks), e.PackedPrefillTime(prompts); got != want {
		t.Errorf("ChunkedPrefillTime = %g, PackedPrefillTime = %g", got, want)
	}
	if e.ChunkedPrefillTime(nil) != 0 {
		t.Error("empty chunk set must cost nothing")
	}
	// Attention conservation: a prompt's chunks telescope ((s+c)²−s²)
	// to exactly the monolithic p², so pricing both halves in one call
	// equals the whole prompt bit for bit — chunking can never price
	// the same work cheaper.
	whole := e.ChunkedPrefillTime([]PrefillChunk{{Start: 0, Tokens: 1000, Final: true}})
	split := e.ChunkedPrefillTime([]PrefillChunk{
		{Start: 0, Tokens: 500, Final: false},
		{Start: 500, Tokens: 500, Final: true},
	})
	if split != whole {
		t.Errorf("split prompt priced %.9fs in one call, whole prompt %.9fs; attention not conserved", split, whole)
	}
	// Across separate iterations (the real chunked loop), the same
	// split costs strictly more: per-iteration overheads repeat.
	iterated := e.ChunkedPrefillTime([]PrefillChunk{{Start: 0, Tokens: 500, Final: false}}) +
		e.ChunkedPrefillTime([]PrefillChunk{{Start: 500, Tokens: 500, Final: true}})
	if iterated <= whole {
		t.Errorf("two chunk iterations (%.9fs) must cost more than one monolithic prefill (%.9fs)", iterated, whole)
	}
}
