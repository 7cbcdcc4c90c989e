package engine

import (
	"errors"
	"math"
	"testing"
)

// prefillToFirstToken admits a request on a fresh prefix-cached
// stepper and runs it to its first token, returning the stepper.
func prefillToFirstToken(t testing.TB, e *Engine, r Request) *Stepper {
	t.Helper()
	sp, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	sp.PackedPrefill = true
	if err := sp.EnablePrefixCache(0); err != nil {
		t.Fatal(err)
	}
	if err := sp.Admit(r); err != nil {
		t.Fatal(err)
	}
	for iters := 0; len(sp.admitted) > 0; iters++ {
		if iters > 1<<10 {
			t.Fatal("prefill failed to make progress")
		}
		sp.Prefill()
	}
	if sp.ActiveCount() != 1 {
		t.Fatalf("first token did not land: %d active", sp.ActiveCount())
	}
	return sp
}

// TestHandoffContinuesDecodeOnTarget is the disaggregation round trip:
// prefill to first token on one stepper, export, import into another,
// finish the decode there. The request's metrics must be continuous —
// the first-token timestamp set by the exporter, the finish computed
// by the importer — and both steppers must close with clean
// invariants.
func TestHandoffContinuesDecodeOnTarget(t *testing.T) {
	e := newPrefixTestEngine(t)
	r := Request{ID: 1, PromptLen: 400, OutputLen: 16, Prompt: prefixTokens(400, 1)}
	src := prefillToFirstToken(t, e, r)

	exp, err := src.ExportSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Remaining != r.OutputLen-1 || exp.Ctx != r.PromptLen {
		t.Fatalf("export carries remaining=%d ctx=%d, want %d/%d",
			exp.Remaining, exp.Ctx, r.OutputLen-1, r.PromptLen)
	}
	if exp.Metrics.FirstToken <= 0 || exp.Metrics.TTFT <= 0 {
		t.Fatalf("export lost the first-token metrics: %+v", exp.Metrics)
	}
	if exp.TransferSeconds <= 0 {
		t.Fatal("transfer time not priced")
	}
	// The exporter released everything: no sequences, no reservation.
	if src.InFlight() != 0 {
		t.Fatalf("source still has %d sequences in flight", src.InFlight())
	}
	if got := src.OutputTokens(); got != 1 {
		t.Fatalf("source output tokens %d after export, want the 1 it really emitted", got)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("source close after export: %v", err)
	}

	dst, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.EnablePrefixCache(0); err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportSequence(exp); err != nil {
		t.Fatal(err)
	}
	if dst.ActiveCount() != 1 {
		t.Fatalf("import landed %d active sequences, want 1", dst.ActiveCount())
	}
	// The sequence arrives no earlier than export + transfer, plus the
	// decompression of the shipped blocks.
	if dst.Clock() < exp.ExportedAt+exp.TransferSeconds {
		t.Fatalf("import clock %.6f before transfer completed at %.6f",
			dst.Clock(), exp.ExportedAt+exp.TransferSeconds)
	}

	var fin []RequestMetrics
	for iters := 0; dst.InFlight() > 0; iters++ {
		if iters > 1<<10 {
			t.Fatal("decode failed to make progress")
		}
		got, _, err := dst.DecodeStep()
		if err != nil {
			t.Fatal(err)
		}
		fin = append(fin, got...)
	}
	if len(fin) != 1 || fin[0].ID != 1 {
		t.Fatalf("target finished %v, want request 1", fin)
	}
	m := fin[0]
	if m.FirstToken != exp.Metrics.FirstToken {
		t.Fatalf("finish rewrote FirstToken: %v != %v", m.FirstToken, exp.Metrics.FirstToken)
	}
	if m.Finished <= m.FirstToken || m.TPOT <= 0 || m.Latency <= 0 {
		t.Fatalf("discontinuous finish metrics: %+v", m)
	}
	// All decode tokens after the handoff were emitted on the target.
	if got := dst.OutputTokens(); got != int64(r.OutputLen-1) {
		t.Fatalf("target output tokens %d, want %d", got, r.OutputLen-1)
	}
	if err := dst.Close(); err != nil {
		t.Fatalf("target close: %v", err)
	}
}

// TestHandoffImportDilatedUnderSlowFault: an import's decompress cost
// is step time like a prefill's, so a stepper slowed by TimeDilation
// pays it dilated. The same export lands on a full-speed target and on
// one at 4x slowdown; past the transfer, the slow target's clock must
// have advanced four times as far.
func TestHandoffImportDilatedUnderSlowFault(t *testing.T) {
	e := newPrefixTestEngine(t)
	src := prefillToFirstToken(t, e, Request{ID: 1, PromptLen: 400, OutputLen: 16, Prompt: prefixTokens(400, 1)})
	exp, err := src.ExportSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	landed := exp.ExportedAt + exp.TransferSeconds
	importCost := func(factor float64) float64 {
		dst, err := NewStepper(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.EnablePrefixCache(0); err != nil {
			t.Fatal(err)
		}
		dst.TimeDilation = func(float64) float64 { return factor }
		if err := dst.ImportSequence(exp); err != nil {
			t.Fatal(err)
		}
		return dst.Clock() - landed
	}
	full, slow := importCost(1), importCost(4)
	if full <= 0 {
		t.Fatalf("import priced no decompress time (%g s): the check is vacuous", full)
	}
	if math.Abs(slow-4*full) > 1e-9*full {
		t.Fatalf("import cost %g s at 4x slowdown, want 4 x %g s", slow, full)
	}
}

// TestHandoffImportSentinels: duplicate imports and capacity
// rejections must fail with distinguishable sentinels and leave the
// target untouched, so a router can drop duplicates and retry
// elsewhere on pressure.
func TestHandoffImportSentinels(t *testing.T) {
	e := newPrefixTestEngine(t)
	r := Request{ID: 1, PromptLen: 400, OutputLen: 16, Prompt: prefixTokens(400, 1)}
	src := prefillToFirstToken(t, e, r)
	exp, err := src.ExportSequence(1)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.EnablePrefixCache(0); err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportSequence(exp); err != nil {
		t.Fatal(err)
	}
	free := dst.FreeBlocks()
	if err := dst.ImportSequence(exp); !errors.Is(err, ErrSequenceInFlight) {
		t.Fatalf("duplicate import = %v, want ErrSequenceInFlight", err)
	}
	if dst.FreeBlocks() != free {
		t.Fatal("duplicate import mutated the target")
	}

	// Fill a second target's capacity with admissions, then import.
	full, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	full.PackedPrefill = true
	for id := 100; full.CanAdmit(16, 16); id++ {
		if err := full.Admit(Request{ID: id, PromptLen: 16, OutputLen: 16}); err != nil {
			t.Fatal(err)
		}
	}
	if err := full.ImportSequence(exp); !errors.Is(err, ErrImportNoCapacity) {
		t.Fatalf("import into a full stepper = %v, want ErrImportNoCapacity", err)
	}
}

// TestHandoffDedupReusesTargetPrefix: when the decode target has
// already served the prompt's prefix, the import claims it from the
// trie instead of expanding wire blocks — the content-addressed dedup
// that makes duplicate/retried handoffs cheap.
func TestHandoffDedupReusesTargetPrefix(t *testing.T) {
	e := newPrefixTestEngine(t)
	prompt := prefixTokens(400, 1)
	src := prefillToFirstToken(t, e, Request{ID: 1, PromptLen: 400, OutputLen: 16, Prompt: prompt})
	exp, err := src.ExportSequence(1)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the target with a sibling request over the same prompt.
	dst := prefillToFirstToken(t, e, Request{ID: 2, PromptLen: 400, OutputLen: 2, Prompt: prompt})
	for dst.InFlight() > 0 {
		if _, _, err := dst.DecodeStep(); err != nil {
			t.Fatal(err)
		}
	}
	hits, pops := dst.PrefixHits(), dst.Clock()
	_ = pops
	if err := dst.ImportSequence(exp); err != nil {
		t.Fatal(err)
	}
	if dst.PrefixHits() != hits+1 {
		t.Fatalf("warm import did not hit the target trie: hits %d, want %d", dst.PrefixHits(), hits+1)
	}
	for dst.InFlight() > 0 {
		if _, _, err := dst.DecodeStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDisaggHandoff ping-pongs one mid-generation sequence
// between two steppers: each iteration is two full export→import
// round trips (serialize through the codec, transfer, verify,
// deduplicate against the peer's trie). This is the hot path of the
// disaggregated router's prefill→decode handoff.
func BenchmarkDisaggHandoff(b *testing.B) {
	e := newPrefixTestEngine(b)
	// The sequence never decodes inside the loop, so its remaining
	// output keeps it exportable for every iteration.
	r := Request{ID: 1, PromptLen: 400, OutputLen: 512, Prompt: prefixTokens(400, 1)}
	a := prefillToFirstToken(b, e, r)
	c, err := NewStepper(e)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.EnablePrefixCache(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := a.ExportSequence(1)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.ImportSequence(exp); err != nil {
			b.Fatal(err)
		}
		back, err := c.ExportSequence(1)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.ImportSequence(back); err != nil {
			b.Fatal(err)
		}
	}
}
