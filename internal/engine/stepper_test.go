package engine

import (
	"testing"

	"zipserv/internal/gpu"
	"zipserv/internal/weights"
)

func stepperEngine(t *testing.T) *Engine {
	t.Helper()
	model, err := weights.ByName("LLaMA3.1-8B")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Model: model, Device: gpu.MustByName("RTX4090"), NumGPUs: 1, Backend: BackendZipServ,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestStepperPreempt exercises the preempt-and-requeue hook: evicting a
// decoding sequence must return every block it held (allocated and
// reserved), discount its partial output, and leave the allocator clean
// after the re-admitted run drains.
func TestStepperPreempt(t *testing.T) {
	e := stepperEngine(t)
	sp, err := NewStepper(e)
	if err != nil {
		t.Fatal(err)
	}
	sp.PackedPrefill = true

	freeBefore := sp.FreeBlocks()
	r1 := Request{ID: 1, PromptLen: 256, OutputLen: 64}
	r2 := Request{ID: 2, PromptLen: 512, OutputLen: 128}
	for _, r := range []Request{r1, r2} {
		if err := sp.Admit(r); err != nil {
			t.Fatal(err)
		}
	}
	sp.Prefill()
	for i := 0; i < 5; i++ {
		if _, _, err := sp.DecodeStep(); err != nil {
			t.Fatal(err)
		}
	}
	tokensBefore := sp.OutputTokens()

	req, ok := sp.Preempt(r2.ID)
	if !ok || req.ID != r2.ID || req.OutputLen != r2.OutputLen {
		t.Fatalf("Preempt(%d) = %+v, %v", r2.ID, req, ok)
	}
	if _, ok := sp.Preempt(99); ok {
		t.Error("Preempt of unknown id reported success")
	}
	if sp.InFlight() != 1 {
		t.Fatalf("in flight %d after preemption, want 1", sp.InFlight())
	}
	// r2's 1 prefill + 5 decode tokens are discounted as wasted work.
	if got := sp.OutputTokens(); got != tokensBefore-6 {
		t.Errorf("output tokens %d after preemption, want %d", got, tokensBefore-6)
	}

	// The freed capacity funds re-admission; drain both to completion.
	if !sp.CanAdmit(req.PromptLen, req.OutputLen) {
		t.Fatal("freed capacity does not readmit the preempted request")
	}
	if err := sp.Admit(req); err != nil {
		t.Fatal(err)
	}
	sp.Prefill()
	for sp.InFlight() > 0 {
		if _, _, err := sp.DecodeStep(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sp.FreeBlocks(); got != freeBefore {
		t.Errorf("free blocks %d after drain, want %d (leak)", got, freeBefore)
	}
	if err := sp.Close(); err != nil {
		t.Errorf("Close after preempt/readmit/drain: %v", err)
	}
	// Useful-token accounting: exactly one full output per request.
	if got, want := sp.OutputTokens(), int64(r1.OutputLen+r2.OutputLen); got != want {
		t.Errorf("output tokens %d, want %d", got, want)
	}
}

// TestPreemptingLastDecoderIsNotACadenceStall: a batch that preemption
// emptied is idle, like one whose last sequence finished, so the long
// prefill that refills it must not count as an inter-token stall in
// MaxDecodeGap.
func TestPreemptingLastDecoderIsNotACadenceStall(t *testing.T) {
	// growth runs a 64/4 request through prefill and one decode step,
	// then preempts it or decodes it to completion, then prefills a
	// 4096-token prompt and decodes once; it returns how much that
	// second phase grew MaxDecodeGap.
	growth := func(preempt bool) float64 {
		sp, err := NewStepper(stepperEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		sp.PackedPrefill = true
		step := func() {
			if _, _, err := sp.DecodeStep(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.Admit(Request{ID: 1, PromptLen: 64, OutputLen: 4}); err != nil {
			t.Fatal(err)
		}
		sp.Prefill()
		step()
		if preempt {
			if _, ok := sp.Preempt(1); !ok {
				t.Fatal("Preempt(1) found no sequence")
			}
		}
		for sp.InFlight() > 0 {
			step()
		}
		before := sp.MaxDecodeGap()
		if err := sp.Admit(Request{ID: 2, PromptLen: 4096, OutputLen: 4}); err != nil {
			t.Fatal(err)
		}
		sp.Prefill()
		step()
		return sp.MaxDecodeGap() - before
	}
	finished, preempted := growth(false), growth(true)
	if preempted > finished {
		t.Errorf("MaxDecodeGap grew %.4fs across a batch preemption emptied, want <= %.4fs as when it finished",
			preempted, finished)
	}
}
