package serve

import (
	"math"
	"sort"
	"testing"

	"zipserv/internal/engine"
)

// mixedTrace builds a bursty interleaved workload: n/2 short
// interactive requests and n/2 long batch requests, alternating, all
// arriving in one tight burst so admission order is decided by the
// policy, not by arrival spacing.
func mixedTrace(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		arrival := float64(i) * 1e-4
		if i%2 == 0 {
			reqs[i] = Request{PromptLen: 64, OutputLen: 16, Arrival: arrival,
				Class: ClassInteractive, TTFTDeadline: 0.5}
		} else {
			reqs[i] = Request{PromptLen: 1024, OutputLen: 512, Arrival: arrival,
				Class: ClassBatch}
		}
	}
	return reqs
}

func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func classTTFTs(reqs []Request, results []Result, class Class) []float64 {
	var out []float64
	for i, r := range reqs {
		if r.Class == class {
			out = append(out, results[i].TTFT)
		}
	}
	return out
}

// TestPriorityBeatsFIFOInteractiveTTFT is the PR's scheduling
// acceptance benchmark: on the same mixed interactive/batch burst,
// PriorityPolicy must cut the interactive-class p50 TTFT below
// FIFOPolicy's, because interactive requests no longer queue behind
// the batch requests interleaved ahead of them.
func TestPriorityBeatsFIFOInteractiveTTFT(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	reqs := mixedTrace(48)
	// MaxBatch forces admission contention regardless of KV headroom,
	// so the policies differ deterministically.
	fifo, _ := replay(t, Config{Engine: eng, QueueDepth: len(reqs), MaxBatch: 8, Policy: FIFOPolicy{}}, reqs)
	prio, _ := replay(t, Config{Engine: eng, QueueDepth: len(reqs), MaxBatch: 8, Policy: PriorityPolicy{}}, reqs)

	fifoP50 := p50(classTTFTs(reqs, fifo, ClassInteractive))
	prioP50 := p50(classTTFTs(reqs, prio, ClassInteractive))
	t.Logf("interactive p50 TTFT: fifo %.3fs, priority %.3fs (%.1fx)",
		fifoP50, prioP50, fifoP50/prioP50)
	if prioP50 >= fifoP50 {
		t.Errorf("interactive p50 TTFT under priority (%.3fs) not below FIFO (%.3fs)", prioP50, fifoP50)
	}
}

// TestSLOBeatsFIFOInteractiveTTFT: deadline-carrying interactive
// requests must also win under earliest-deadline-first.
func TestSLOBeatsFIFOInteractiveTTFT(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	reqs := mixedTrace(48)
	fifo, _ := replay(t, Config{Engine: eng, QueueDepth: len(reqs), MaxBatch: 8, Policy: FIFOPolicy{}}, reqs)
	slo, _ := replay(t, Config{Engine: eng, QueueDepth: len(reqs), MaxBatch: 8, Policy: SLOPolicy{}}, reqs)

	fifoP50 := p50(classTTFTs(reqs, fifo, ClassInteractive))
	sloP50 := p50(classTTFTs(reqs, slo, ClassInteractive))
	t.Logf("interactive p50 TTFT: fifo %.3fs, slo %.3fs (%.1fx)", fifoP50, sloP50, fifoP50/sloP50)
	if sloP50 >= fifoP50 {
		t.Errorf("interactive p50 TTFT under slo (%.3fs) not below FIFO (%.3fs)", sloP50, fifoP50)
	}
}

// TestBatchNotStarvedUnderInteractiveLoad is the starvation-freedom
// property: under a sustained interactive flood, every batch-class
// request must still be admitted while the flood is ongoing — aging
// promotes it past fresher interactive arrivals — rather than only
// after the flood drains.
func TestBatchNotStarvedUnderInteractiveLoad(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	const aging = 2.0
	// A steady interactive stream covering a long window, plus batch
	// requests near the start.
	var reqs []Request
	const interactive, batch = 220, 6
	for i := 0; i < interactive; i++ {
		reqs = append(reqs, Request{PromptLen: 128, OutputLen: 64,
			Arrival: float64(i) * 0.05, Class: ClassInteractive})
	}
	lastArrival := reqs[len(reqs)-1].Arrival
	for i := 0; i < batch; i++ {
		reqs = append(reqs, Request{PromptLen: 1024, OutputLen: 256,
			Arrival: 0.1 + float64(i)*0.01, Class: ClassBatch})
	}

	results, _ := replay(t, Config{
		Engine: eng, QueueDepth: len(reqs), MaxBatch: 4,
		Policy: PriorityPolicy{AgingSeconds: aging},
	}, reqs)

	// The interactive flood must outlast every batch admission for the
	// property to be non-vacuous.
	for i := interactive; i < len(reqs); i++ {
		res := results[i]
		if res.Admitted >= lastArrival {
			t.Errorf("batch request %d admitted at %.2fs, after the interactive flood ended (%.2fs): starved",
				res.ID, res.Admitted, lastArrival)
		}
		if wait := res.QueueWait; wait > 10*aging {
			t.Errorf("batch request %d waited %.2fs, want bounded by aging (%.0fs)", res.ID, wait, aging)
		}
	}
}

// TestSLOPreemptsForUrgentDeadline drives the preempt-and-requeue
// path: with KV capacity pinned by deadline-free hogs, a tight-
// deadline arrival must preempt a victim (which is requeued, not
// failed) instead of waiting for a hog to finish.
func TestSLOPreemptsForUrgentDeadline(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	plan := eng.Plan()
	// Two hogs pin all but a sliver of the KV plan (block = 16
	// tokens), so the urgent request cannot fit without a preemption.
	hogTokens := (plan.Blocks - 4) / 2 * 16
	hog := Request{PromptLen: hogTokens / 2, OutputLen: hogTokens - hogTokens/2, Arrival: 0, Class: ClassBatch}
	urgent := Request{PromptLen: 256, OutputLen: 64, Arrival: 0.5, Class: ClassInteractive, TTFTDeadline: 1}

	s := newServer(t, Config{Engine: eng, QueueDepth: 8, Policy: SLOPolicy{}})
	h1, err := s.Submit(hog)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.Submit(hog)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Submit(urgent)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	ur := awaitResult(t, u)
	if ur.Err != nil {
		t.Fatalf("urgent request failed: %v", ur.Err)
	}
	preempted := 0
	for _, tk := range []*Ticket{h1, h2} {
		res := awaitResult(t, tk)
		if res.Err != nil {
			t.Fatalf("preempted hog failed: %v", res.Err)
		}
		preempted += res.Preempted
	}
	if preempted == 0 {
		t.Fatal("urgent deadline admitted without preempting a hog — capacity sizing is vacuous")
	}
	if st := s.Stats(); st.Preempted != int64(preempted) {
		t.Errorf("stats preempted %d, results saw %d", st.Preempted, preempted)
	}
	if ur.TTFT <= 0 {
		t.Errorf("urgent TTFT %.3f, want > 0", ur.TTFT)
	}
}

// TestPolicyByName covers the flag surface.
func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := PolicyByName(""); err != nil || p.Name() != "fifo" {
		t.Errorf("empty policy = %v, %v, want fifo default", p, err)
	}
	if _, err := PolicyByName("lifo"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestFIFOPolicyMatchesLegacyBehaviour: a nil-policy server and an
// explicit FIFOPolicy server must produce identical virtual-time
// schedules, so the redesign cannot have changed the default path.
func TestFIFOPolicyMatchesLegacyBehaviour(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	trace := engine.SyntheticTrace(32, 150, 256, 32, 11)
	reqs := make([]Request, len(trace))
	for i, r := range trace {
		reqs[i] = Request{PromptLen: r.PromptLen, OutputLen: r.OutputLen, Arrival: r.ArrivalSeconds}
	}
	def, _ := replay(t, Config{Engine: eng, QueueDepth: len(reqs)}, reqs)
	fifo, _ := replay(t, Config{Engine: eng, QueueDepth: len(reqs), Policy: FIFOPolicy{}}, reqs)
	for i := range def {
		if def[i].Admitted != fifo[i].Admitted || def[i].Finished != fifo[i].Finished {
			t.Fatalf("request %d schedules diverge: default %+v vs fifo %+v", i, def[i], fifo[i])
		}
	}
}
