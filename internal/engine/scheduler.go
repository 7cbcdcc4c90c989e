package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Request is one serving request in a trace.
type Request struct {
	ID             int
	ArrivalSeconds float64
	PromptLen      int
	OutputLen      int

	// Prompt carries the prompt's token ids. Optional: the simulator
	// prices work from PromptLen alone, but a prefix-cache-enabled
	// Stepper content-addresses these tokens to reuse KV blocks across
	// requests sharing a prompt prefix. When non-empty its length must
	// equal PromptLen. Requests without tokens never share.
	Prompt []int
}

// RequestMetrics reports per-request serving quality.
type RequestMetrics struct {
	ID         int
	Arrival    float64
	Admitted   float64 // when KV capacity was granted
	FirstToken float64 // end of the request's prefill
	Finished   float64

	TTFT    float64 // time to first token (FirstToken − Arrival)
	TPOT    float64 // time per output token after the first (decode cadence)
	Latency float64 // Finished − Arrival

	// CachedTokens is how many prompt tokens were served from the
	// prefix cache instead of being prefilled (0 when caching is off
	// or nothing matched).
	CachedTokens int
}

// TraceStats aggregates a continuous-batching run.
type TraceStats struct {
	Requests        int
	MakespanSeconds float64
	OutputTokens    int64
	Throughput      float64 // output tokens / makespan

	MeanTTFT float64
	MaxTTFT  float64
	MeanLat  float64

	PeakConcurrency int
	DecodeSteps     int64
}

// Serve runs a continuous-batching simulation over the request trace
// (vLLM-style iteration-level scheduling, §6.5): at every decode step
// the running batch is whatever fits, arrivals are admitted as KV
// blocks free up, and finished sequences release capacity immediately.
// Admission is conservative: a request is admitted only when its full
// prompt+output KV reservation fits, so no sequence can fail mid
// flight (real vLLM admits optimistically and preempts; conservative
// reservation bounds the same capacity effect without modelling
// preemption).
//
// Serve is a thin offline driver over the shared Stepper state
// machine; the live scheduler in internal/serve drives the same
// Stepper from a request channel. Serve keeps the legacy request-level
// padded prefill (every prompt in a prefill batch is priced at the
// longest one), which is what makes it the static-batch baseline the
// live packed-prefill loop is benchmarked against.
func (e *Engine) Serve(reqs []Request) (TraceStats, []RequestMetrics, error) {
	var st TraceStats
	if len(reqs) == 0 {
		return st, nil, fmt.Errorf("engine: empty request trace")
	}
	pending := append([]Request(nil), reqs...)
	sort.SliceStable(pending, func(i, j int) bool {
		return pending[i].ArrivalSeconds < pending[j].ArrivalSeconds
	})
	for _, r := range pending {
		if r.PromptLen <= 0 || r.OutputLen <= 0 || r.ArrivalSeconds < 0 {
			return st, nil, fmt.Errorf("engine: request %d invalid (%+v)", r.ID, r)
		}
		// A request whose reservation exceeds the whole plan must fail
		// here, or the FIFO admission loop below could never make
		// progress.
		if !e.FitsKV(r.PromptLen, r.OutputLen) {
			return st, nil, fmt.Errorf("engine: request %d (%d+%d tokens) can never fit in KV memory",
				r.ID, r.PromptLen, r.OutputLen)
		}
	}

	sp, err := NewStepper(e)
	if err != nil {
		return st, nil, err
	}

	var (
		done    []RequestMetrics
		nextIdx int
	)
	for len(done) < len(pending) {
		// Jump to the next arrival if the system is idle.
		if sp.InFlight() == 0 && nextIdx < len(pending) && pending[nextIdx].ArrivalSeconds > sp.Clock() {
			sp.AdvanceTo(pending[nextIdx].ArrivalSeconds)
		}

		// Admit new arrivals in FIFO order: stop at the first request
		// that does not fit, so the head of line is never starved.
		for nextIdx < len(pending) && pending[nextIdx].ArrivalSeconds <= sp.Clock() {
			r := pending[nextIdx]
			if !sp.CanAdmit(r.PromptLen, r.OutputLen) {
				break
			}
			if err := sp.Admit(r); err != nil {
				return st, nil, err
			}
			nextIdx++
		}

		// Prefill the newcomers as one batch, then run one decode step.
		sp.Prefill()
		if sp.ActiveCount() == 0 {
			if sp.InFlight() == 0 && nextIdx >= len(pending) {
				break // nothing in flight, nothing pending: all done
			}
			continue // mid-prefill sequences or future arrivals remain
		}
		finished, _, err := sp.DecodeStep()
		if err != nil {
			return st, nil, err
		}
		done = append(done, finished...)
	}

	if err := sp.Close(); err != nil {
		return st, nil, fmt.Errorf("engine: after trace: %w", err)
	}

	sort.Slice(done, func(i, j int) bool { return done[i].ID < done[j].ID })
	st.Requests = len(done)
	st.MakespanSeconds = sp.Clock()
	st.OutputTokens = sp.OutputTokens()
	st.PeakConcurrency = sp.PeakConcurrency()
	st.DecodeSteps = sp.DecodeSteps()
	if st.MakespanSeconds > 0 {
		st.Throughput = float64(st.OutputTokens) / st.MakespanSeconds
	}
	var ttftSum, latSum float64
	for _, m := range done {
		ttftSum += m.TTFT
		latSum += m.Latency
		st.MaxTTFT = math.Max(st.MaxTTFT, m.TTFT)
	}
	st.MeanTTFT = ttftSum / float64(len(done))
	st.MeanLat = latSum / float64(len(done))
	return st, done, nil
}

// SyntheticTrace generates a deterministic Poisson-arrival request
// trace: exponential inter-arrival times at the given rate (requests
// per second) and geometric-ish prompt/output length jitter around the
// supplied means.
func SyntheticTrace(n int, ratePerSec float64, meanPrompt, meanOutput int, seed int64) []Request {
	if n <= 0 || ratePerSec <= 0 || meanPrompt <= 0 || meanOutput <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	t := 0.0
	for i := range reqs {
		t += rng.ExpFloat64() / ratePerSec
		jitter := func(mean int) int {
			v := int(float64(mean) * (0.5 + rng.Float64())) // uniform [0.5, 1.5)·mean
			if v < 1 {
				v = 1
			}
			return v
		}
		reqs[i] = Request{
			ID:             i,
			ArrivalSeconds: t,
			PromptLen:      jitter(meanPrompt),
			OutputLen:      jitter(meanOutput),
		}
	}
	return reqs
}
