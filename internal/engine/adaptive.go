package engine

import (
	"fmt"
	"math"

	"zipserv/internal/gpu"
	"zipserv/internal/kvcache"
)

// Adaptive SLO-driven chunked prefill (the closed-loop version of
// Sarathi-Serve's chunking): instead of trusting an operator's static
// -prefill-chunk constant, the Stepper re-derives the budget every
// iteration from a combined step-time target. One scheduler iteration
// emits one token for every decoding sequence, so the iteration's
// wall time — the prefill chunk it mixes in plus the decode step — IS
// the decode batch's inter-token latency; holding it under the TPOT
// SLO bounds the cadence stall that static chunking only bounds for
// the workload it was tuned on.
//
// Each iteration the controller:
//
//  1. prices the current decode batch with the cost model
//     (BatchDecodeStepTime) and subtracts it from the target, leaving
//     the prefill headroom;
//  2. inverts ChunkedPrefillTime over that headroom (gpu.InvertCost
//     binary-searches the true carve the budget would produce), solving
//     for the largest chunk that keeps the combined step under target;
//  3. clamps the solution to [MinTokens, MaxTokens] and smooths it —
//     asymmetrically: shrink at once (the cadence SLO is the hard
//     constraint), grow by EWMA (so one idle iteration does not slam
//     a huge chunk between decode steps).
//
// With an empty decode batch a mixed replica has no cadence to
// protect, so the budget rises toward MaxTokens and an idle loop
// swallows long prompts nearly monolithically — exactly the two
// regimes the static flag forces operators to trade off. A dedicated
// prefill replica (a disaggregated pool, see docs/disaggregation.md)
// is different: it is decode-free by design, so "idle-grow" would pin
// the budget at the ceiling forever and every iteration would stall
// arrivals for an unbounded, ceiling-sized prefill. Setting
// Stepper.DecodeFree declares that steady state and gives the
// controller an explicit decode-free operating point: with no decode
// batch it solves the budget directly against the full TargetStepTime,
// bounding per-iteration admission (and handoff) latency by the same
// SLO that governs mixed iterations.

// Adaptive chunk-budget defaults.
const (
	// DefaultAdaptiveChunkMin floors the budget at one KV block. A
	// prefill iteration is almost all fixed cost (weight streaming and
	// launch overheads dwarf the per-token work), so the floor buys the
	// best achievable cadence while the decode batch is deep — minimal
	// stall per iteration — and the controller only sits there while
	// congestion lasts; prompt throughput is recovered by the budget
	// ceiling the moment the batch thins out.
	DefaultAdaptiveChunkMin = kvcache.DefaultBlockTokens
	// DefaultAdaptiveChunkMax caps the budget: one iteration never
	// mixes in more prompt than this even when the loop is idle.
	DefaultAdaptiveChunkMax = 2048
	// chunkGrowAlpha is the EWMA weight of the freshly solved budget
	// while growing (shrinking is immediate).
	chunkGrowAlpha = 0.5
	// stepEWMAAlpha smooths the observed combined iteration time
	// surfaced as StepTimeEWMA.
	stepEWMAAlpha = 0.3
)

// chunkController is the closed-loop chunk-budget state.
type chunkController struct {
	target   float64 // combined prefill+decode step-time target (seconds)
	min, max int
	budget   float64 // smoothed current budget (tokens)
}

// EnableAdaptiveChunking replaces the static PrefillChunkTokens budget
// with the closed-loop controller: every Prefill call re-derives its
// chunk budget so that the iteration's prefill + decode time stays
// under targetStepTime (the decode batch's TPOT SLO). minTokens and
// maxTokens clamp the budget (0 = DefaultAdaptiveChunkMin/Max). Must
// be enabled before the first Prefill.
func (s *Stepper) EnableAdaptiveChunking(targetStepTime float64, minTokens, maxTokens int) error {
	if targetStepTime <= 0 || math.IsNaN(targetStepTime) || math.IsInf(targetStepTime, 0) {
		return fmt.Errorf("engine: adaptive chunking target %v must be positive and finite", targetStepTime)
	}
	if minTokens < 0 || maxTokens < 0 {
		return fmt.Errorf("engine: adaptive chunk bounds must be non-negative, got %d/%d", minTokens, maxTokens)
	}
	if minTokens == 0 {
		minTokens = DefaultAdaptiveChunkMin
	}
	if maxTokens == 0 {
		maxTokens = DefaultAdaptiveChunkMax
	}
	if maxTokens < minTokens {
		return fmt.Errorf("engine: adaptive chunk max %d below min %d", maxTokens, minTokens)
	}
	s.chunkCtl = &chunkController{
		target: targetStepTime,
		min:    minTokens,
		max:    maxTokens,
		budget: float64(maxTokens), // idle start: no decode batch to protect yet
	}
	return nil
}

// AdaptiveChunking reports whether the closed-loop budget is on.
func (s *Stepper) AdaptiveChunking() bool { return s.chunkCtl != nil }

// TargetStepTime returns the adaptive controller's combined step-time
// target (0 when adaptive chunking is off).
func (s *Stepper) TargetStepTime() float64 {
	if s.chunkCtl == nil {
		return 0
	}
	return s.chunkCtl.target
}

// ChunkBudget returns the prefill token budget the next iteration will
// honour: the controller's smoothed current budget under adaptive
// chunking, otherwise the static PrefillChunkTokens (0 = monolithic).
func (s *Stepper) ChunkBudget() int {
	if s.chunkCtl != nil {
		return int(s.chunkCtl.budget + 0.5)
	}
	return s.PrefillChunkTokens
}

// probePrefillTime prices the prefill iteration a given budget would
// produce right now, thaw aside: carve the admitted queue exactly as
// Prefill would, then run the carve through the chunk-aware cost model
// on the stepper's GEMM table. The probe buffer is scratch; the
// controller's binary search calls this O(log(max/min)) times per
// iteration.
func (s *Stepper) probePrefillTime(budget int) float64 {
	sc := s.scratch()
	sc.probe = s.carve(budget, sc.probe[:0])
	return s.e.chunkedPrefillTime(&s.gemm, sc.probe)
}

// adaptChunkBudget runs one controller update and returns the budget
// this Prefill call must honour. Called with a non-empty admitted
// queue.
func (s *Stepper) adaptChunkBudget() int {
	ctl := s.chunkCtl
	// Pending thaw work runs with the iteration regardless of budget;
	// every probe must include it or InvertCost would solve for a budget
	// whose real iteration overshoots the cadence target. Its price does
	// not depend on the budget, so it is priced once per update.
	thaw := s.e.KVDecompressTime(s.pendingDecompress)
	probe := func(budget int) float64 { return s.probePrefillTime(budget) + thaw }
	var solved int
	if len(s.active) > 0 {
		sumCtx := 0
		for _, q := range s.active {
			sumCtx += q.ctx
		}
		headroom := ctl.target - s.e.batchDecodeStepTime(&s.gemm, len(s.active), sumCtx)
		if headroom <= 0 {
			// The decode step alone blows the target: make minimal
			// prompt progress so admitted sequences still move.
			solved = ctl.min
		} else {
			solved = gpu.InvertCost(ctl.min, ctl.max, headroom, probe)
		}
	} else if s.DecodeFree {
		// Decode-free operating point: on a dedicated prefill replica
		// the whole step-time target is prefill headroom. Solving
		// (rather than defaulting to the ceiling) keeps its iterations
		// — and so its admission and handoff latency — bounded by the
		// same SLO that governs mixed iterations.
		solved = gpu.InvertCost(ctl.min, ctl.max, ctl.target, probe)
	} else {
		// A mixed replica's empty decode batch is transient idleness:
		// nobody's cadence is at stake, so grow toward the ceiling and
		// drain prompts with as few fixed-cost iterations as possible.
		solved = ctl.max
	}
	if f := float64(solved); f < ctl.budget {
		ctl.budget = f // shrink at once: the cadence SLO is hard
	} else {
		ctl.budget = chunkGrowAlpha*f + (1-chunkGrowAlpha)*ctl.budget
	}
	if ctl.budget < float64(ctl.min) {
		ctl.budget = float64(ctl.min)
	}
	if ctl.budget > float64(ctl.max) {
		ctl.budget = float64(ctl.max)
	}
	return int(ctl.budget + 0.5)
}
