package serve

import (
	"math"
	"sort"
	"testing"

	"zipserv/internal/engine"
)

func TestAdaptiveConfigValidation(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nan target", Config{Engine: eng, AdaptiveChunking: true, TargetStepTime: math.NaN()}},
		{"inf target", Config{Engine: eng, AdaptiveChunking: true, TargetStepTime: math.Inf(1)}},
		{"negative target", Config{Engine: eng, AdaptiveChunking: true, TargetStepTime: -0.01}},
		{"target without adaptive", Config{Engine: eng, TargetStepTime: 0.05}},
		{"adaptive with static chunk", Config{Engine: eng, AdaptiveChunking: true, PrefillChunkTokens: 64}},
		{"adaptive cache without prefix cache", Config{Engine: eng, AdaptivePrefixCache: true}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	s, err := New(Config{Engine: eng, AdaptiveChunking: true, PrefixCache: true, AdaptivePrefixCache: true})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if !st.AdaptiveChunking || !st.AdaptivePrefixCache {
		t.Errorf("seed stats lost the adaptive flags: %+v", st)
	}
	if st.TargetStepTime != DefaultTargetStepTime {
		t.Errorf("seed target %v, want default %v", st.TargetStepTime, DefaultTargetStepTime)
	}
	if st.ChunkBudget != engine.DefaultAdaptiveChunkMax || st.ChunkBudgetMin != st.ChunkBudget || st.ChunkBudgetMax != st.ChunkBudget {
		t.Errorf("seed budget %d [%d, %d], want the adaptive ceiling %d",
			st.ChunkBudget, st.ChunkBudgetMin, st.ChunkBudgetMax, engine.DefaultAdaptiveChunkMax)
	}
}

// mixedAdaptiveTrace builds the mixed long-prompt + shared-prefix
// workload both the enforced adaptive-vs-static tests and the CLI's
// -compare-adaptive mode replay: bursts of short decoders sharing a
// prompt prefix, with two long unique prompts riding every burst — the
// regime-switching pattern (deep decode batch during a burst, idle
// drain between bursts) where a static chunk budget must pick one
// regime to lose.
func mixedAdaptiveTrace(bursts, perBurst, prompt, out int, gap float64) []Request {
	prefix := seqTokens(4*prompt, 1)
	reqs := make([]Request, 0, bursts*perBurst)
	id := 0
	for b := 0; b < bursts; b++ {
		at := float64(b) * gap
		for j := 0; j < perBurst; j++ {
			id++
			if j >= perBurst-2 {
				reqs = append(reqs, Request{
					Prompt:    seqTokens(16*prompt, 5000+id),
					OutputLen: 8,
					Arrival:   at,
				})
				continue
			}
			tokens := append(append([]int(nil), prefix...), seqTokens(prompt/4, 100+id)...)
			reqs = append(reqs, Request{Prompt: tokens, OutputLen: out, Arrival: at})
		}
	}
	return reqs
}

// decoderTPOTp99 summarises the short decoders' cadence (the long
// prompts, recognisable by their 8-token outputs, are the disturbance,
// not the measurement).
func decoderTPOTp99(reqs []Request, results []Result) float64 {
	var tpots []float64
	for i, res := range results {
		if reqs[i].OutputLen > 8 {
			tpots = append(tpots, res.TPOT)
		}
	}
	sort.Float64s(tpots)
	idx := int(math.Ceil(0.99*float64(len(tpots)))) - 1
	if idx < 0 {
		idx = 0
	}
	return tpots[idx]
}

// TestAdaptiveChunkingBeatsStaticTPOT is the enforced tentpole win:
// on the mixed long-prompt + shared-prefix workload, the closed-loop
// budget must match or beat EVERY static chunk setting on decode TPOT
// p99 — without giving up goodput against the static setting that
// achieved the best cadence (the Pareto claim: the controller gets the
// small-chunk cadence and pays less than the small-chunk throughput
// price).
func TestAdaptiveChunkingBeatsStaticTPOT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replay comparison")
	}
	reqs := mixedAdaptiveTrace(6, 8, 128, 32, 0.7)

	bestStatic := math.Inf(1)
	var bestStaticGoodput float64
	for _, chunk := range []int{64, 256, 1024} {
		results, st := replay(t, Config{
			Engine:             testEngine(t, engine.BackendZipServ),
			PrefillChunkTokens: chunk,
			PrefixCache:        true,
		}, reqs)
		p99 := decoderTPOTp99(reqs, results)
		t.Logf("static %4d: TPOT p99 %.4fs goodput %.2f r/s", chunk, p99, st.Goodput)
		if p99 < bestStatic {
			bestStatic, bestStaticGoodput = p99, st.Goodput
		}
	}

	results, st := replay(t, Config{
		Engine:              testEngine(t, engine.BackendZipServ),
		AdaptiveChunking:    true,
		TargetStepTime:      adaptiveCompareTarget,
		PrefixCache:         true,
		AdaptivePrefixCache: true,
	}, reqs)
	p99 := decoderTPOTp99(reqs, results)
	t.Logf("adaptive  : TPOT p99 %.4fs goodput %.2f r/s budget %d pool %d",
		p99, st.Goodput, st.ChunkBudget, st.CachePoolTarget)
	if p99 > bestStatic {
		t.Errorf("adaptive TPOT p99 %.4fs worse than the best static setting %.4fs", p99, bestStatic)
	}
	if st.Goodput < 0.95*bestStaticGoodput {
		t.Errorf("adaptive goodput %.2f r/s below the cadence-best static setting's %.2f r/s",
			st.Goodput, bestStaticGoodput)
	}
	if !st.AdaptiveChunking || st.ChunkBudget <= 0 {
		t.Errorf("adaptive stats incoherent: %+v", st)
	}
	if st.StepTimeEWMA <= 0 || st.StepTimeEWMA > 10*adaptiveCompareTarget {
		t.Errorf("step-time EWMA %.4fs implausible against target %.4fs", st.StepTimeEWMA, adaptiveCompareTarget)
	}
}

// adaptiveCompareTarget is the TPOT SLO the comparison runs under:
// tight enough that the controller actually has to defend the decode
// cadence during bursts instead of coasting at its ceiling.
const adaptiveCompareTarget = 0.030

// TestAdaptiveCacheNeverAdmitsFewer: on a capacity-pressure trace the
// sizing controller must react (the pool target moves off its start)
// without ever costing admissions — every request a static bound
// completes, the adaptive bound completes too.
func TestAdaptiveCacheNeverAdmitsFewer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replay comparison")
	}
	// Big sequences against the plan: sustained KV pressure, with a
	// shared prefix so the cache has something to park.
	prefix := seqTokens(1024, 7)
	n := 24
	reqs := make([]Request, n)
	for i := range reqs {
		tokens := append(append([]int(nil), prefix...), seqTokens(512, 300+i)...)
		reqs[i] = Request{Prompt: tokens, OutputLen: 4096, Arrival: float64(i) * 0.01}
	}

	_, static := replay(t, Config{
		Engine:            testEngine(t, engine.BackendZipServ),
		PrefixCache:       true,
		PrefixCacheBlocks: 64,
	}, reqs)
	_, adaptive := replay(t, Config{
		Engine:              testEngine(t, engine.BackendZipServ),
		PrefixCache:         true,
		PrefixCacheBlocks:   64,
		AdaptivePrefixCache: true,
	}, reqs)

	if adaptive.Completed < static.Completed {
		t.Errorf("adaptive sizing completed %d requests, static completed %d", adaptive.Completed, static.Completed)
	}
	if adaptive.Failed > static.Failed {
		t.Errorf("adaptive sizing failed %d requests, static failed %d", adaptive.Failed, static.Failed)
	}
	if !adaptive.AdaptivePrefixCache {
		t.Error("adaptive flag lost from stats")
	}
	if adaptive.CachePoolTarget == 64 {
		t.Error("pool target never moved off its starting bound under sustained pressure")
	}
	t.Logf("static: completed %d; adaptive: completed %d, pool target %d, pressure EWMA %.3f",
		static.Completed, adaptive.Completed, adaptive.CachePoolTarget, adaptive.CachePressureEWMA)
}

// TestPreStartCachePoolTargetIsClamped: before its first iteration a
// replica reports what its loop publishes. The sizing controller clamps
// an AdaptivePrefixCache starting bound past the plan to the plan, so
// the pre-start cache_pool_target_blocks must read the plan too, not
// the configured bound.
func TestPreStartCachePoolTargetIsClamped(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	blocks := eng.Plan().Blocks
	srv := newServer(t, Config{Engine: eng, PrefixCache: true, AdaptivePrefixCache: true, PrefixCacheBlocks: blocks + 1000})
	if got := srv.Stats().CachePoolTarget; got != blocks {
		t.Errorf("pre-start cache pool target %d blocks, want the %d-block plan", got, blocks)
	}
}
