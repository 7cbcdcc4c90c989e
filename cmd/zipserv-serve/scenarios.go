package main

import (
	"fmt"
	"strings"

	"zipserv"
)

// chaosPlan is the scripted failure -compare-chaos drives: one replica
// crashes mid-run on its own virtual clock, another limps through the
// whole run at a 6x step-time dilation. Every trigger is a pure
// function of replica-local virtual time, so replaying the plan against
// the same workload reproduces the same failure schedule.
const chaosPlan = "seed 42\nslow replica=2 at=0 factor=6\ncrash replica=1 at=0.5\n"

// scenarios is every -compare-<name> mode, in the package doc's order.
// Each -compare-<name> and -require-<name>-win flag is registered from
// its row, and every mode's CSV is pinned by testdata/golden.
var scenarios = []scenario{
	{
		// Alternating interactive requests (the flag lengths, a 250 ms
		// TTFT deadline) and batch requests (8x longer, no deadline):
		// class- and deadline-aware admission against FIFO head-of-line
		// blocking.
		name:  "policies",
		about: "replay a mixed interactive/batch trace under each admission policy and compare per-class TTFT",
		reads: []string{"requests", "rate", "prompt", "out", "seed"},
		build: func(p *params) (*workload, error) {
			w := &workload{header: fmt.Sprintf("mixed trace: %d requests, %.0f req/s Poisson, interactive %d/%d vs batch %d/%d",
				p.requests, p.rate, p.prompt, p.out, 8*p.prompt, 8*p.out)}
			for i, r := range zipserv.SyntheticTrace(p.requests, p.rate, p.prompt, p.out, p.seed) {
				q := zipserv.LiveRequest{PromptLen: p.prompt, OutputLen: p.out, Arrival: r.ArrivalSeconds,
					Class: zipserv.LiveClassInteractive, TTFTDeadline: 0.25}
				if i%2 == 1 {
					q = zipserv.LiveRequest{PromptLen: 8 * p.prompt, OutputLen: 8 * p.out, Arrival: r.ArrivalSeconds,
						Class: zipserv.LiveClassBatch}
				}
				w.reqs = append(w.reqs, q)
			}
			return w, nil
		},
		fleets: perPolicy(),
		key:    "policy",
		cols: []column{
			pctCol("interactive_ttft_p50_s", ttftOf, 0.50, interactive),
			pctCol("interactive_ttft_p95_s", ttftOf, 0.95, interactive),
			pctCol("batch_ttft_p50_s", ttftOf, 0.50, func(i int, q zipserv.LiveRequest) bool { return !interactive(i, q) }),
			goodputCol,
			{"preempted", "%d", func(r *run) any { return r.st.Preempted }},
		},
	},
	{
		// Short decoders at the flag lengths with every fifth request a
		// 16x-long prompt: monolithic prefill wedges a full-prompt stall
		// between decode steps, and each chunk budget bounds it.
		name:  "chunking",
		about: "replay a long-prompt/decoder mix under each prefill chunk budget and compare decode TPOT p50/p99",
		reads: []string{"requests", "rate", "prompt", "out", "seed"},
		build: func(p *params) (*workload, error) {
			w := &workload{header: fmt.Sprintf("chunking mix: %d requests, %.0f req/s Poisson, decoders %d/%d with every 5th prompt %d tokens",
				p.requests, p.rate, p.prompt, p.out, 16*p.prompt)}
			for i, r := range zipserv.SyntheticTrace(p.requests, p.rate, p.prompt, p.out, p.seed) {
				q := zipserv.LiveRequest{PromptLen: p.prompt, OutputLen: p.out, Arrival: r.ArrivalSeconds}
				if i%5 == 4 {
					q = zipserv.LiveRequest{PromptLen: 16 * p.prompt, OutputLen: 8, Arrival: r.ArrivalSeconds}
				}
				w.reqs = append(w.reqs, q)
			}
			return w, nil
		},
		fleets: []fleet{
			{label: "0", replicas: []zipserv.LiveConfig{{}}},
			{label: "64", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 64}}},
			{label: "256", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 256}}},
			{label: "1024", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 1024}}},
		},
		key: "chunk_tokens",
		cols: []column{
			// Only the decoders: -out may equal a long prompt's 8 tokens.
			pctCol("decode_tpot_p50_s", tpotOf, 0.50, chunkDecoders),
			pctCol("decode_tpot_p99_s", tpotOf, 0.99, chunkDecoders),
			maxGapCol, goodputCol,
		},
	},
	{
		// Every request repeats one 8x-prompt prefix (a system prompt or
		// few-shot template) plus a unique suffix, at a steady 1/rate
		// spacing: the reuse win of copy-on-write prefix caching.
		name:  "prefix",
		about: "replay a shared-prefix workload with the KV prefix cache off and on and compare TTFT and prefill work",
		reads: []string{"requests", "rate", "prompt", "out"},
		build: func(p *params) (*workload, error) {
			w := &workload{header: fmt.Sprintf("shared-prefix workload: %d requests, %.0f req/s, prefix %d tokens + suffix %d, output %d",
				p.requests, p.rate, 8*p.prompt, p.prompt, p.out)}
			prefix := tokens(8*p.prompt, 100003)
			for i := 0; i < p.requests; i++ {
				w.reqs = append(w.reqs, zipserv.LiveRequest{
					Prompt: withSuffix(prefix, p.prompt, (i+2)*1000003), OutputLen: p.out, Arrival: float64(i) / p.rate,
				})
			}
			return w, nil
		},
		fleets: []fleet{
			{label: "prefix-off", replicas: []zipserv.LiveConfig{{}}},
			{label: "prefix-on", replicas: []zipserv.LiveConfig{{PrefixCache: true}}},
		},
		key:  "mode",
		cols: []column{ttftP50Col, ttftP99Col, prefillCol, hitsCol, savedCol, goodputCol},
		gate: "prefix-on TTFT p50 <= prefix-off",
		win: func(rs []*run, g *winGate) string {
			off, on := rs[0].pct(0.50, ttftOf, nil), rs[1].pct(0.50, ttftOf, nil)
			g.require(on <= off, "prefix-on TTFT p50 %.6fs > prefix-off %.6fs", on, off)
			if off <= 0 {
				return ""
			}
			return fmt.Sprintf("prefix-on TTFT p50 speedup: %.2fx, prefill tokens saved: %d",
				off/on, rs[0].st.PrefillTokens-rs[1].st.PrefillTokens)
		},
	},
	{
		// Shared-prefix requests (a 4-block prefix plus a unique 1-block
		// suffix) alternate with prompt-only "flushers" whose footprint
		// is the whole deliberately tiny KV plan. Each flusher forces
		// every parked refcount-zero block out of the physical pool, so
		// plain parking has lost the prefix by the next shared request,
		// while the compressed cache holds it frozen outside the
		// physical budget and restores it on claim, decompress priced
		// into that prefill. MaxBatch 1 serialises the trace so the
		// pressure pattern is deterministic.
		name:  "compress",
		about: "replay a capacity-pressure shared-prefix workload with the compressed cold-block cache off and on and compare prefix reuse",
		reads: []string{"requests"},
		build: func(p *params) (*workload, error) {
			const (
				blockTokens = 16 // kvcache.DefaultBlockTokens
				planBlocks  = 14
				prefixLen   = 4 * blockTokens
				suffixLen   = blockTokens
				outputLen   = 2 * blockTokens
				// The flusher is admitted by PromptLen alone, so it
				// allocates fresh blocks without touching the prefix trie.
				flushPrompt = planBlocks*blockTokens - outputLen
			)
			n := max(p.requests, 2) // one reuse opportunity minimum
			// Shrink the KV plan to exactly planBlocks blocks: hand the
			// default plan's surplus KV bytes, less half a block so
			// flooring cannot drop below the target, back as reserved
			// memory.
			probe, err := zipserv.NewEngine(p.serving)
			if err != nil {
				return nil, err
			}
			bytesPerBlock := blockTokens * p.serving.Model.KVBytesPerToken() / int64(p.serving.NumGPUs)
			surplus := probe.Plan().KVBytes - planBlocks*bytesPerBlock - bytesPerBlock/2
			if surplus <= 0 {
				return nil, fmt.Errorf("device plan already below %d KV blocks", planBlocks)
			}
			p.serving.ReservedGiB = 3 + float64(surplus)/float64(int64(1)<<30)
			if eng, err := zipserv.NewEngine(p.serving); err != nil {
				return nil, err
			} else if got := eng.Plan().Blocks; got != planBlocks {
				return nil, fmt.Errorf("constrained plan has %d KV blocks, want %d", got, planBlocks)
			}
			w := &workload{header: fmt.Sprintf("capacity-pressure workload: %d shared-prefix requests (%d-token prefix + %d suffix) interleaved with %d-token flushers on a %d-block plan",
				n, prefixLen, suffixLen, flushPrompt, planBlocks)}
			prefix := tokens(prefixLen, 100003)
			for i := 0; i < n; i++ {
				w.reqs = append(w.reqs, zipserv.LiveRequest{
					Prompt: withSuffix(prefix, suffixLen, (i+2)*1000003), OutputLen: outputLen, Arrival: float64(len(w.reqs)) * 0.01,
				})
				if i < n-1 {
					w.reqs = append(w.reqs, zipserv.LiveRequest{
						PromptLen: flushPrompt, OutputLen: outputLen, Arrival: float64(len(w.reqs)) * 0.01,
					})
				}
			}
			return w, nil
		},
		fleets: []fleet{
			{label: "compress-off", replicas: []zipserv.LiveConfig{{MaxBatch: 1, PrefixCache: true}}},
			{label: "compress-on", replicas: []zipserv.LiveConfig{{MaxBatch: 1, PrefixCache: true, CompressedCache: true}}},
		},
		key: "mode",
		cols: []column{
			ttftP50Col, ttftP99Col, prefillCol, hitsCol, savedCol,
			{"compressed_kv_blocks", "%d", func(r *run) any { return r.st.CompressedKVBlocks }},
			{"compression_ratio", "%.4f", func(r *run) any { return r.st.KVCompressionRatio }},
			{"decompress_claims", "%d", func(r *run) any { return r.st.DecompressClaims }},
			goodputCol,
		},
		gate: "compression-on retains strictly more prefix hits with identical outputs",
		win: func(rs []*run, g *winGate) string {
			off, on := rs[0].st, rs[1].st
			g.require(on.PrefixHits > off.PrefixHits, "compress-on prefix hits %d <= compress-off %d", on.PrefixHits, off.PrefixHits)
			g.require(on.PrefixTokensSaved >= off.PrefixTokensSaved,
				"compress-on tokens saved %d < compress-off %d", on.PrefixTokensSaved, off.PrefixTokensSaved)
			return fmt.Sprintf("compress-on prefix hits: %d vs %d, prefill tokens saved: %d (decompressed %d frozen blocks)",
				on.PrefixHits, off.PrefixHits, off.PrefillTokens-on.PrefillTokens, on.DecompressClaims)
		},
	},
	{
		// Bursts of short decoders sharing a prompt prefix with two long
		// unique prompts riding every burst, the serve package's enforced
		// comparison. The regime switch (deep decode batch during a
		// burst, idle drain between) is where a static chunk budget must
		// pick one regime to lose; the adaptive controllers re-derive the
		// budget and the prefix-cache pool every iteration.
		name:  "adaptive",
		about: "replay a mixed long-prompt + shared-prefix workload under each static chunk budget and the adaptive controllers, comparing decode TPOT",
		reads: []string{"requests", "prompt", "target-step-time"},
		build: func(p *params) (*workload, error) {
			w := &workload{reqs: bursts(p, 2, 8, 0)}
			w.header = fmt.Sprintf("adaptive mix: %d requests in %d bursts, shared %d-token prefix + every 4th prompt %d tokens, %.0fms step target",
				len(w.reqs), len(w.reqs)/8, 4*p.prompt, 16*p.prompt, p.target*1e3)
			return w, nil
		},
		fleets: []fleet{
			{label: "static-64", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 64, PrefixCache: true}}},
			{label: "static-256", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 256, PrefixCache: true}}},
			{label: "static-1024", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 1024, PrefixCache: true}}},
			{label: "adaptive", replicas: []zipserv.LiveConfig{{AdaptiveChunking: true, PrefixCache: true, AdaptivePrefixCache: true}}},
		},
		key: "mode",
		cols: []column{
			decodeP50Col, decodeP99Col, maxGapCol, goodputCol,
			{"chunk_budget_tokens", "%d", func(r *run) any { return r.st.ChunkBudget }},
			{"cache_pool_target_blocks", "%d", func(r *run) any { return r.st.CachePoolTarget }},
		},
		gate: "adaptive decode TPOT p99 <= every static budget's",
		win: func(rs []*run, g *winGate) string {
			adaptive, static := decodeP99(rs[len(rs)-1]), decodeP99(fastest(rs[:len(rs)-1], decodeP99))
			g.require(adaptive <= static, "adaptive decode TPOT p99 %.6fs > best static %.6fs", adaptive, static)
			return fmt.Sprintf("adaptive TPOT p99 vs best static: %.4fs vs %.4fs (%.2fx)", adaptive, static, static/adaptive)
		},
	},
	{
		// Per burst of 8, five chat decoders sharing a prompt prefix
		// start together and three long prompts land 0.15 s apart while
		// they decode. Co-located replicas must absorb each long prefill
		// into their decode cadence; a prefill replica absorbs them alone
		// and hands each sequence, KV compressed through the TCA-TBE
		// codec, to a decode replica that never runs a long prefill.
		name:  "disagg",
		about: "replay a mixed long-prompt + chat workload through a disaggregated prefill/decode fleet and co-located two-replica fleets, comparing decode TPOT",
		reads: []string{"requests", "prompt"},
		build: func(p *params) (*workload, error) {
			w := &workload{reqs: bursts(p, 3, 4, 0.15)}
			w.header = fmt.Sprintf("disagg mix: %d requests in %d bursts, 5 chat decoders (shared %d-token prefix) + 3 staggered long %d-token prompts per burst, 2 replicas per fleet",
				len(w.reqs), len(w.reqs)/8, 4*p.prompt, 16*p.prompt)
			return w, nil
		},
		fleets: []fleet{
			{label: "colo-mono", replicas: same(2, zipserv.LiveConfig{PrefixCache: true})},
			{label: "colo-chunk256", replicas: same(2, zipserv.LiveConfig{PrefixCache: true, PrefillChunkTokens: 256})},
			{label: "colo-chunk1024", replicas: same(2, zipserv.LiveConfig{PrefixCache: true, PrefillChunkTokens: 1024})},
			{label: "disagg-1p1d", router: pooled, replicas: []zipserv.LiveConfig{
				{PrefixCache: true, Pool: zipserv.LivePoolPrefill},
				{PrefixCache: true, Pool: zipserv.LivePoolDecode},
			}},
		},
		key: "fleet",
		cols: []column{
			decodeP50Col, decodeP99Col, maxGapCol, goodputCol, completedCol,
			{"handoffs", "%d", func(r *run) any { return r.st.Handoffs }},
			{"handoff_bytes", "%d", func(r *run) any { return r.st.HandoffBytes }},
			{"handoff_failures", "%d", func(r *run) any { return r.st.HandoffFailures }},
		},
		gate: "disaggregation beats every co-located config on decode TPOT p99 with identical completions",
		win: func(rs []*run, g *winGate) string {
			disagg, colo := rs[len(rs)-1], fastest(rs[:len(rs)-1], decodeP99)
			g.require(decodeP99(disagg) < decodeP99(colo),
				"disaggregated decode TPOT p99 %.6fs >= best co-located (%s) %.6fs", decodeP99(disagg), colo.label, decodeP99(colo))
			g.require(disagg.st.Completed >= colo.st.Completed,
				"disaggregation completed %d requests, co-located %d", disagg.st.Completed, colo.st.Completed)
			return fmt.Sprintf("disaggregated TPOT p99 vs best co-located (%s): %.4fs vs %.4fs (%.2fx)",
				colo.label, decodeP99(disagg), decodeP99(colo), decodeP99(colo)/decodeP99(disagg))
		},
	},
	{
		// Eight tenants hammer their own 4x-prompt system prompts: every
		// wave submits two requests per tenant in an order shuffled per
		// wave. Submitted in tenant order, least-loaded round-robin would
		// pin tenants to replicas by accident and look affinity-aware;
		// the shuffle scatters them as interleaved arrivals do. Each wave
		// drains before the next, so every replica's published
		// prefix-trie digest is current when the router scores the next.
		name:  "affinity",
		about: "drive a multi-tenant shared-prefix burst workload through a 4-replica fleet with least-loaded and prefix-affinity routing and compare fleet prefix hits and TTFT",
		reads: []string{"requests", "prompt"},
		build: func(p *params) (*workload, error) {
			const tenants, perTenant = 8, 2
			perWave := tenants * perTenant
			waves := max((p.requests+perWave-1)/perWave, 2) // the first wave only seeds the digests
			prefixLen, suffixLen := 4*p.prompt, max(p.prompt/2, 1)
			w := &workload{wave: perWave, header: fmt.Sprintf("affinity burst: %d tenants x %d waves x %d requests, %d-token shared prefix + %d suffix, 4 replicas",
				tenants, waves, perTenant, prefixLen, suffixLen)}
			prefixes := make([][]int, tenants)
			for t := range prefixes {
				prefixes[t] = tokens(prefixLen, (1000+t)*100003)
			}
			for k := 0; k < waves; k++ {
				wave := make([]zipserv.LiveRequest, perWave)
				for i := range wave {
					wave[i] = zipserv.LiveRequest{
						Prompt:    withSuffix(prefixes[i/perTenant], suffixLen, (7000+k*perWave+i)*100003),
						OutputLen: 32, Arrival: zipserv.LiveArrivalNow,
					}
				}
				// Fisher-Yates driven by an LCG seeded on the wave index.
				x := uint64(k)*2654435761 + 12345
				for i := perWave - 1; i > 0; i-- {
					x = x*6364136223846793005 + 1442695040888963407
					j := int((x >> 33) % uint64(i+1))
					wave[i], wave[j] = wave[j], wave[i]
				}
				w.reqs = append(w.reqs, wave...)
			}
			return w, nil
		},
		fleets: []fleet{
			{label: "least-loaded", replicas: same(4, zipserv.LiveConfig{PrefixCache: true})},
			{label: "affinity", router: affinity, replicas: same(4, zipserv.LiveConfig{PrefixCache: true})},
		},
		key: "routing",
		cols: []column{
			ttftP50Col, ttftP99Col, hitsCol, savedCol,
			{"prefix_affinity_hits", "%d", func(r *run) any { return r.st.PrefixAffinityHits }},
			{"affinity_spills", "%d", func(r *run) any { return r.st.AffinitySpills }},
			completedCol, goodputCol,
		},
		gate: "affinity routing gets strictly more fleet prefix hits and a TTFT p50 no worse than least-loaded",
		win: func(rs []*run, g *winGate) string {
			base, aff := rs[0], rs[1]
			baseP50, affP50 := base.pct(0.50, ttftOf, nil), aff.pct(0.50, ttftOf, nil)
			g.require(aff.st.PrefixHits > base.st.PrefixHits,
				"affinity fleet prefix hits %d <= least-loaded %d", aff.st.PrefixHits, base.st.PrefixHits)
			g.require(affP50 <= baseP50, "affinity TTFT p50 %.6fs > least-loaded %.6fs", affP50, baseP50)
			g.require(aff.st.Completed == base.st.Completed,
				"affinity completed %d requests, least-loaded %d", aff.st.Completed, base.st.Completed)
			verdict := fmt.Sprintf("affinity fleet prefix hits: %d vs %d, TTFT p50: %.4fs vs %.4fs",
				aff.st.PrefixHits, base.st.PrefixHits, affP50, baseP50)
			if affP50 > 0 {
				verdict += fmt.Sprintf(" (%.2fx)", baseP50/affP50)
			}
			return verdict
		},
	},
	{
		// One deterministic workload through a 3-replica fleet under
		// chaosPlan, with health-aware routing (breakers, retries and
		// resurrection) on and off. Every request is submitted at once
		// and the fleet replays on one goroutine in virtual time, so the
		// crash deals the same victims on each replay and their
		// resurrections land on the same survivors.
		name:  "chaos",
		about: "replay one deterministic workload through a 3-replica fleet under a scripted fault plan with health-aware routing off and on, comparing losses",
		reads: []string{"requests"},
		build: func(p *params) (*workload, error) {
			plan, err := zipserv.ParseLiveFaultPlan(chaosPlan)
			if err != nil {
				return nil, err
			}
			w := &workload{faults: plan, header: fmt.Sprintf("chaos drill: %d requests, 3 replicas, plan %q",
				p.requests, strings.ReplaceAll(strings.TrimSpace(chaosPlan), "\n", "; "))}
			for i := 0; i < p.requests; i++ {
				w.reqs = append(w.reqs, zipserv.LiveRequest{PromptLen: 256 + (i%4)*64, OutputLen: 32 + (i%3)*16})
			}
			return w, nil
		},
		fleets: []fleet{
			{label: "resilient", router: health, replicas: make([]zipserv.LiveConfig, 3)},
			{label: "fragile", replicas: make([]zipserv.LiveConfig, 3)},
		},
		key: "routing",
		cols: []column{
			completedCol,
			{"failed", "%d", func(r *run) any { return r.st.Failed }},
			{"lost_requests", "%d", func(r *run) any { return r.st.LostRequests }},
			{"resurrections", "%d", func(r *run) any { return r.st.Resurrections }},
			{"ejections", "%d", func(r *run) any { return r.st.Ejections }},
			{"retry_exhausted", "%d", func(r *run) any { return r.st.RetryExhausted }},
			{"replay_identical", "%t", func(r *run) any { return r.replayIdentical() }},
		},
		gate: "resilience-on completes everything with >=1 resurrection, resilience-off loses requests, and replays are byte-identical",
		win: func(rs []*run, g *winGate) string {
			on, off, n := rs[0].st, rs[1].st, int64(len(rs[0].reqs))
			g.require(on.Completed == n && on.Failed == 0,
				"resilient fleet completed %d/%d with %d failures; want everything, zero client-visible failures", on.Completed, n, on.Failed)
			g.require(on.Resurrections >= 1,
				"resilient fleet resurrected %d requests; the crash must actually bite", on.Resurrections)
			g.require(off.LostRequests >= 1 && off.Failed >= 1,
				"fragile fleet lost %d / failed %d; the plan must cost an unprotected fleet requests", off.LostRequests, off.Failed)
			for _, r := range rs {
				g.require(r.replayIdentical(),
					"two %s replays diverged:\n--- first ---\n%s--- second ---\n%s", r.label, r.outcomes, r.replayed)
			}
			return fmt.Sprintf("resilient fleet: %d/%d completed, %d resurrected; fragile fleet lost %d; replays identical: %t",
				on.Completed, n, on.Resurrections, off.LostRequests, rs[0].replayIdentical() && rs[1].replayIdentical())
		},
	},
}

// perPolicy is one single-replica fleet per built-in admission policy.
func perPolicy() []fleet {
	var fs []fleet
	for _, name := range zipserv.LivePolicyNames() {
		policy, _ := zipserv.LivePolicyByName(name) // a listed name always resolves
		fs = append(fs, fleet{label: name, replicas: []zipserv.LiveConfig{{Policy: policy}}})
	}
	return fs
}

// interactive selects the interactive half of the policies trace.
func interactive(_ int, q zipserv.LiveRequest) bool { return q.Class != zipserv.LiveClassBatch }

// chunkDecoders selects the chunking trace's decoders: every request
// but each fifth, long one.
func chunkDecoders(i int, _ zipserv.LiveRequest) bool { return i%5 != 4 }

// tokens returns n distinct token ids starting at base.
func tokens(n, base int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = base + i*131
	}
	return out
}

// withSuffix returns a fresh prompt: prefix followed by n tokens from
// base.
func withSuffix(prefix []int, n, base int) []int {
	return append(append([]int(nil), prefix...), tokens(n, base)...)
}

// bursts builds the chat-plus-long-prompt mix -compare-adaptive and
// -compare-disagg replay, rounded up to whole bursts of 8 every 0.7 s.
// A burst opens with 8-long chat decoders that share a 4x-prompt prefix
// plus a unique prompt/4 suffix and emit 32 tokens; its long unique
// 16x-prompt prompts emit longOut tokens, the k-th arriving k*stagger
// into the burst.
func bursts(p *params, long, longOut int, stagger float64) []zipserv.LiveRequest {
	prefix := tokens(4*p.prompt, 100003)
	var reqs []zipserv.LiveRequest
	for b := 0; b < (p.requests+7)/8; b++ {
		at := float64(b) * 0.7
		for j := 0; j < 8; j++ {
			id := len(reqs) + 1
			if j < 8-long {
				reqs = append(reqs, zipserv.LiveRequest{Prompt: withSuffix(prefix, p.prompt/4, (100+id)*100003), OutputLen: 32, Arrival: at})
				continue
			}
			reqs = append(reqs, zipserv.LiveRequest{
				Prompt: tokens(16*p.prompt, (5000+id)*100003), OutputLen: longOut, Arrival: at + stagger*float64(j-(8-long)+1),
			})
		}
	}
	return reqs
}
