package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"zipserv/internal/bf16"
	"zipserv/internal/engine"
	"zipserv/internal/kvcache"
)

// engineRun is what the engine rung hands to the cost-model rung.
type engineRun struct {
	eng           *engine.Engine
	decodeShapes  [][2]int // (batch, summed context) per DecodeStep
	prefillShapes [][]engine.PrefillChunk
	mismatch      error // the two replays disagreed
}

// runEngineRung replays the workload's fixed trace, with explicit
// virtual arrivals, through one replica's engine.Stepper twice. The
// per-request virtual results must be byte-identical; their digest is
// printed so two commits can be compared.
func runEngineRung(w *workload, seed int64, tr *tracer, m metrics) (engineRun, error) {
	g := newGenerator(w, seed, "replay")
	reqs := make([]engine.Request, w.replayN)
	t := 0.0
	for i := range reqs {
		r := g.next(w)
		t += g.rng.ExpFloat64() / w.virtRate
		reqs[i] = engine.Request{ID: i + 1, ArrivalSeconds: t,
			PromptLen: r.PromptLen, OutputLen: r.OutputLen, Prompt: r.Prompt}
	}
	first, err := replay(w, reqs, tr)
	if err != nil {
		return engineRun{}, err
	}
	second, err := replay(w, reqs, nil)
	if err != nil {
		return engineRun{}, err
	}
	out := engineRun{eng: first.eng, decodeShapes: first.decodeShapes, prefillShapes: first.prefillShapes}
	verdict := "identical"
	if first.digest != second.digest {
		verdict = "DIFFERENT"
		out.mismatch = fmt.Errorf("engine replays of one trace differ: %s vs %s", first.digest, second.digest)
	}
	fmt.Printf("engine replay: stream hash %s, %d requests at %g/virtual s, virtual results digest %s (two replays %s)\n",
		g.hash(), len(reqs), w.virtRate, first.digest, verdict)

	n := float64(len(reqs))
	var ttft, tpot []float64
	for _, d := range first.done {
		ttft = append(ttft, d.TTFT)
		tpot = append(tpot, d.TPOT)
	}
	m.set("engine.prefill_us_per_call", "us", mean(tr.seconds("engine.prefill"))*1e6)
	m.set("engine.decode_us_per_call", "us", mean(tr.seconds("engine.decode"))*1e6)
	m.set("engine.decode_steps_per_req", "count", float64(len(first.decodeShapes))/n)
	m.set("engine.prefill_iters_per_req", "count", float64(len(first.prefillShapes))/n)
	m.set("engine.virt_ttft_p50_s", "s", percentile(ttft, 0.50))
	m.set("engine.virt_ttft_p99_s", "s", percentile(ttft, 0.99))
	m.set("engine.virt_tpot_p50_s", "s", percentile(tpot, 0.50))
	m.set("engine.virt_goodput_rps", "1/s", n/first.makespan)
	m.set("engine.decode_batch_mean", "count", first.decodeBatchMean)
	return out, nil
}

type replayResult struct {
	eng      *engine.Engine
	done     []engine.RequestMetrics
	digest   string
	makespan float64
	// decodeBatchMean is output tokens per decode step, defined as the
	// serve server's decode_batch_mean.
	decodeBatchMean float64
	decodeShapes    [][2]int
	prefillShapes   [][]engine.PrefillChunk
}

// seqMirror follows one sequence from outside the stepper, so the
// shapes of its calls can be replayed through the cost model. replay
// checks every shape against the virtual time the stepper charged for
// it, so a mirror that drifts from the stepper fails the run.
type seqMirror struct {
	prompt, prefilled, ctx, remaining int
}

// replay drives a fresh stepper over reqs the way a replica loop does:
// admit due arrivals in order, one prefill iteration, one decode step.
func replay(w *workload, reqs []engine.Request, tr *tracer) (replayResult, error) {
	sp, eng, err := w.deploy.stepper()
	if err != nil {
		return replayResult{}, err
	}
	out := replayResult{eng: eng}
	var queue []*seqMirror // admitted and prefilling, in admission order
	active := map[int]*seqMirror{}
	byID := map[int]*seqMirror{}
	var thawed int64 // decompress claims already priced into a prefill
	next := 0
	for len(out.done) < len(reqs) {
		iter := tr.newID()
		if sp.InFlight() == 0 && next < len(reqs) && reqs[next].ArrivalSeconds > sp.Clock() {
			sp.AdvanceTo(reqs[next].ArrivalSeconds)
		}
		for next < len(reqs) && reqs[next].ArrivalSeconds <= sp.Clock() {
			r := reqs[next]
			if !sp.CanAdmitRequest(r) {
				break
			}
			if err := sp.Admit(r); err != nil {
				return out, err
			}
			q := &seqMirror{prompt: r.PromptLen, prefilled: sp.CachedTokensOf(r.ID), remaining: r.OutputLen}
			queue = append(queue, q)
			byID[r.ID] = q
			next++
		}
		if sp.InFlight() == 0 {
			return out, fmt.Errorf("engine replay stalled at request %d", next)
		}

		if len(queue) > 0 {
			tokens := sp.PrefillTokens()
			t0 := time.Now()
			fin, took := sp.Prefill()
			tr.record(iter, "engine.prefill", "", t0, time.Now())
			var chunks []engine.PrefillChunk
			chunks, queue = carve(queue, int(sp.PrefillTokens()-tokens))
			want := eng.ChunkedPrefillTime(chunks)
			if n := int(sp.DecompressClaims() - thawed); n > 0 {
				want += eng.KVDecompressTime(n) // blocks thawed at admission
			}
			thawed = sp.DecompressClaims()
			if took != want {
				return out, fmt.Errorf("engine replay mirror: prefill took %g virtual s, its recorded chunks price at %g",
					took, want)
			}
			out.prefillShapes = append(out.prefillShapes, chunks)
			for _, f := range fin {
				q := byID[f.ID]
				q.ctx, q.remaining = q.prompt, q.remaining-1
				active[f.ID] = q
			}
		}
		if sp.ActiveCount() == 0 {
			continue // mid-prefill sequences remain
		}
		if len(active) != sp.ActiveCount() {
			return out, fmt.Errorf("engine replay mirror lost track: %d active, stepper has %d",
				len(active), sp.ActiveCount())
		}
		sumCtx := 0
		for _, q := range active {
			sumCtx += q.ctx
		}
		out.decodeShapes = append(out.decodeShapes, [2]int{len(active), sumCtx})
		t0 := time.Now()
		fin, took, err := sp.DecodeStep()
		tr.record(iter, "engine.decode", "", t0, time.Now())
		if err != nil {
			return out, err
		}
		if want := eng.BatchDecodeStepTime(len(active), sumCtx); took != want {
			return out, fmt.Errorf("engine replay mirror: decode step took %g virtual s, batch %d with context %d prices at %g",
				took, len(active), sumCtx, want)
		}
		for id, q := range active {
			if q.remaining > 0 {
				q.ctx++
				q.remaining--
			}
			if q.remaining == 0 {
				delete(active, id)
			}
		}
		out.done = append(out.done, fin...)
	}
	out.makespan = sp.Clock()
	out.decodeBatchMean = frac(float64(sp.OutputTokens()), float64(sp.DecodeSteps()))
	if err := sp.Close(); err != nil {
		return out, err
	}
	sort.Slice(out.done, func(i, j int) bool { return out.done[i].ID < out.done[j].ID })
	h := sha256.New()
	var buf [8]byte
	for _, d := range out.done {
		for _, v := range []float64{float64(d.ID), d.Arrival, d.Admitted, d.FirstToken, d.Finished,
			d.TTFT, d.TPOT, d.Latency, float64(d.CachedTokens)} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return out, nil
}

// carve reproduces the stepper's chunking from outside: an iteration
// that prefilled n tokens took them greedily from the admitted queue in
// order. It returns the chunks and the queue without the sequences
// whose prompt completed.
func carve(queue []*seqMirror, n int) ([]engine.PrefillChunk, []*seqMirror) {
	var chunks []engine.PrefillChunk
	keep := queue[:0]
	for _, q := range queue {
		c := min(q.prompt-q.prefilled, n)
		if c > 0 {
			chunks = append(chunks, engine.PrefillChunk{Start: q.prefilled, Tokens: c, Final: q.prefilled+c == q.prompt})
			q.prefilled += c
			n -= c
		}
		if q.prefilled < q.prompt {
			keep = append(keep, q)
		}
	}
	return chunks, keep
}

// costSink keeps the cost-model results alive so the calls are not
// optimised away.
var costSink float64

// runGPURung prices the step shapes the engine rung recorded through
// the cost model, for budget per call kind.
func runGPURung(e engineRun, budget time.Duration, m metrics) error {
	perCall := func(n int, call func(i int) float64) float64 {
		if n == 0 {
			return 0
		}
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < budget {
			for i := 0; i < n; i++ {
				costSink += call(i)
			}
			calls += n
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	m.set("gpu.decode_cost_ns_per_call", "ns", perCall(len(e.decodeShapes), func(i int) float64 {
		return e.eng.BatchDecodeStepTime(e.decodeShapes[i][0], e.decodeShapes[i][1])
	}))
	m.set("gpu.prefill_cost_ns_per_call", "ns", perCall(len(e.prefillShapes), func(i int) float64 {
		return e.eng.ChunkedPrefillTime(e.prefillShapes[i])
	}))
	if math.IsNaN(costSink) {
		return fmt.Errorf("cost model returned NaN")
	}
	return nil
}

// runKVRung drives kvcache.Manager directly with one request's
// lifecycle at a time, as the deployment's replicas do: claim the cached
// prefix (thawing frozen blocks), allocate the rest, commit the prompt,
// grow by the output, free (freezing cold blocks). Disaggregated
// deployments instead export each sequence at its first token from one
// manager and import it into another. It returns how many blocks the
// managers decompressed (thaws and handoff imports), each of which was
// compressed once before.
func runKVRung(w *workload, reqs []request, budget time.Duration, tr *tracer, m metrics) (int, error) {
	eng, err := newEngine()
	if err != nil {
		return 0, err
	}
	cfg := kvcache.Config{BlockTokens: kvcache.DefaultBlockTokens, TotalBlocks: eng.Plan().Blocks}
	mgr, err := kvcache.NewManager(cfg)
	if err != nil {
		return 0, err
	}
	dst := mgr
	if w.deploy.pools != nil {
		if dst, err = kvcache.NewManager(cfg); err != nil {
			return 0, err
		}
	}
	if w.deploy.prefixCacheBlocks > 0 {
		if err := mgr.EnablePrefixCache(w.deploy.prefixCacheBlocks); err != nil {
			return 0, err
		}
		if w.deploy.compressed {
			if err := mgr.EnableCompressedCache(); err != nil {
				return 0, err
			}
		}
	}
	timed := func(span int64, name string, f func() error) error {
		t0 := time.Now()
		err := f()
		tr.record(span, name, "", t0, time.Now())
		return err
	}

	var hits, saved, promptTokens, expanded int
	var handoffBytes int64
	n := 0
	deadline := time.Now().Add(budget)
	for ; n < len(reqs) && time.Now().Before(deadline); n++ {
		r, id, span := reqs[n], n+1, tr.newID()
		promptTokens += r.PromptLen
		if w.deploy.pools != nil {
			var exp *kvcache.KVExport
			var st kvcache.ImportStats
			err := mgr.Allocate(id, r.PromptLen+1) // prompt plus the first token
			if err == nil {
				err = timed(span, "kvcache.export", func() (e error) {
					exp, e = mgr.ExportKV(id, kvcache.HashedPrompt{})
					return e
				})
			}
			if err == nil {
				err = timed(span, "kvcache.free", func() error { return mgr.Free(id) })
			}
			if err == nil {
				err = timed(span, "kvcache.import", func() (e error) {
					st, e = dst.ImportKV(exp)
					return e
				})
			}
			if err == nil {
				err = dst.Extend(id, r.OutputLen-1)
			}
			if err == nil {
				err = timed(span, "kvcache.free", func() error { return dst.Free(id) })
			}
			if err != nil {
				return 0, fmt.Errorf("kvcache handoff of request %d: %w", id, err)
			}
			expanded += st.ExpandedBlocks
			handoffBytes += exp.CompressedBytes()
			continue
		}
		claimed := 0
		var hp kvcache.HashedPrompt
		if mgr.PrefixCacheEnabled() && len(r.Prompt) > 0 {
			hp = mgr.HashPrompt(r.Prompt)
			if matched, _ := mgr.LookupCostHashed(hp); matched > 0 {
				err := timed(span, "kvcache.claim", func() (e error) {
					claimed, e = mgr.ClaimPrefixHashed(id, hp)
					return e
				})
				if err != nil {
					return 0, err
				}
			}
		}
		if claimed > 0 {
			hits++
			saved += claimed
			err = mgr.Extend(id, r.PromptLen-claimed)
		} else {
			err = mgr.Allocate(id, r.PromptLen)
		}
		if err == nil && hp.Len() > 0 {
			err = mgr.CommitPrefixHashed(id, hp, r.PromptLen)
			if err == nil {
				_ = timed(span, "kvcache.summary", func() error { mgr.PrefixSummary(); return nil })
			}
		}
		if err == nil {
			err = mgr.Extend(id, r.OutputLen)
		}
		if err == nil {
			err = timed(span, "kvcache.free", func() error { return mgr.Free(id) })
		}
		if err != nil {
			return 0, fmt.Errorf("kvcache request %d: %w", id, err)
		}
	}
	if err := mgr.CheckInvariants(); err != nil {
		return 0, err
	}

	thaws := int(mgr.DecompressClaims())
	reqN := float64(n)
	us := func(name string) float64 { return percentile(tr.seconds(name), 0.5) * 1e6 }
	m.set("kvcache.requests", "count", reqN)
	m.set("kvcache.claim_us_p50", "us", us("kvcache.claim"))
	m.set("kvcache.free_us_p50", "us", us("kvcache.free"))
	m.set("kvcache.summary_us_p50", "us", us("kvcache.summary"))
	m.set("kvcache.prefix_hit_frac", "frac", frac(float64(hits), reqN))
	m.set("kvcache.tokens_saved_frac", "frac", frac(float64(saved), float64(promptTokens)))
	m.set("kvcache.thaws_per_req", "count", frac(float64(thaws), reqN))
	m.set("kvcache.compressed_blocks", "count", float64(mgr.CompressedBlocks()))
	m.set("kvcache.export_us_p50", "us", us("kvcache.export"))
	m.set("kvcache.import_us_p50", "us", us("kvcache.import"))
	m.set("kvcache.handoff_kb_per_req", "KiB", frac(float64(handoffBytes)/1024, reqN))
	return thaws + expanded, nil
}

// runCoreRung compresses and decompresses as many KV blocks as the
// kvcache rung decompressed (zero on a workload that bypasses the
// codec), one 16×256 BF16 block — a single 64×64 tile — at a
// time, and checks every round trip bit for bit.
func runCoreRung(seed int64, blocks int, budget time.Duration, tr *tracer, m metrics) error {
	store := kvcache.NewCompressedStore()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var put, get time.Duration
	n := 0
	deadline := time.Now().Add(budget)
	for ; n < blocks && time.Now().Before(deadline); n++ {
		kv := synthBlock(fmt.Sprintf("core/%d/%d", seed, n))
		t0 := time.Now()
		err := store.Put(n, kv)
		t1 := time.Now()
		if err != nil {
			return err
		}
		back, err := store.Get(n)
		t2 := time.Now()
		if err != nil {
			return err
		}
		span := tr.newID()
		tr.record(span, "core.compress", "", t0, t1)
		tr.record(span, "core.decompress", "", t1, t2)
		put += t1.Sub(t0)
		get += t2.Sub(t1)
		if !back.Equal(kv) {
			return fmt.Errorf("codec round trip of block %d is not bit-exact", n)
		}
	}
	runtime.ReadMemStats(&after)
	k := float64(n)
	m.set("core.blocks", "count", k)
	m.set("core.compress_us_per_block", "us", frac(put.Seconds()*1e6, k))
	m.set("core.decompress_us_per_block", "us", frac(get.Seconds()*1e6, k))
	m.set("core.ratio", "x", store.Ratio())
	m.set("core.alloc_kb_per_block", "KiB", frac(float64(after.TotalAlloc-before.TotalAlloc)/1024, k))
	return nil
}

// synthBlock builds a KV block the way the cache synthesizes its
// content: a key-seeded xorshift stream in a narrow value band, whose
// clustered exponents are what TCA-TBE exploits.
func synthBlock(key string) *bf16.Matrix {
	const rows, cols = kvcache.DefaultBlockTokens, 256
	data := make([]bf16.BF16, rows*cols)
	var x uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= 1099511628211
	}
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = bf16.FromFloat32(float32(int64(x>>40)-(1<<23)) / float32(1<<27))
	}
	return &bf16.Matrix{Rows: rows, Cols: cols, Data: data}
}
