package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"zipserv/internal/httpapi"
	"zipserv/internal/serve"
)

// Shares of a traced run's measured time given to each rung. The
// engine rung replays a fixed-length trace instead (its virtual results
// are digested, so its length cannot depend on wall time).
const (
	rungWarm  = 0.04 // HTTP warm-up, fills the caches
	rungHTTP  = 0.08 // each of the untraced and traced HTTP closed loops
	rungOpen  = 0.08 // HTTP open loop, for generator lateness
	rungProbe = 0.08 // sequential HTTP-versus-serve probe
	rungServe = 0.08 // serve-backend closed loop
	rungKV    = 0.10 // kvcache.Manager
	rungCore  = 0.08 // CompressedStore / core codec
	rungGPU   = 0.02 // each cost-model call kind
)

func share(dur time.Duration, f float64) time.Duration { return time.Duration(f * float64(dur)) }

// runLadder sends the workload's request streams through each layer's
// public entry points in turn: HTTP (httpapi over loopback) → serve
// backend → engine.Stepper → the engine cost model → kvcache.Manager →
// CompressedStore/core. Each rung reports its layer's metrics; the
// difference between the HTTP and serve rungs is the HTTP layer's own
// time.
func runLadder(w *workload, seed int64, dur time.Duration, spansPath string) (result, error) {
	res := result{Metrics: metrics{}}
	m := res.Metrics
	tr := newTracer()
	var checks []error

	// HTTP and serve rungs share one in-process deployment, so they see
	// the same cache state.
	b, replicas, err := w.deploy.backend()
	if err != nil {
		return res, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = b.Stop(ctx)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: httpapi.NewLiveMux(b)}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	conns := runtime.NumCPU()
	plain := httpSender(newHTTPClient(conns), "http://"+ln.Addr().String())
	traced := func(r request) error {
		t0 := time.Now()
		err := plain(r)
		tr.record(tr.newID(), "http.request", "", t0, time.Now())
		return err
	}
	sv := &serveRung{b: b, tr: tr}

	pool := func(stream string, f float64) []request {
		reqs, g := drawPool(w, seed, stream, poolSize(w, share(dur, f)))
		fmt.Printf("stream %s hash %s\n", stream, g.hash())
		return reqs
	}
	var all phase
	run := func(name string, p phase) phase {
		fmt.Printf("rung %-12s sent %d succeeded %d failed %d in %.2fs\n",
			name, p.sent, p.ok, p.failed, p.elapsed.Seconds())
		if p.firstErr != nil {
			fmt.Printf("rung %-12s first failure: %v\n", name, p.firstErr)
		}
		all.add(p)
		return p
	}

	// HTTP rung: untraced and traced closed loops give the tracing
	// overhead; an open loop gives the generator's lateness.
	run("http-warm", closedLoop(pool("ladder-warm", rungWarm), 0, conns, share(dur, rungWarm), plain))
	untraced := run("http", closedLoop(pool("ladder-http", rungHTTP), 0, conns, share(dur, rungHTTP), plain))
	tracedRun := run("http-traced", closedLoop(pool("ladder-http-traced", rungHTTP), 0, conns, share(dur, rungHTTP), traced))
	openN := int(w.openRate * share(dur, rungOpen).Seconds())
	openReqs, g := drawPool(w, seed, "ladder-open", openN)
	open := run("http-open", openLoop(openReqs, pacedSchedule(g, openN, w.openRate), conns, traced))
	fmt.Printf("stream ladder-open hash %s\n", g.hash())

	// HTTP versus serve: one caller alternates between the two entry
	// points over requests drawn from the same distribution, so both see
	// the same cache state; the difference of the means is HTTP's own
	// time per request.
	probe := pool("ladder-probe", rungProbe)
	var viaHTTP, viaServe phase
	probeStart := time.Now()
	for i := 0; time.Since(probeStart) < share(dur, rungProbe); i++ {
		r := probe[i%len(probe)]
		t0 := time.Now()
		if i%2 == 0 {
			viaHTTP.record(traced(r), time.Since(t0).Seconds())
		} else {
			viaServe.record(sv.send(r), time.Since(t0).Seconds())
		}
	}
	viaHTTP.elapsed = time.Since(probeStart)
	viaServe.elapsed = viaHTTP.elapsed
	run("probe-http", viaHTTP)
	run("probe-serve", viaServe)

	// serve rung: the same closed loop straight into Backend.Submit.
	before, replicasBefore := b.Stats(), replicaStats(replicas)
	sv.waits = nil
	serveRun := run("serve", closedLoop(pool("ladder-serve", rungServe), 0, conns, share(dur, rungServe), sv.send))
	after := b.Stats()
	liveRate := liveArrivalRate(w.deploy, replicasBefore, replicaStats(replicas))
	submits := float64(after.Submitted - before.Submitted)
	completed := float64(after.Completed - before.Completed)

	m.set("httpapi.overhead_us_per_req", "us", (mean(finite(viaHTTP.lat))-mean(finite(viaServe.lat)))*1e6)
	m.set("httpapi.req_body_bytes", "count", meanBodyBytes(probe))
	m.set("loadgen.late_ms_p99", "ms", percentile(open.late, 0.99)*1e3)
	m.set("loadgen.tracing_overhead_frac", "frac", 1-tracedRun.rate()/untraced.rate())
	submitUs := tr.seconds("serve.submit")
	m.set("router.submit_us_p50", "us", percentile(submitUs, 0.50)*1e6)
	m.set("router.submit_us_p99", "us", percentile(submitUs, 0.99)*1e6)
	m.set("router.submits", "count", submits)
	m.set("router.affinity_hit_frac", "frac", frac(float64(after.PrefixAffinityHits-before.PrefixAffinityHits), submits))
	m.set("router.spill_frac", "frac", frac(float64(after.AffinitySpills-before.AffinitySpills), submits))
	m.set("router.handoffs_per_req", "count", frac(float64(after.Handoffs-before.Handoffs), completed))
	m.set("router.handoff_failures", "count", float64(after.HandoffFailures-before.HandoffFailures))
	m.set("server.wall_us_per_req", "us", mean(finite(serveRun.lat))*1e6)
	m.set("server.peak_concurrency", "count", float64(after.PeakConcurrency))
	m.set("server.decode_batch_mean", "count",
		frac(float64(after.OutputTokens-before.OutputTokens), float64(after.DecodeSteps-before.DecodeSteps)))
	m.set("server.queue_wait_virt_s_p50", "s", median(sv.waits))
	m.set("server.virt_arrival_rps", "1/s", liveRate)

	// The backend's own accounting must match what its callers saw.
	if after.Completed != int64(all.ok) || after.Failed != 0 {
		checks = append(checks, fmt.Errorf("backend stats completed=%d failed=%d, callers saw %d successes",
			after.Completed, after.Failed, all.ok))
	}
	if err := w.expect(serverStats{Completed: after.Completed, DecompressClaims: after.DecompressClaims,
		Handoffs: after.Handoffs}); err != nil {
		checks = append(checks, err)
	}
	if all.checkFailures > 0 {
		checks = append(checks, fmt.Errorf("%d results failed their checks, first: %v", all.checkFailures, all.firstErr))
	}

	// engine rung, twice over the same fixed trace, then the cost model
	// on the step shapes it recorded.
	eng, err := runEngineRung(w, seed, tr, m)
	if err != nil {
		return res, err
	}
	if eng.mismatch != nil {
		checks = append(checks, eng.mismatch)
	}
	// The replay's traffic is fixed per workload; this line shows how
	// far the live serve rung's has moved from it.
	fmt.Printf("engine replay at %g requests/virtual s, decode batch mean %.3f; live serve rung saw %.3f and %.3f\n",
		w.virtRate, m["engine.decode_batch_mean"].Value, liveRate, m["server.decode_batch_mean"].Value)
	if err := runGPURung(eng, share(dur, rungGPU), m); err != nil {
		return res, err
	}

	// kvcache and codec rungs.
	codecBlocks, err := runKVRung(w, pool("ladder-kvcache", rungKV), share(dur, rungKV), tr, m)
	if err != nil {
		return res, err
	}
	if err := runCoreRung(seed, codecBlocks, share(dur, rungCore), tr, m); err != nil {
		checks = append(checks, err)
	}

	for _, c := range checks {
		fmt.Println("CHECK FAILED:", c)
	}
	res.Correct = len(checks) == 0
	res.Attempted = all.sent
	res.Failed = all.failed
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", spansPath)
	}
	return res, nil
}

// serveRung submits straight to the serve backend and waits for the
// result, timing Submit alone and the whole request.
type serveRung struct {
	b  serve.Backend
	tr *tracer

	mu    sync.Mutex
	waits []float64 // virtual queue wait per result, seconds
}

func (s *serveRung) send(r request) error {
	id := s.tr.newID()
	t0 := time.Now()
	tk, err := s.b.Submit(serve.Request{PromptLen: r.PromptLen, OutputLen: r.OutputLen,
		Prompt: r.Prompt, Arrival: serve.ArrivalNow})
	t1 := time.Now()
	s.tr.record(id, "serve.submit", "serve.request", t0, t1)
	if err != nil {
		return err
	}
	res := <-tk.Result()
	s.tr.record(id, "serve.request", "", t0, time.Now())
	if res.Err != nil {
		return res.Err
	}
	s.mu.Lock()
	s.waits = append(s.waits, res.QueueWait)
	s.mu.Unlock()
	return checkResponse(r, genResponse{PromptLen: res.PromptLen, OutputLen: res.OutputLen,
		CachedTokens: res.CachedTokens, TTFT: res.TTFT, Latency: res.Latency})
}

func replicaStats(replicas []*serve.Server) []serve.Stats {
	st := make([]serve.Stats, len(replicas))
	for i, r := range replicas {
		st[i] = r.Stats()
	}
	return st
}

// liveArrivalRate is the rate at which client requests arrived between
// two snapshots of the replicas' stats, per virtual second of replica
// clock summed over the fleet: the traffic the engine rung's one-stepper
// replay stands in for. Under disaggregation the prefill and decode
// clocks are summed, since the replay's one stepper does both jobs. A
// live replica's clock only runs while it has work, so this rate is set
// by how many callers overlap, not by wall time.
func liveArrivalRate(d deployment, before, after []serve.Stats) float64 {
	var n, span float64
	for i := range after {
		if d.pools == nil || d.pools[i] != serve.PoolDecode {
			n += float64(after[i].Submitted - before[i].Submitted)
		}
		span += after[i].SimSeconds - before[i].SimSeconds
	}
	return frac(n, span)
}

// finite drops the +Inf entries failed requests leave in a latency
// sample.
func finite(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsInf(x, 1) {
			out = append(out, x)
		}
	}
	return out
}

func meanBodyBytes(reqs []request) float64 {
	n := 0
	for _, r := range reqs {
		n += len(r.Body)
	}
	return frac(float64(n), float64(len(reqs)))
}
