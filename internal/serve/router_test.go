package serve

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"zipserv/internal/engine"
)

// newRouter builds a started router over n fresh single-engine servers
// and returns the router plus the underlying servers.
func newTestRouter(t *testing.T, n, queueDepth int) (*Router, []*Server) {
	t.Helper()
	servers := make([]*Server, n)
	backends := make([]Backend, n)
	for i := range servers {
		servers[i] = newServer(t, Config{Engine: testEngine(t, engine.BackendZipServ), QueueDepth: queueDepth})
		backends[i] = servers[i]
	}
	r, err := NewRouter(backends...)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	return r, servers
}

func TestRouterValidation(t *testing.T) {
	if _, err := NewRouter(); err == nil {
		t.Error("empty router accepted")
	}
	if _, err := NewRouter(nil); err == nil {
		t.Error("nil replica accepted")
	}
}

// TestRouterSpreadsLoad: a capacity-bound flood through a 2-replica
// router must land work on both replicas (least-loaded dispatch), and
// fleet counters must add up.
func TestRouterSpreadsLoad(t *testing.T) {
	r, _ := newTestRouter(t, 2, 64)
	const n = 40
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := r.Submit(Request{PromptLen: 512, OutputLen: 256})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
	}
	per := r.ReplicaStats()
	if len(per) != 2 {
		t.Fatalf("replica stats %d, want 2", len(per))
	}
	var completed int64
	for i, st := range per {
		if st.Completed == 0 {
			t.Errorf("replica %d completed nothing: dispatch is not spreading", i)
		}
		completed += st.Completed
	}
	agg := r.Stats()
	if agg.Completed != completed || agg.Completed != n {
		t.Errorf("aggregate completed %d, per-replica sum %d, want %d", agg.Completed, completed, n)
	}
	if agg.Submitted != n {
		t.Errorf("aggregate submitted %d, want %d", agg.Submitted, n)
	}
	if agg.TotalKVBlocks != per[0].TotalKVBlocks+per[1].TotalKVBlocks {
		t.Errorf("aggregate KV blocks %d not the fleet sum", agg.TotalKVBlocks)
	}
}

// waitStats polls until cond holds: a loop that holds its admission
// window publishes on its own goroutine.
func waitStats(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("stats condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRouterSplitsBurstWhileLoopsHold: a replica's loop takes a
// submission off its channel long before the iteration that serves it
// ends — here both loops sit in a two-second admission window — and
// the router must still see that load. Once a loop has taken each
// submission, the fleet's published load must count it, and a 2N
// burst must split N/N; ranked on the snapshot of the last iteration,
// every replica looks idle and the whole burst lands on the first.
func TestRouterSplitsBurstWhileLoopsHold(t *testing.T) {
	const n = 3
	backends := make([]Backend, 2)
	servers := make([]*Server, 2)
	for i := range servers {
		servers[i] = newServer(t, Config{QueueDepth: 2 * n, AdmissionWindow: 2 * time.Second})
		backends[i] = servers[i]
	}
	r, err := NewRouter(backends...)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	tickets := make([]*Ticket, 0, 2*n)
	for i := 0; i < 2*n; i++ {
		tk, err := r.Submit(Request{PromptLen: 64, OutputLen: 4})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		waitStats(t, func() bool { return len(servers[0].submitCh)+len(servers[1].submitCh) == 0 })
		waitStats(t, func() bool {
			load := 0
			for _, s := range servers {
				st := s.Stats()
				load += st.Queued + st.Active
			}
			return load == i+1
		})
	}
	for i, s := range servers {
		if got := s.Stats().Submitted; got != n {
			t.Errorf("replica %d took %d of the %d-request burst, want %d", i, got, 2*n, n)
		}
	}
	for i, tk := range tickets {
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
	}
}

// TestRouterFailover: stopping one replica must reroute traffic to the
// survivor without a single failed request, and stats must keep
// aggregating across the stopped replica.
func TestRouterFailover(t *testing.T) {
	r, servers := newTestRouter(t, 2, 64)

	// Warm both replicas.
	warm := make([]*Ticket, 8)
	for i := range warm {
		tk, err := r.Submit(Request{PromptLen: 128, OutputLen: 32})
		if err != nil {
			t.Fatal(err)
		}
		warm[i] = tk
	}
	for _, tk := range warm {
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	// Drain replica 0; the router must route around it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := servers[0].Stop(ctx); err != nil {
		t.Fatal(err)
	}
	before := servers[1].Stats().Completed
	const n = 12
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := r.Submit(Request{PromptLen: 128, OutputLen: 32})
		if err != nil {
			t.Fatalf("request %d after failover: %v", i, err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatalf("request %d failed after failover: %v", i, res.Err)
		}
	}
	if got := servers[1].Stats().Completed - before; got != n {
		t.Errorf("survivor completed %d of %d failover requests", got, n)
	}

	// With every replica stopped, Submit surfaces ErrStopped.
	if err := servers[1].Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(Request{PromptLen: 16, OutputLen: 8}); !errors.Is(err, ErrStopped) {
		t.Errorf("all-stopped submit err = %v, want ErrStopped", err)
	}
}

// TestRouterErrorPrecedence: a full queue (retryable) must win over a
// stopped replica, and an impossible request must surface ErrNeverFits.
func TestRouterErrorPrecedence(t *testing.T) {
	// Replica 0 stopped, replica 1 unstarted with a depth-1 queue.
	stopped := newServer(t, Config{Engine: testEngine(t, engine.BackendZipServ), QueueDepth: 1})
	stopped.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := stopped.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	full := newServer(t, Config{Engine: testEngine(t, engine.BackendZipServ), QueueDepth: 1})
	if _, err := full.Submit(Request{PromptLen: 16, OutputLen: 8}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(stopped, full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(Request{PromptLen: 16, OutputLen: 8}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull to win over ErrStopped", err)
	}
	if _, err := r.Submit(Request{PromptLen: 10, OutputLen: 100_000_000}); !errors.Is(err, ErrNeverFits) {
		t.Errorf("err = %v, want ErrNeverFits", err)
	}
	full.Start() // let the queued request drain so cleanup's Stop returns
}

// TestRouterGoodputScales is the PR's scaling acceptance benchmark: on
// the same capacity-bound trace, a 2-replica router must reach ≥ 1.5×
// the aggregate goodput of a single replica.
func TestRouterGoodputScales(t *testing.T) {
	trace := engine.SyntheticTrace(60, 500, 512, 2048, 7)
	if trace == nil {
		t.Fatal("nil trace")
	}
	reqs := make([]Request, len(trace))
	for i, r := range trace {
		reqs[i] = Request{PromptLen: r.PromptLen, OutputLen: r.OutputLen, Arrival: r.ArrivalSeconds}
	}

	run := func(b Backend) Stats {
		t.Helper()
		tickets := make([]*Ticket, len(reqs))
		for i, r := range reqs {
			tk, err := b.Submit(r)
			if err != nil {
				t.Fatal(err)
			}
			tickets[i] = tk
		}
		b.Start()
		for i, tk := range tickets {
			if res := awaitResult(t, tk); res.Err != nil {
				t.Fatalf("request %d failed: %v", i, res.Err)
			}
		}
		return b.Stats()
	}

	single := run(newServer(t, Config{Engine: testEngine(t, engine.BackendZipServ), QueueDepth: len(reqs)}))
	// The fleet starts only once run has submitted the whole burst, as
	// the single replica does: a running fleet would route against load
	// snapshots that race its replicas' own progress.
	backends := make([]Backend, 2)
	for i := range backends {
		backends[i] = newServer(t, Config{Engine: testEngine(t, engine.BackendZipServ), QueueDepth: len(reqs)})
	}
	router, err := NewRouter(backends...)
	if err != nil {
		t.Fatal(err)
	}
	fleet := run(router)

	t.Logf("goodput: 1 replica %.3f req/s, 2-replica router %.3f req/s (%.2fx)",
		single.Goodput, fleet.Goodput, fleet.Goodput/single.Goodput)
	if single.PeakConcurrency >= len(reqs) {
		t.Fatal("trace was not capacity-bound on one replica; scaling test is vacuous")
	}
	if fleet.Goodput < 1.5*single.Goodput {
		t.Errorf("2-replica goodput %.3f req/s < 1.5× single-replica %.3f req/s (ratio %.2f)",
			fleet.Goodput, single.Goodput, fleet.Goodput/single.Goodput)
	}
}

// statsStub is a Backend that serves a canned Stats snapshot — the
// aggregation fixtures for the adaptive-telemetry folding rules.
type statsStub struct{ st Stats }

func (s *statsStub) Start()                          {}
func (s *statsStub) Submit(Request) (*Ticket, error) { return nil, ErrStopped }
func (s *statsStub) Stats() Stats                    { return s.st }
func (s *statsStub) Stop(context.Context) error      { return nil }
func (s *statsStub) acceptHandoff(*handoff) error    { return ErrStopped }
func (s *statsStub) resubmit(*call) error            { return ErrStopped }

// TestRouterAggregatesAdaptiveStats: the fleet view must fold the
// adaptive-controller telemetry by its documented rules — budget
// spread as min-of-mins/max-of-maxes,
// headline budget / target / step-time / pressure as the worst
// replica, pool targets, drain rates and peak batches summed, and the
// hit-rate EWMA averaged over the replicas actually running the sizing
// controller.
func TestRouterAggregatesAdaptiveStats(t *testing.T) {
	a := Stats{
		AdaptiveChunking: true, ChunkBudget: 512, ChunkBudgetMin: 256, ChunkBudgetMax: 512,
		TargetStepTime: 0.03, StepTimeEWMA: 0.021,
		AdaptivePrefixCache: true, CachePoolTarget: 100, CacheHitRateEWMA: 0.8, CachePressureEWMA: 0.1,
		RecentDrainRPS: 2.5, PeakConcurrency: 7,
	}
	b := Stats{
		AdaptiveChunking: true, ChunkBudget: 64, ChunkBudgetMin: 64, ChunkBudgetMax: 2048,
		TargetStepTime: 0.025, StepTimeEWMA: 0.034,
		AdaptivePrefixCache: true, CachePoolTarget: 40, CacheHitRateEWMA: 0.2, CachePressureEWMA: 0.7,
		RecentDrainRPS: 1.5, PeakConcurrency: 3,
	}
	c := Stats{ // static replica: no adaptive controllers
		ChunkBudget: 128, ChunkBudgetMin: 128, ChunkBudgetMax: 128, CachePoolTarget: 16,
		CacheHitRateEWMA: 0.99, // must NOT enter the adaptive average
		RecentDrainRPS:   4, PeakConcurrency: 5,
	}
	r, err := NewRouter(&statsStub{a}, &statsStub{b}, &statsStub{c})
	if err != nil {
		t.Fatal(err)
	}
	agg := r.Stats()
	if !agg.AdaptiveChunking || !agg.AdaptivePrefixCache {
		t.Errorf("adaptive flags lost: %+v", agg)
	}
	if agg.ChunkBudgetMin != 64 || agg.ChunkBudgetMax != 2048 {
		t.Errorf("budget spread [%d, %d], want [64, 2048]", agg.ChunkBudgetMin, agg.ChunkBudgetMax)
	}
	if agg.ChunkBudget != 512 {
		t.Errorf("headline budget %d, want the largest current budget 512", agg.ChunkBudget)
	}
	if agg.TargetStepTime != 0.03 || agg.StepTimeEWMA != 0.034 {
		t.Errorf("target/step EWMA %v/%v, want 0.03/0.034", agg.TargetStepTime, agg.StepTimeEWMA)
	}
	if agg.CachePoolTarget != 156 {
		t.Errorf("pool target %d, want the 156-block fleet sum", agg.CachePoolTarget)
	}
	if want := (0.8 + 0.2) / 2; agg.CacheHitRateEWMA != want {
		t.Errorf("hit-rate EWMA %v, want %v (mean of the adaptive replicas only)", agg.CacheHitRateEWMA, want)
	}
	if agg.CachePressureEWMA != 0.7 {
		t.Errorf("pressure EWMA %v, want the worst replica's 0.7", agg.CachePressureEWMA)
	}
	// Both sum across replicas (docs/stats-reference.md): the fleet
	// drains at the replicas' combined rate, and their peak batches can
	// coincide.
	if agg.RecentDrainRPS != 8 {
		t.Errorf("recent drain rate %v, want the 8 req/s fleet sum", agg.RecentDrainRPS)
	}
	if agg.PeakConcurrency != 15 {
		t.Errorf("peak concurrency %d, want the 15-sequence fleet sum", agg.PeakConcurrency)
	}
}

// TestFlatHealthFleetStats pins how a health router folds a flat fleet
// of 4 replicas, and that it is the only shape: routers route servers,
// so NewRouter rejects a router replica. The census counts each replica
// once, the hit-rate EWMA is the mean over the adaptive replicas, and
// the compression ratio is weighted by compressed bytes, which makes it
// the fleet's raw/compressed byte ratio.
func TestFlatHealthFleetStats(t *testing.T) {
	replica := func(hit float64, comp int64, ratio float64) Backend {
		return &statsStub{Stats{
			AdaptivePrefixCache: true, CacheHitRateEWMA: hit,
			CompressedCacheEnabled: true, CompressedKVBytes: comp, KVCompressionRatio: ratio,
		}}
	}
	r, err := NewRouter(replica(0.9, 100, 1.2), replica(0.9, 100, 1.2), replica(0.9, 200, 1.5), replica(0.1, 600, 1.4))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableHealth(HealthConfig{}); err != nil {
		t.Fatal(err)
	}
	agg := r.Stats()
	if agg.ReplicasHealthy != 4 || agg.ReplicasDegraded != 0 || agg.ReplicasEjected != 0 {
		t.Errorf("census %d/%d/%d healthy/degraded/ejected, want 4/0/0",
			agg.ReplicasHealthy, agg.ReplicasDegraded, agg.ReplicasEjected)
	}
	if math.Abs(agg.CacheHitRateEWMA-0.7) > 1e-12 {
		t.Errorf("hit-rate EWMA %v, want 0.7", agg.CacheHitRateEWMA)
	}
	// Raw bytes 120+120+300+840 over compressed bytes 1000.
	if agg.CompressedKVBytes != 1000 || math.Abs(agg.KVCompressionRatio-1.38) > 1e-12 {
		t.Errorf("compression %d bytes at ratio %v, want 1000 at 1.38", agg.CompressedKVBytes, agg.KVCompressionRatio)
	}
	for _, replicas := range [][]Backend{{r}, {replica(0.5, 0, 1), r}} {
		if _, err := NewRouter(replicas...); err == nil {
			t.Errorf("NewRouter accepted a router among %d replicas", len(replicas))
		}
	}
}

// TestAggregateStatsZeroReplicas: folding an empty replica set must
// yield a clean zero aggregate — no NaNs from the EWMA means, no
// spurious flags — since a router can be snapshotted mid-assembly.
func TestAggregateStatsZeroReplicas(t *testing.T) {
	agg := aggregateStats(nil)
	if agg.AdaptiveChunking || agg.AdaptivePrefixCache {
		t.Errorf("zero-replica aggregate invented adaptive flags: %+v", agg)
	}
	if agg.ChunkBudget != 0 || agg.ChunkBudgetMin != 0 || agg.ChunkBudgetMax != 0 || agg.CachePoolTarget != 0 {
		t.Errorf("zero-replica aggregate invented budgets: %+v", agg)
	}
	for name, v := range map[string]float64{
		"step_time_ewma": agg.StepTimeEWMA, "hit_rate_ewma": agg.CacheHitRateEWMA,
		"pressure_ewma": agg.CachePressureEWMA, "mean_ttft": agg.MeanTTFT, "goodput": agg.Goodput,
	} {
		if v != 0 || v != v {
			t.Errorf("zero-replica aggregate %s = %v, want 0", name, v)
		}
	}
}

// TestRouterAdaptiveStatsSurviveStoppedReplica: a drained replica
// still reports its final snapshot; the fleet aggregate must keep
// folding it without disturbing the adaptive telemetry of the live
// replicas.
func TestRouterAdaptiveStatsSurviveStoppedReplica(t *testing.T) {
	servers := make([]*Server, 2)
	backends := make([]Backend, 2)
	for i := range servers {
		servers[i] = newServer(t, Config{
			Engine: testEngine(t, engine.BackendZipServ), QueueDepth: 16,
			AdaptiveChunking: true, PrefixCache: true, AdaptivePrefixCache: true,
		})
		backends[i] = servers[i]
	}
	r, err := NewRouter(backends...)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	tk, err := servers[0].Submit(Request{Prompt: seqTokens(256, 1), OutputLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res := awaitResult(t, tk); res.Err != nil {
		t.Fatal(res.Err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := servers[0].Stop(ctx); err != nil {
		t.Fatal(err)
	}
	agg, per := r.Snapshot()
	if len(per) != 2 {
		t.Fatalf("replica breakdown %d entries, want 2", len(per))
	}
	if !agg.AdaptiveChunking || !agg.AdaptivePrefixCache {
		t.Errorf("aggregate lost adaptive flags with a stopped replica: %+v", agg)
	}
	if agg.Completed != 1 {
		t.Errorf("aggregate completed %d, want the stopped replica's 1", agg.Completed)
	}
	if agg.ChunkBudgetMin <= 0 || agg.ChunkBudgetMax < agg.ChunkBudgetMin {
		t.Errorf("aggregate budget spread [%d, %d] incoherent", agg.ChunkBudgetMin, agg.ChunkBudgetMax)
	}
	if agg.CachePoolTarget != per[0].CachePoolTarget+per[1].CachePoolTarget {
		t.Errorf("pool target %d not the per-replica sum", agg.CachePoolTarget)
	}
}

// handoffOf wraps a prompt as the export a prefill replica hands off.
func handoffOf(prompt []int, outputLen int) *handoff {
	return &handoff{exp: &engine.SequenceExport{Req: engine.Request{Prompt: prompt, PromptLen: len(prompt), OutputLen: outputLen}}}
}

// lostCall is a request a dying replica hands to resurrection.
func lostCall() *call {
	return &call{events: make(chan Event, 8), result: make(chan Result, 1)}
}

// TestDispatchSnapshotsEachReplicaOnce: one dispatch reads each
// candidate's Stats once — the health classifier and the affinity and
// load ranking share that snapshot — for submissions, handoffs and
// resurrections alike, including under the liveness guard.
func TestDispatchSnapshotsEachReplicaOnce(t *testing.T) {
	prompt := seqTokens(64, 1)
	stats := make([]Stats, 4)
	for i := range stats {
		stats[i] = Stats{FreeKVBlocks: 100, PrefixSummary: summaryOf(t, prompt), StepTimeEWMA: 0.75 * float64(i)}
	}
	r, stubs, _ := stubFleet(t, stats, 2)
	if err := r.EnableAffinity(AffinityConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := r.EnableHealth(HealthConfig{MaxStepTimeEWMA: 1}); err != nil {
		t.Fatal(err)
	}
	// The submit tier refuses, so a submission ranks both tiers.
	stubs[0].refuse, stubs[1].refuse = ErrQueueFull, ErrQueueFull
	dispatches := []struct {
		name string
		run  func()
	}{
		{"submit", func() { _, _ = r.Submit(Request{Prompt: prompt, OutputLen: 8}) }},
		{"handoff", func() { _ = r.dispatchHandoff(handoffOf(prompt, 8)) }},
		{"resurrection", func() { r.resurrect(stubs[3], []*call{lostCall()}) }},
	}
	check := func(phase string) {
		t.Helper()
		for _, d := range dispatches {
			for _, s := range stubs {
				s.snaps = 0
			}
			d.run()
			for _, s := range stubs {
				if s.snaps > 1 {
					t.Errorf("%s %s: replica %d snapshotted %d times, want at most once", phase, d.name, s.id, s.snaps)
				}
			}
		}
	}
	check("healthy fleet:")
	for _, s := range stubs {
		r.healthMap[s].ejected = true
	}
	check("every replica ejected:")
}

// TestHandoffAndResurrectionRankDegradedLast pins the intended change
// to handoff and rescue ranking: a degraded replica ranks behind every
// healthy one, as it always did for a submission, even when it is the
// least-loaded.
func TestHandoffAndResurrectionRankDegradedLast(t *testing.T) {
	stats := []Stats{
		{FreeKVBlocks: 100},                  // the submit tier
		{FreeKVBlocks: 100, StepTimeEWMA: 2}, // least-loaded decode replica, but slow
		{Queued: 1, FreeKVBlocks: 100},
		{Queued: 2, FreeKVBlocks: 100},
	}
	r, stubs, log := stubFleet(t, stats, 1)
	if err := r.EnableHealth(HealthConfig{MaxStepTimeEWMA: 1}); err != nil {
		t.Fatal(err)
	}
	for _, s := range stubs {
		s.refuse = ErrQueueFull // every offer refused: the log is the whole ranking
	}
	for _, d := range []struct {
		name string
		run  func()
		want []int
	}{
		{"handoff", func() { _ = r.dispatchHandoff(handoffOf(seqTokens(32, 1), 8)) }, []int{2, 3, 1}},
		{"resurrection", func() { r.resurrect(stubs[0], []*call{lostCall()}) }, []int{2, 3, 1}},
		{"submit", func() { _, _ = r.Submit(Request{PromptLen: 32, OutputLen: 8}) }, []int{0, 2, 3, 1}},
	} {
		*log = (*log)[:0]
		d.run()
		if !slices.Equal(*log, d.want) {
			t.Errorf("%s offered replicas %v, want %v: the degraded replica last", d.name, *log, d.want)
		}
	}
}
