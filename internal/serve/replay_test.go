package serve

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// replayAll runs reqs through b on the replay driver and returns the
// results, in order. Any failed request fails the test.
func replayAll(t testing.TB, b Backend, reqs []Request) []Result {
	t.Helper()
	results, err := Replay(b, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
	}
	return results
}

// replay runs reqs through a fresh server built from cfg, its queue
// sized for the trace by default, and returns the results with the
// stopped server's final stats.
func replay(t testing.TB, cfg Config, reqs []Request) ([]Result, Stats) {
	t.Helper()
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = len(reqs)
	}
	s := newServer(t, cfg)
	return replayAll(t, s, reqs), s.Stats()
}

// TestHangPlanReplaysToCompletion: a hung replica holds its requests
// until the replay ends, then gives them up. Under health routing they
// resurrect on the survivor and complete; without it they fail.
func TestHangPlanReplaysToCompletion(t *testing.T) {
	const n = 8
	for _, withHealth := range []bool{true, false} {
		plan := mustPlan(t, "hang replica=1 at=0\n")
		backends := make([]Backend, 2)
		for i := range backends {
			backends[i] = newServer(t, Config{QueueDepth: n, Faults: plan.Replica(i)})
		}
		r, err := NewRouter(backends...)
		if err != nil {
			t.Fatal(err)
		}
		if withHealth {
			if err := r.EnableHealth(HealthConfig{RetryBudget: 3}); err != nil {
				t.Fatal(err)
			}
		}
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{PromptLen: 256, OutputLen: 16}
		}
		results, err := Replay(r, reqs, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Least-loaded dispatch alternates over the idle pair, so the
		// hung replica holds every second request.
		for i, res := range results {
			hungHeld := i%2 == 1
			switch {
			case withHealth && (res.Err != nil || (res.Resurrected == 1) != hungHeld):
				t.Errorf("health: request %d: err %v, resurrected %d", i, res.Err, res.Resurrected)
			case !withHealth && hungHeld != errors.Is(res.Err, errHung):
				t.Errorf("no health: request %d: err %v", i, res.Err)
			}
		}
		st := r.Stats()
		want := Stats{LostRequests: n / 2, Completed: n, Resurrections: n / 2}
		if !withHealth {
			want = Stats{LostRequests: n / 2, Completed: n / 2, Failed: n / 2}
		}
		got := Stats{LostRequests: st.LostRequests, Completed: st.Completed, Failed: st.Failed, Resurrections: st.Resurrections}
		if got != want {
			t.Errorf("health %t: lost/completed/failed/resurrected = %d/%d/%d/%d, want %d/%d/%d/%d", withHealth,
				got.LostRequests, got.Completed, got.Failed, got.Resurrections,
				want.LostRequests, want.Completed, want.Failed, want.Resurrections)
		}
	}
}

// TestReplayRefusesStartedServers: the replay driver steps servers no
// loop owns, and refuses a backend whose loop runs.
func TestReplayRefusesStartedServers(t *testing.T) {
	s := newServer(t, Config{})
	s.Start()
	if _, err := Replay(s, []Request{{PromptLen: 64, OutputLen: 4}}, 0); err == nil {
		t.Fatal("replay accepted a started server")
	}
	r, err := NewRouter(&acceptStub{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(r, nil, 0); err == nil {
		t.Fatal("replay accepted a router over a replica that is not a server")
	}
}

// fleetRun is one replay's observable outcome: a line per request and
// the stats snapshots with their wall-clock fields zeroed.
type fleetRun struct {
	log   string
	stats []Stats // the fleet aggregate, then every replica
}

// FuzzFleetReplay replays a random trace through a random fleet under a
// RandomFaultPlan (every fault kind, hang included), twice: both runs
// must give every request exactly one Result and agree on every
// outcome and stats snapshot, and every replica that neither crashed
// nor hung must pass Stepper.Close's leak checks.
func FuzzFleetReplay(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(0), uint8(12))
	f.Add(uint64(7), uint8(1), uint8(1), uint8(9))
	f.Add(uint64(42), uint8(3), uint8(2), uint8(16))
	f.Add(uint64(3), uint8(2), uint8(3), uint8(14))
	f.Add(uint64(11), uint8(0), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, replicas, shape, n uint8) {
		a := fleetReplay(t, seed, replicas, shape, n)
		b := fleetReplay(t, seed, replicas, shape, n)
		if a.log != b.log {
			t.Fatalf("outcomes diverged:\n--- first ---\n%s--- second ---\n%s", a.log, b.log)
		}
		if !reflect.DeepEqual(a.stats, b.stats) {
			t.Fatalf("stats diverged:\n%+v\n%+v", a.stats, b.stats)
		}
	})
}

// fleetReplay builds the fleet, trace and fault plan the fuzz input
// draws and replays them once.
func fleetReplay(t *testing.T, seed uint64, replicas, shape, n uint8) fleetRun {
	x := seed*0x9e3779b97f4a7c15 + 1
	rnd := func(k int) int { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return int((z ^ z>>31) % uint64(k))
	}
	// A trace of block-aligned shared prefixes (three tenants, or none)
	// plus unique suffixes, at virtual arrivals up to ~5 ms apart, in
	// one wave or in waves of four.
	reqs := make([]Request, 1+int(n)%16)
	at := 0.0
	for i := range reqs {
		prompt := seqTokens(1+rnd(48), 1000+i)
		if tenant := rnd(4); tenant > 0 {
			prompt = append(seqTokens(16*(1+rnd(8)), tenant), prompt...)
		}
		at += float64(rnd(6)) * 1e-3
		reqs[i] = Request{Prompt: prompt, OutputLen: 1 + rnd(32), Arrival: at}
	}
	wave := 4 * rnd(2)

	size := 1 + int(replicas)%4
	kind := int(shape) % 4
	if kind == 1 {
		size = max(size, 2) // a prefill replica needs a decode replica
	}
	plan := RandomFaultPlan(int64(seed), size, 0.2)
	servers := make([]*Server, size)
	backends := make([]Backend, size)
	for i := range servers {
		cfg := Config{
			Engine: prefixTestEngine(t), QueueDepth: len(reqs), PrefixCache: true,
			CompressedCache: rnd(2) == 0, PrefillChunkTokens: 64 * rnd(2), Faults: plan.Replica(i),
		}
		if kind == 1 {
			cfg.Pool = PoolDecode
			if i == 0 {
				cfg.Pool = PoolPrefill
			}
		}
		servers[i] = newServer(t, cfg)
		backends[i] = servers[i]
	}
	var (
		r   *Router
		err error
	)
	if kind == 1 {
		r, err = NewPooledRouter(servers...)
	} else {
		r, err = NewRouter(backends...)
	}
	if err != nil {
		t.Fatal(err)
	}
	switch kind {
	case 2:
		err = r.EnableAffinity(AffinityConfig{})
	case 3:
		err = r.EnableHealth(HealthConfig{RetryBudget: 2, RetryBackoff: 1e-3})
	}
	if err != nil {
		t.Fatal(err)
	}

	results, err := Replay(r, reqs, wave)
	if err != nil {
		t.Fatalf("plan %q: %v", plan, err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	var log strings.Builder
	for i, res := range results {
		if res.Err == nil && (res.PromptLen != len(reqs[i].Prompt) || res.OutputLen != reqs[i].OutputLen) {
			t.Fatalf("request %d served as %d/%d tokens, asked %d/%d",
				i, res.PromptLen, res.OutputLen, len(reqs[i].Prompt), reqs[i].OutputLen)
		}
		fmt.Fprintf(&log, "%d: err=%v admitted=%g first=%g finished=%g preempted=%d handoffs=%d cached=%d resurrected=%d\n",
			i, res.Err, res.Admitted, res.FirstToken, res.Finished, res.Preempted, res.Handoffs, res.CachedTokens, res.Resurrected)
	}
	agg, per := r.Snapshot()
	run := fleetRun{log: log.String(), stats: append([]Stats{agg}, per...)}
	for i := range run.stats {
		run.stats[i].WallSeconds, run.stats[i].RecentDrainRPS = 0, 0
	}
	for i, s := range servers {
		f, clock := s.cfg.Faults, s.sp.Clock()
		if f.crashedAt(clock) || f.hungAt(clock) {
			continue
		}
		if err := s.sp.Close(); err != nil {
			t.Fatalf("plan %q: replica %d: %v", plan, i, err)
		}
	}
	return run
}
