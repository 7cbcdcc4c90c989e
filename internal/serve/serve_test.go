package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"zipserv/internal/engine"
	"zipserv/internal/gpu"
	"zipserv/internal/weights"
)

func testEngine(t testing.TB, backend engine.Backend) *engine.Engine {
	t.Helper()
	model, err := weights.ByName("LLaMA3.1-8B")
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Model: model, Device: gpu.MustByName("RTX4090"), NumGPUs: 1, Backend: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = testEngine(t, engine.BackendZipServ)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	return s
}

func awaitResult(t *testing.T, tk *Ticket) Result {
	t.Helper()
	select {
	case res := <-tk.Result():
		return res
	case <-time.After(30 * time.Second):
		t.Fatalf("request %d: no result within 30s", tk.ID)
		return Result{}
	}
}

// TestSubmitValidation: malformed requests fail with ErrInvalidRequest
// and leave the replica live. A NaN arrival used to wedge the queue
// head (NaN <= now never holds) so that no later request completed and
// Stop never returned; +Inf jumped the clock to +Inf and poisoned every
// later timing.
func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{Engine: testEngine(t, engine.BackendZipServ)})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"zero prompt", Request{PromptLen: 0, OutputLen: 8}},
		{"negative output", Request{PromptLen: 8, OutputLen: -1}},
		{"prompt_len mismatch", Request{PromptLen: 3, Prompt: []int{1, 2}, OutputLen: 8}},
		{"unknown class", Request{PromptLen: 8, OutputLen: 8, Class: "vip"}},
		{"NaN arrival", Request{PromptLen: 8, OutputLen: 8, Arrival: math.NaN()}},
		{"+Inf arrival", Request{PromptLen: 8, OutputLen: 8, Arrival: math.Inf(1)}},
		{"NaN deadline", Request{PromptLen: 8, OutputLen: 8, TTFTDeadline: math.NaN()}},
		{"+Inf deadline", Request{PromptLen: 8, OutputLen: 8, TTFTDeadline: math.Inf(1)}},
		{"-Inf deadline", Request{PromptLen: 8, OutputLen: 8, TTFTDeadline: math.Inf(-1)}},
	} {
		if _, err := s.Submit(tc.req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: err = %v, want ErrInvalidRequest", tc.name, err)
		}
	}
	if _, err := s.Submit(Request{PromptLen: 10, OutputLen: 100_000_000}); !errors.Is(err, ErrNeverFits) {
		t.Errorf("impossible request: err = %v, want ErrNeverFits", err)
	}

	// Every negative arrival, -Inf included, still means ArrivalNow, and
	// valid follow-ups complete with finite timings.
	var tickets []*Ticket
	for _, arrival := range []float64{ArrivalNow, -5, math.Inf(-1)} {
		tk, err := s.Submit(Request{PromptLen: 16, OutputLen: 4, Arrival: arrival, TTFTDeadline: 1})
		if err != nil {
			t.Fatalf("arrival %v: %v", arrival, err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		select {
		case res := <-tk.Result():
			if res.Err != nil || math.IsNaN(res.TTFT) || math.IsInf(res.Latency, 0) || math.IsNaN(res.Latency) {
				t.Errorf("request %d: err %v, TTFT %v, latency %v", tk.ID, res.Err, res.TTFT, res.Latency)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never completed: the replica is wedged", tk.ID)
		}
	}
	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		stopped <- s.Stop(ctx)
	}()
	select {
	case err := <-stopped:
		if err != nil {
			t.Errorf("Stop: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return: the replica is wedged")
	}
}

func TestLiveRequestsComplete(t *testing.T) {
	s := newServer(t, Config{QueueDepth: 16})
	s.Start()

	const n = 8
	var wg sync.WaitGroup
	results := make([]Result, n)
	for i := 0; i < n; i++ {
		tk, err := s.Submit(Request{PromptLen: 64 + i, OutputLen: 16, Arrival: ArrivalNow})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, tk *Ticket) {
			defer wg.Done()
			results[i] = awaitResult(t, tk)
		}(i, tk)
	}
	wg.Wait()

	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
		if res.TTFT <= 0 || res.Latency <= 0 || res.TPOT <= 0 {
			t.Errorf("request %d: TTFT %.6f TPOT %.6f latency %.6f, want all > 0",
				i, res.TTFT, res.TPOT, res.Latency)
		}
		if res.Finished < res.FirstToken || res.FirstToken < res.Admitted || res.Admitted < res.Arrival {
			t.Errorf("request %d: time ordering violated (%+v)", i, res)
		}
		if res.WallDuration <= 0 {
			t.Errorf("request %d: wall duration %v", i, res.WallDuration)
		}
	}

	st := s.Stats()
	if st.Completed != n || st.Submitted != n {
		t.Errorf("stats: completed %d submitted %d, want %d", st.Completed, st.Submitted, n)
	}
	if st.Goodput <= 0 || st.Throughput <= 0 {
		t.Errorf("stats: goodput %.3f throughput %.3f, want > 0", st.Goodput, st.Throughput)
	}
}

func TestQueueOverflowFailsFast(t *testing.T) {
	// The server is not started yet, so the queue cannot drain: the
	// third submission must be rejected immediately, not block.
	s := newServer(t, Config{QueueDepth: 2})

	t1, err := s.Submit(Request{PromptLen: 32, OutputLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Submit(Request{PromptLen: 32, OutputLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Submit(Request{PromptLen: 32, OutputLen: 8}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("overflow rejection took %v, want fast-fail", d)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	// Draining starts now; the two accepted requests must complete.
	s.Start()
	for _, tk := range []*Ticket{t1, t2} {
		if res := awaitResult(t, tk); res.Err != nil {
			t.Errorf("request %d failed after drain: %v", tk.ID, res.Err)
		}
	}
}

func TestFIFOAdmissionFairness(t *testing.T) {
	// A flood larger than KV capacity: admission must stagger, and it
	// must stay FIFO — request i is never admitted after request j>i.
	s := newServer(t, Config{QueueDepth: 64})
	const n = 60
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := s.Submit(Request{PromptLen: 512, OutputLen: 2048})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	s.Start()

	results := make([]Result, n)
	for i, tk := range tickets {
		results[i] = awaitResult(t, tk)
		if results[i].Err != nil {
			t.Fatalf("request %d failed: %v", i, results[i].Err)
		}
	}
	for i := 1; i < n; i++ {
		if results[i].Admitted < results[i-1].Admitted {
			t.Errorf("FIFO violated: request %d admitted at %.4f before request %d at %.4f",
				i, results[i].Admitted, i-1, results[i-1].Admitted)
		}
	}

	st := s.Stats()
	if st.PeakConcurrency >= n {
		t.Errorf("peak concurrency %d: flood was not capacity-limited, test is vacuous", st.PeakConcurrency)
	}
	if st.PeakConcurrency < 2 {
		t.Errorf("peak concurrency %d, want batching", st.PeakConcurrency)
	}
	// Staggered admission implies eviction freed capacity for later
	// requests: the last request waited for earlier ones to finish.
	if results[n-1].QueueWait <= 0 {
		t.Errorf("tail request queue wait %.4f, want > 0 under capacity pressure", results[n-1].QueueWait)
	}
}

func TestMaxBatchCap(t *testing.T) {
	s := newServer(t, Config{QueueDepth: 32, MaxBatch: 4})
	const n = 12
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := s.Submit(Request{PromptLen: 64, OutputLen: 32})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	s.Start()
	for i, tk := range tickets {
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
	}
	if st := s.Stats(); st.PeakConcurrency > 4 {
		t.Errorf("peak concurrency %d exceeds MaxBatch 4", st.PeakConcurrency)
	}
}

func TestStreamingEvents(t *testing.T) {
	s := newServer(t, Config{QueueDepth: 4})
	s.Start()
	tk, err := s.Submit(Request{PromptLen: 128, OutputLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	res := awaitResult(t, tk)
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	var types []EventType
	for ev := range tk.Events() {
		if ev.ID != tk.ID {
			t.Errorf("event for id %d on ticket %d", ev.ID, tk.ID)
		}
		types = append(types, ev.Type)
	}
	want := []EventType{EventAdmitted, EventFirstToken, EventFinished}
	if len(types) != len(want) {
		t.Fatalf("events %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("events %v, want %v", types, want)
		}
	}
}

func TestGracefulStopDrains(t *testing.T) {
	s, err := New(Config{Engine: testEngine(t, engine.BackendZipServ), QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	const n = 6
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := s.Submit(Request{PromptLen: 256, OutputLen: 64})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// Everything accepted before Stop is served to completion.
	for i, tk := range tickets {
		select {
		case res := <-tk.Result():
			if res.Err != nil {
				t.Errorf("request %d failed during drain: %v", i, res.Err)
			}
		default:
			t.Errorf("request %d: no result after graceful stop", i)
		}
	}
	// New work is rejected.
	if _, err := s.Submit(Request{PromptLen: 32, OutputLen: 8}); !errors.Is(err, ErrStopped) {
		t.Errorf("post-stop submit err = %v, want ErrStopped", err)
	}
	if err := s.Stop(ctx); err != nil {
		t.Errorf("second Stop: %v", err)
	}
}

// TestStopBeforeStartServesSubmitted: Stop on a server, or on a router
// over servers, that was never started must run the loop to serve what
// was accepted, not return at once and strand every ticket.
func TestStopBeforeStartServesSubmitted(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	r, err := NewRouter(newServer(t, Config{Engine: eng}), newServer(t, Config{Engine: eng}))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{newServer(t, Config{Engine: eng}), r} {
		tk, err := b.Submit(Request{PromptLen: 32, OutputLen: 8})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = b.Stop(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%T Stop: %v", b, err)
		}
		select {
		case res := <-tk.Result():
			if res.Err != nil {
				t.Errorf("%T: request failed: %v", b, res.Err)
			}
		default:
			t.Errorf("%T: no result once Stop returned", b)
		}
		if st := b.Stats(); st.Completed != 1 || st.Failed != 0 {
			t.Errorf("%T: completed/failed = %d/%d, want 1/0", b, st.Completed, st.Failed)
		}
	}
}

func TestConcurrentSubmittersUnderRace(t *testing.T) {
	// Hammer the server from many goroutines while a reader polls
	// Stats; run with -race to check the synchronisation.
	s := newServer(t, Config{QueueDepth: 128})
	s.Start()

	stopPolling := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPolling:
				return
			default:
				_ = s.Stats()
			}
		}
	}()

	const workers, perWorker = 8, 5
	var wg sync.WaitGroup
	var mu sync.Mutex
	var completed, rejected int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tk, err := s.Submit(Request{PromptLen: 32 + w, OutputLen: 8})
				if errors.Is(err, ErrQueueFull) {
					mu.Lock()
					rejected++
					mu.Unlock()
					continue
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				res := awaitResult(t, tk)
				if res.Err != nil {
					t.Errorf("worker %d: %v", w, res.Err)
					return
				}
				mu.Lock()
				completed++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stopPolling)
	pollWG.Wait()

	st := s.Stats()
	if int(st.Completed) != completed {
		t.Errorf("stats completed %d, callers saw %d", st.Completed, completed)
	}
	if int(st.Rejected) != rejected {
		t.Errorf("stats rejected %d, callers saw %d", st.Rejected, rejected)
	}
}

// TestGoodputBeatsOfflineStaticBatch is the PR's acceptance benchmark:
// on the same SyntheticTrace-derived workload, the live
// continuous-batching scheduler (token-packed prefill, iteration-level
// admission) must complete requests at ≥ 1.2× the rate of the offline
// static-batch Serve path, whose prefill batches pad every prompt to
// the longest one.
func TestGoodputBeatsOfflineStaticBatch(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	trace := engine.SyntheticTrace(48, 200, 1024, 24, 7)
	if trace == nil {
		t.Fatal("nil trace")
	}

	// Offline static-batch baseline.
	off, _, err := eng.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	offGoodput := float64(off.Requests) / off.MakespanSeconds

	// Same trace through the live scheduler (arrival times replayed on
	// the virtual clock).
	s := newServer(t, Config{Engine: eng, QueueDepth: len(trace)})
	tickets := make([]*Ticket, len(trace))
	for i, r := range trace {
		tk, err := s.Submit(Request{PromptLen: r.PromptLen, OutputLen: r.OutputLen, Arrival: r.ArrivalSeconds})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	s.Start()
	for i, tk := range tickets {
		if res := awaitResult(t, tk); res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
	}
	st := s.Stats()
	if st.Completed != int64(len(trace)) {
		t.Fatalf("live completed %d/%d", st.Completed, len(trace))
	}
	liveGoodput := float64(st.Completed) / st.SimSeconds

	t.Logf("goodput: live %.3f req/s vs offline %.3f req/s (%.2fx), makespan %.2fs vs %.2fs",
		liveGoodput, offGoodput, liveGoodput/offGoodput, st.SimSeconds, off.MakespanSeconds)
	if liveGoodput < 1.2*offGoodput {
		t.Errorf("live goodput %.3f req/s < 1.2× offline %.3f req/s (ratio %.2f)",
			liveGoodput, offGoodput, liveGoodput/offGoodput)
	}
}

// BenchmarkLiveScheduler measures scheduler-loop overhead per request
// under a steady flood.
func BenchmarkLiveScheduler(b *testing.B) {
	eng := testEngine(b, engine.BackendZipServ)
	s, err := New(Config{Engine: eng, QueueDepth: 256})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Stop(ctx)
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := s.Submit(Request{PromptLen: 128, OutputLen: 16})
		if errors.Is(err, ErrQueueFull) {
			i--
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		if res := <-tk.Result(); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
