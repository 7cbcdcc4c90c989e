package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"zipserv/internal/engine"
	"zipserv/internal/gpu"
	"zipserv/internal/serve"
	"zipserv/internal/weights"
)

func newLiveBackend(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.Engine == nil {
		model, err := weights.ByName("LLaMA3.1-8B")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(engine.Config{
			Model: model, Device: gpu.MustByName("RTX4090"), NumGPUs: 1,
			Backend: engine.BackendZipServ,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = eng
	}
	live, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := live.Stop(ctx); err != nil {
			t.Errorf("live Stop: %v", err)
		}
	})
	return live
}

func newLiveServer(t *testing.T, cfg serve.Config) (*httptest.Server, *serve.Server) {
	t.Helper()
	live := newLiveBackend(t, cfg)
	live.Start()
	srv := httptest.NewServer(NewLiveMux(live))
	t.Cleanup(srv.Close)
	return srv, live
}

func TestGenerate(t *testing.T) {
	srv, _ := newLiveServer(t, serve.Config{QueueDepth: 8})
	resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{
		PromptLen: 128, OutputLen: 16,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.TTFT <= 0 || res.TPOT <= 0 || res.Latency <= 0 {
		t.Errorf("degenerate result: %s", body)
	}
	if res.PromptLen != 128 || res.OutputLen != 16 {
		t.Errorf("echoed lengths %d/%d, want 128/16", res.PromptLen, res.OutputLen)
	}
}

func TestGenerateStream(t *testing.T) {
	srv, _ := newLiveServer(t, serve.Config{QueueDepth: 8})
	b, _ := json.Marshal(GenerateRequest{PromptLen: 64, OutputLen: 8, Stream: true})
	resp, err := srv.Client().Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}

	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, line.Event)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"admitted", "first_token", "finished", "result"}
	if len(events) != len(want) {
		t.Fatalf("event lines %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event lines %v, want %v", events, want)
		}
	}
}

func TestGenerateBackpressure429(t *testing.T) {
	// The scheduler is deliberately not started, so the depth-1 queue
	// cannot drain: the second submission must get 429, not block.
	live := newLiveBackend(t, serve.Config{QueueDepth: 1})
	srv := httptest.NewServer(NewLiveMux(live))
	t.Cleanup(srv.Close)

	if _, err := live.Submit(serve.Request{PromptLen: 32, OutputLen: 8}); err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{
		PromptLen: 32, OutputLen: 8,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("429 body %q lacks reason", body)
	}
}

func TestGenerateErrors(t *testing.T) {
	srv, live := newLiveServer(t, serve.Config{QueueDepth: 8})

	// Invalid lengths.
	resp, _ := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{PromptLen: 0, OutputLen: 8})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero prompt status %d, want 400", resp.StatusCode)
	}
	// A reservation beyond the whole device plan: 422 with the
	// machine-readable kv_never_fits code.
	resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{
		PromptLen: 10, OutputLen: 100_000_000,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("impossible request status %d, want 422 (%s)", resp.StatusCode, body)
	}
	var never struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &never); err != nil {
		t.Fatalf("unstructured 422 body %q: %v", body, err)
	}
	if never.Error.Code != ErrCodeNeverFits || never.Error.Message == "" {
		t.Errorf("422 error = %+v, want code %q with a message", never.Error, ErrCodeNeverFits)
	}

	// Stopped server → 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := live.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ = doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{PromptLen: 32, OutputLen: 8})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-stop status %d, want 503", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	srv, _ := newLiveServer(t, serve.Config{QueueDepth: 8})
	// Complete one request so the snapshot is non-trivial.
	if resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{
		PromptLen: 64, OutputLen: 8,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d: %s", resp.StatusCode, body)
	}

	resp, body := doJSON(t, srv, http.MethodGet, "/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted < 1 || st.Completed < 1 {
		t.Errorf("stats not counting: %s", body)
	}
	if st.Goodput <= 0 || st.MeanTTFT <= 0 {
		t.Errorf("degenerate aggregates: %s", body)
	}
}

// TestStatsExposesChunkMetrics: a chunked deployment reports its
// prefill-chunk and cadence-stall metrics on /v1/stats.
func TestStatsExposesChunkMetrics(t *testing.T) {
	srv, _ := newLiveServer(t, serve.Config{QueueDepth: 8, PrefillChunkTokens: 32})
	if resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{
		PromptLen: 200, OutputLen: 8,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d: %s", resp.StatusCode, body)
	}

	resp, body := doJSON(t, srv, http.MethodGet, "/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.PrefillChunkTokens != 32 {
		t.Errorf("prefill_chunk_tokens = %d, want 32: %s", st.PrefillChunkTokens, body)
	}
	// A 200-token prompt under a 32-token budget takes 7 iterations.
	if st.PrefillIterations < 7 || st.PrefillTokens != 200 {
		t.Errorf("prefill iterations/tokens = %d/%d, want >=7/200: %s",
			st.PrefillIterations, st.PrefillTokens, body)
	}
	// The raw JSON must carry the wire field names the dashboards bind to.
	for _, key := range []string{"prefill_chunk_tokens", "prefill_iterations", "prefill_tokens", "max_decode_gap_seconds"} {
		if !bytes.Contains(body, []byte(key)) {
			t.Errorf("stats body missing %q: %s", key, body)
		}
	}
}

// TestGenerateSchedulingFields: priority and ttft_deadline_ms are
// accepted and echoed, and invalid values get a structured 400.
func TestGenerateSchedulingFields(t *testing.T) {
	srv, _ := newLiveServer(t, serve.Config{QueueDepth: 8, Policy: serve.SLOPolicy{}})
	resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{
		PromptLen: 64, OutputLen: 8, Priority: "batch", TTFTDeadlineMs: 500,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res serve.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Class != serve.ClassBatch {
		t.Errorf("echoed class %q, want batch", res.Class)
	}

	for _, bad := range []GenerateRequest{
		{PromptLen: 64, OutputLen: 8, Priority: "urgent"},
		{PromptLen: 64, OutputLen: 8, TTFTDeadlineMs: -1},
	} {
		resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %+v status %d, want 400 (%s)", bad, resp.StatusCode, body)
		}
		var e struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != ErrCodeInvalidRequest {
			t.Errorf("400 body %s, want code %q", body, ErrCodeInvalidRequest)
		}
	}
}

// TestStructuredBackpressure: 429 and 503 carry machine-readable codes,
// and Retry-After is a positive integer derived from the queue state.
func TestStructuredBackpressure(t *testing.T) {
	live := newLiveBackend(t, serve.Config{QueueDepth: 1})
	srv := httptest.NewServer(NewLiveMux(live))
	t.Cleanup(srv.Close)

	if _, err := live.Submit(serve.Request{PromptLen: 32, OutputLen: 8}); err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{
		PromptLen: 32, OutputLen: 8,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	var e struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != ErrCodeQueueFull {
		t.Errorf("429 body %s, want code %q", body, ErrCodeQueueFull)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	live.Start()
	if err := live.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body = doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{PromptLen: 32, OutputLen: 8})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-stop status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != ErrCodeStopped {
		t.Errorf("503 body %s, want code %q", body, ErrCodeStopped)
	}
}

// TestRetryAfterDerivation pins the drain-rate estimate.
func TestRetryAfterDerivation(t *testing.T) {
	cases := []struct {
		st   serve.Stats
		want string
	}{
		{serve.Stats{}, "1"},                                            // no signal yet
		{serve.Stats{Queued: 10}, "1"},                                  // unknown drain rate
		{serve.Stats{Queued: 10, RecentDrainRPS: 2}, "5"},               // 10 queued / 2 rps
		{serve.Stats{Queued: 1000, RecentDrainRPS: 1}, "60"},            // clamped
		{serve.Stats{Queued: 50, RecentDrainRPS: 5000}, "1"},            // fast drain → floor
		{serve.Stats{Queued: 10, Completed: 9, WallSeconds: 3600}, "1"}, // idle history alone is no signal
		// Degenerate rates a custom Backend could report (e.g. a drain
		// window whose wall-clock span was zero): never leak Inf/NaN
		// arithmetic into the header.
		{serve.Stats{Queued: 10, RecentDrainRPS: math.Inf(1)}, "1"},
		{serve.Stats{Queued: 10, RecentDrainRPS: math.NaN()}, "1"},
		{serve.Stats{Queued: 10, RecentDrainRPS: -3}, "1"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.st); got != c.want {
			t.Errorf("retryAfterSeconds(%+v) = %q, want %q", c.st, got, c.want)
		}
	}
}

// TestRoutedStats: behind a router, /v1/stats reports the fleet
// aggregate plus a per-replica breakdown.
func TestRoutedStats(t *testing.T) {
	r1 := newLiveBackend(t, serve.Config{QueueDepth: 8})
	r2 := newLiveBackend(t, serve.Config{QueueDepth: 8})
	router, err := serve.NewRouter(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	srv := httptest.NewServer(NewLiveMux(router))
	t.Cleanup(srv.Close)

	for i := 0; i < 4; i++ {
		if resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{
			PromptLen: 64, OutputLen: 8,
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("generate status %d: %s", resp.StatusCode, body)
		}
	}
	resp, body := doJSON(t, srv, http.MethodGet, "/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st RoutedStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Replicas) != 2 {
		t.Fatalf("replicas %d, want 2 (%s)", len(st.Replicas), body)
	}
	if st.Completed != 4 {
		t.Errorf("aggregate completed %d, want 4 (%s)", st.Completed, body)
	}
	var sum int64
	for i, rep := range st.Replicas {
		sum += rep.Completed
		if rep.TotalKVBlocks <= 0 {
			t.Errorf("replica %d reports no KV plan (%s)", i, body)
		}
	}
	if sum != st.Completed {
		t.Errorf("replica completions %d do not sum to aggregate %d", sum, st.Completed)
	}
}

// TestGenerateMalformedKeepsHealthRouterHealthy: malformed generate
// requests against a health-aware 3-replica router answer 400
// invalid_request and never trip a replica's breaker.
func TestGenerateMalformedKeepsHealthRouterHealthy(t *testing.T) {
	reps := make([]serve.Backend, 3)
	for i := range reps {
		reps[i] = newLiveBackend(t, serve.Config{QueueDepth: 8})
	}
	router, err := serve.NewRouter(reps...)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.EnableHealth(serve.HealthConfig{MaxConsecutiveFailures: 3}); err != nil {
		t.Fatal(err)
	}
	router.Start()
	srv := httptest.NewServer(NewLiveMux(router))
	t.Cleanup(srv.Close)
	for i := 0; i < 4; i++ {
		resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{PromptLen: 0, OutputLen: 8})
		var e struct {
			Error apiError `json:"error"`
		}
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error.Code != ErrCodeInvalidRequest {
			t.Fatalf("malformed generate %d: status %d body %s, want 400 %s", i, resp.StatusCode, body, ErrCodeInvalidRequest)
		}
	}
	if st := router.Stats(); st.Ejections != 0 || st.ReplicasHealthy != 3 {
		t.Errorf("ejections=%d replicas_healthy=%d, want 0 and 3", st.Ejections, st.ReplicasHealthy)
	}
}

// TestMethodAndMalformedJSON sweeps every endpoint's wrong-method and
// (for POST endpoints) malformed-body error paths.
func TestMethodAndMalformedJSON(t *testing.T) {
	srv, _ := newLiveServer(t, serve.Config{QueueDepth: 8})

	gets := []string{"/healthz", "/v1/models", "/v1/devices", "/v1/stats"}
	for _, path := range gets {
		if resp, _ := doJSON(t, srv, http.MethodPost, path, nil); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status %d, want 405", path, resp.StatusCode)
		}
	}

	posts := []string{"/v1/simulate", "/v1/trace", "/v1/compress", "/v1/generate"}
	for _, path := range posts {
		if resp, _ := doJSON(t, srv, http.MethodGet, path, nil); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s status %d, want 405", path, resp.StatusCode)
		}
		for _, bad := range []string{`{"prompt_len":`, `[]`, `{"no_such_field":1}`} {
			resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(bad))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s body %q status %d, want 400", path, bad, resp.StatusCode)
			}
		}
	}
}

// TestPostRejectsTrailingData: a POST body is exactly one JSON value.
// Bytes after it — garbage or a second object, whose fields would
// otherwise be silently dropped — answer 400, while trailing
// whitespace, a final newline included, stays accepted.
func TestPostRejectsTrailingData(t *testing.T) {
	srv, _ := newLiveServer(t, serve.Config{QueueDepth: 8})
	for path, valid := range map[string]string{
		"/v1/generate": `{"prompt_len":8,"output_len":2}`,
		"/v1/simulate": `{"model":"LLaMA3.1-8B","device":"RTX4090","batch":1,"prompt":8,"output":2}`,
	} {
		for _, tc := range []struct {
			tail string
			want int
		}{
			{"", http.StatusOK},
			{"\n", http.StatusOK},
			{" \r\n\t ", http.StatusOK},
			{" trailing garbage", http.StatusBadRequest},
			{`{"prompt_len":99999999}`, http.StatusBadRequest},
			{"\n]", http.StatusBadRequest},
		} {
			resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(valid+tc.tail))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("POST %s with tail %q: status %d, want %d (%s)", path, tc.tail, resp.StatusCode, tc.want, body)
			}
			if tc.want == http.StatusBadRequest && !strings.Contains(string(body), "bad request body: ") {
				t.Errorf("POST %s with tail %q: body %s, want a bad-request-body error", path, tc.tail, body)
			}
		}
	}
}

// TestStatsExposesAdaptiveControllers: a deployment running both
// closed-loop controllers must surface their operating point — current
// chunk budget, step-time target and EWMA, cache pool target and the
// controller EWMAs — on /v1/stats under stable wire names.
func TestStatsExposesAdaptiveControllers(t *testing.T) {
	srv, _ := newLiveServer(t, serve.Config{
		QueueDepth: 8, AdaptiveChunking: true, TargetStepTime: 0.04,
		PrefixCache: true, AdaptivePrefixCache: true,
	})
	prompt := make([]int, 200)
	for i := range prompt {
		prompt[i] = 31 + i
	}
	if resp, body := doJSON(t, srv, http.MethodPost, "/v1/generate", GenerateRequest{
		Prompt: prompt, OutputLen: 8,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d: %s", resp.StatusCode, body)
	}

	resp, body := doJSON(t, srv, http.MethodGet, "/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.AdaptiveChunking || !st.AdaptivePrefixCache {
		t.Errorf("adaptive flags missing from stats: %s", body)
	}
	if st.TargetStepTime != 0.04 {
		t.Errorf("target_step_time_seconds = %v, want 0.04", st.TargetStepTime)
	}
	if st.ChunkBudget <= 0 || st.ChunkBudgetMin <= 0 || st.ChunkBudgetMax < st.ChunkBudgetMin {
		t.Errorf("chunk budget fields incoherent: budget=%d min=%d max=%d",
			st.ChunkBudget, st.ChunkBudgetMin, st.ChunkBudgetMax)
	}
	if st.StepTimeEWMA <= 0 {
		t.Errorf("step_time_ewma_seconds = %v, want > 0 after a served request", st.StepTimeEWMA)
	}
	if st.CachePoolTarget <= 0 {
		t.Errorf("cache_pool_target_blocks = %d, want > 0 under adaptive sizing", st.CachePoolTarget)
	}
	// The raw JSON must carry the wire field names the dashboards bind to.
	for _, key := range []string{
		"adaptive_chunking", "chunk_budget_tokens", "chunk_budget_min_tokens", "chunk_budget_max_tokens",
		"target_step_time_seconds", "step_time_ewma_seconds",
		"adaptive_prefix_cache", "cache_pool_target_blocks", "cache_hit_rate_ewma", "cache_pressure_ewma",
	} {
		if !bytes.Contains(body, []byte(key)) {
			t.Errorf("stats body missing %q: %s", key, body)
		}
	}
}
