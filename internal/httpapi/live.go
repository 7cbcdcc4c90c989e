package httpapi

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"zipserv/internal/serve"
)

// NewLiveMux returns the full API handler: every stateless endpoint of
// NewMux plus the live serving endpoints backed by the given backend —
// a single continuous-batching server or a sharded replica router:
//
//	POST /v1/generate          submit one generation request
//	GET  /v1/stats             live scheduler statistics
//
// /v1/generate admits the request into the live scheduler's bounded
// queue; when the queue is full it fails fast with 429 Too Many
// Requests (the backpressure signal load balancers expect) and a
// Retry-After estimated from the current queue drain rate. Requests
// whose KV reservation exceeds the device plan get 422 Unprocessable
// Entity. Failures carry a machine-readable body:
//
//	{"error":{"code":"queue_full"|"kv_never_fits"|"stopped"|"invalid_request","message":"..."}}
//
// The request body accepts two scheduling fields beyond the lengths:
// "priority" ("interactive", the default, or "batch", consumed by the
// priority policy) and "ttft_deadline_ms" (a first-token SLO consumed
// by the slo policy). Both are ignored under the default FIFO policy,
// so requests without them behave exactly as before. A "prompt" token
// array opts the request into KV prefix reuse on a deployment started
// with the prefix cache: its admitted event and final result carry
// "cached_tokens", and /v1/stats reports "prefix_hits" and
// "prefix_tokens_saved" (router deployments aggregate them
// fleet-wide).
//
// Deployments running the adaptive controllers additionally surface
// their live operating point on /v1/stats: "chunk_budget_tokens" (with
// the fleet min/max spread under a router), the step-time target and
// its observed EWMA ("target_step_time_seconds",
// "step_time_ewma_seconds"), and the prefix-cache pool target plus the
// sizing controller's EWMAs ("cache_pool_target_blocks",
// "cache_hit_rate_ewma", "cache_pressure_ewma").
//
// With "stream": true the response is NDJSON: one line per scheduler
// event (admitted, first_token, preempted, finished) followed by a
// final result line, flushed as they happen. Without streaming, the
// handler waits for completion and returns the final per-request
// metrics as one JSON object.
//
// When the backend is a router, /v1/stats reports the fleet aggregate
// plus a per-replica breakdown under "replicas". Prefix-cache-enabled
// replicas also publish their prefix-trie digest ("prefix_summary",
// with "prefix_summary_age_seconds" since its last change), the signal
// a router with prefix-affinity dispatch scores to steer shared-prefix
// requests; the routing outcomes surface as "prefix_affinity_hits" and
// "affinity_spills" on the aggregate. Every /v1/stats field — unit and
// fleet aggregation rule — is catalogued in docs/stats-reference.md.
func NewLiveMux(live serve.Backend) *http.ServeMux {
	mux := NewMux()
	mux.HandleFunc("/v1/generate", handleGenerate(live))
	mux.HandleFunc("/v1/stats", handleStats(live))
	return mux
}

// GenerateRequest is the /v1/generate body.
type GenerateRequest struct {
	PromptLen int  `json:"prompt_len"`
	OutputLen int  `json:"output_len"`
	Stream    bool `json:"stream"`
	// Prompt optionally carries the prompt's token ids. On a
	// prefix-cache-enabled deployment, requests sharing a prompt
	// prefix reuse each other's KV blocks and skip the shared prefill
	// work; the response's cached_tokens reports the reuse. prompt_len
	// may be omitted (defaulted to len(prompt)) but must match when
	// both are set.
	Prompt []int `json:"prompt,omitempty"`
	// Priority is the request's class: "interactive" (default) or
	// "batch". Consumed by the priority scheduling policy.
	Priority string `json:"priority,omitempty"`
	// TTFTDeadlineMs is the first-token SLO in milliseconds after
	// arrival. Consumed by the slo scheduling policy; 0 = no deadline.
	TTFTDeadlineMs float64 `json:"ttft_deadline_ms,omitempty"`
}

// Machine-readable error codes of the live endpoints.
const (
	ErrCodeQueueFull      = "queue_full"      // 429: admission queue at capacity
	ErrCodeNeverFits      = "kv_never_fits"   // 422: reservation exceeds the device plan
	ErrCodeStopped        = "stopped"         // 503: backend shut down
	ErrCodeInvalidRequest = "invalid_request" // 400: malformed scheduling parameters
)

// apiError is the structured error body: {"error":{"code","message"}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func structuredError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]apiError{"error": {Code: code, Message: msg}})
}

// retryAfterSeconds estimates how long a rejected caller should back
// off before the queue has drained: queued requests over the recent
// wall-clock completion rate (completions per real second over the
// scheduler's ~30s window — the virtual-time goodput would overstate
// the backoff by however much faster than real time the scheduler
// runs, and a lifetime average never recovers from an idle stretch),
// clamped to [1s, 60s]. With no recent completion the drain rate is
// unknown and the floor applies. The estimate must survive any Stats a
// Backend implementation reports: a zero, negative, or non-finite
// drain rate (e.g. a first-burst window whose wall-clock span was
// zero) falls back to the floor instead of leaking NaN into the
// Retry-After header.
func retryAfterSeconds(st serve.Stats) string {
	if st.Queued <= 0 || st.RecentDrainRPS <= 0 || math.IsNaN(st.RecentDrainRPS) {
		return "1"
	}
	secs := math.Ceil(float64(st.Queued) / st.RecentDrainRPS)
	return strconv.Itoa(int(math.Min(math.Max(secs, 1), 60)))
}

func handleGenerate(live serve.Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req GenerateRequest
		if !decodeGenerate(w, r, &req) {
			return
		}
		class := serve.Class(req.Priority)
		switch class {
		case "", serve.ClassInteractive, serve.ClassBatch:
		default:
			structuredError(w, http.StatusBadRequest, ErrCodeInvalidRequest,
				"priority must be \"interactive\" or \"batch\"")
			return
		}
		if req.TTFTDeadlineMs < 0 {
			structuredError(w, http.StatusBadRequest, ErrCodeInvalidRequest,
				"ttft_deadline_ms must be non-negative")
			return
		}
		tk, err := live.Submit(serve.Request{
			PromptLen:    req.PromptLen,
			OutputLen:    req.OutputLen,
			Prompt:       req.Prompt,
			Arrival:      serve.ArrivalNow,
			Class:        class,
			TTFTDeadline: req.TTFTDeadlineMs / 1000,
		})
		switch {
		case errors.Is(err, serve.ErrQueueFull):
			w.Header().Set("Retry-After", retryAfterSeconds(live.Stats()))
			structuredError(w, http.StatusTooManyRequests, ErrCodeQueueFull, err.Error())
			return
		case errors.Is(err, serve.ErrNeverFits):
			structuredError(w, http.StatusUnprocessableEntity, ErrCodeNeverFits, err.Error())
			return
		case errors.Is(err, serve.ErrStopped):
			structuredError(w, http.StatusServiceUnavailable, ErrCodeStopped, err.Error())
			return
		case err != nil:
			structuredError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err.Error())
			return
		}

		// A generate response can legitimately outlive the server's
		// blanket WriteTimeout (deep queue, long decode): lift the
		// write deadline for this response only, leaving the stateless
		// endpoints under the configured timeout.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})

		if req.Stream {
			streamGenerate(w, r, tk)
			return
		}
		select {
		case res := <-tk.Result():
			if res.Err != nil {
				httpError(w, http.StatusInternalServerError, res.Err.Error())
				return
			}
			writeJSON(w, http.StatusOK, res)
		case <-r.Context().Done():
			// Client gone; the scheduler still completes the sequence.
		}
	}
}

// streamGenerate writes scheduler events as NDJSON lines, flushing
// each so clients observe admission and first-token latency live.
func streamGenerate(w http.ResponseWriter, r *http.Request, tk *serve.Ticket) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	events := tk.Events()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				events = nil // drained; the final result follows
				continue
			}
			_ = enc.Encode(ev)
			flush()
		case res := <-tk.Result():
			// Drain remaining buffered events first so the line order
			// stays admitted → first_token → finished → result.
			for ev := range tk.Events() {
				_ = enc.Encode(ev)
			}
			type line struct {
				Event string        `json:"event"`
				Error string        `json:"error,omitempty"`
				Res   *serve.Result `json:"result,omitempty"`
			}
			if res.Err != nil {
				_ = enc.Encode(line{Event: "error", Error: res.Err.Error()})
			} else {
				_ = enc.Encode(line{Event: "result", Res: &res})
			}
			flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// RoutedStats is the /v1/stats body for a sharded deployment: the
// fleet aggregate inline plus the per-replica breakdown, and — when any
// replica carries a disaggregation pool role — a per-pool aggregation
// under "pools" (keys "prefill", "decode", "mixed").
type RoutedStats struct {
	serve.Stats
	Replicas []serve.Stats          `json:"replicas"`
	Pools    map[string]serve.Stats `json:"pools,omitempty"`
}

// poolBreakdown folds the per-replica stats by pool role, or nil when
// no replica is pool-labelled (the single-tier deployment, whose
// /v1/stats body stays exactly as before).
func poolBreakdown(per []serve.Stats) map[string]serve.Stats {
	labelled := false
	for _, st := range per {
		if st.Pool != "" {
			labelled = true
			break
		}
	}
	if !labelled {
		return nil
	}
	return serve.PoolAggregate(per)
}

func handleStats(live serve.Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		// A router serves the routed shape: its aggregate and per-replica
		// breakdown come from one pass, so the breakdown sums to the
		// aggregate.
		if router, ok := live.(*serve.Router); ok {
			agg, per := router.Snapshot()
			writeJSON(w, http.StatusOK, RoutedStats{
				Stats: agg, Replicas: per, Pools: poolBreakdown(per),
			})
			return
		}
		writeJSON(w, http.StatusOK, live.Stats())
	}
}
