// Package serve is ZipServ's live serving layer: a goroutine-based
// continuous-batching scheduler that turns the offline trace simulator
// (internal/engine) into an online system with admission control,
// backpressure and streaming per-request metrics — the request path
// behind the HTTP API's POST /v1/generate and GET /v1/stats.
//
// # Design
//
// The package separates the three decisions a serving stack must keep
// open, each behind its own abstraction:
//
//   - Server — the engine loop. It owns an engine.Stepper (the
//     iteration-level continuous-batching state machine over the paged
//     KV-cache plan) and runs admission → prefill → decode one
//     iteration (step) at a time, exactly as a vLLM-class engine loop
//     does.
//   - Policy — who runs next. Admission ordering is one of three
//     built-in policies: FIFOPolicy (the default, head-of-line order),
//     PriorityPolicy (interactive before batch, starvation-free via
//     aging), and SLOPolicy (earliest-TTFT-deadline-first, with
//     preempt-and-requeue when an urgent request cannot fit), each
//     run on an O(log n) binary-heap core. The Stepper's
//     conservative prompt+output reservation is the preemption hook:
//     evicting a victim returns every block it held, so the urgent
//     admission can never fail mid-flight.
//   - Backend / Router — where they run. Backend (Start/Submit/Stats/
//     Stop) is the surface the HTTP layer binds to; *Server implements
//     it for one engine, and Router implements it over N replica
//     backends with capacity-aware least-loaded dispatch (queue depth
//     and free KV blocks from each replica's Stats snapshot) and
//     failover on a full or stopped replica.
//
// Each loop iteration: (1) drain the bounded submit channel into the
// scheduler core and admit requests, Policy-ordered, while their
// conservative prompt+output KV reservation fits and the batch cap
// allows; (2) prefill newly admitted prompts as one token-packed
// (padding-free, varlen-style) batch, emitting each request's first
// token; (3) run one decode iteration across the running batch,
// releasing finished sequences' KV blocks immediately to fund the next
// admissions.
//
// Time inside an iteration is virtual (the engine cost model's step
// durations), and two drivers run the same iteration. Start launches
// the live driver, one scheduler goroutine per replica: arrival,
// queueing and completion are real goroutine and channel events, so the
// scheduler is exercised under true concurrency, and it alone blocks or
// reads the wall clock (the idle wait, AdmissionWindow, TimeScale,
// shutdown). Replay runs a trace through an unstarted server or fleet on
// the caller's goroutine, always stepping the replica whose next event
// is earliest in virtual time, so a fleet replay, handoffs, waves and
// fault plans included, is byte-identical on any GOMAXPROCS.
//
// Submit never blocks: when the admission queue is full it fails fast
// with ErrQueueFull, which the HTTP layer maps to 429 Too Many
// Requests, and a malformed request fails with ErrInvalidRequest (400
// Bad Request). Each accepted request gets a Ticket carrying a
// streaming event channel (admitted → first_token → finished, with
// preempted interleaved when a policy evicts it) and a final Result
// with TTFT, TPOT, queue wait and end-to-end latency.
package serve

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"zipserv/internal/engine"
	"zipserv/internal/kvcache"
)

// Submission errors.
var (
	// ErrQueueFull means the bounded admission queue is at capacity;
	// callers should back off (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrStopped means the server is shut down or shutting down.
	ErrStopped = errors.New("serve: server stopped")
	// ErrNeverFits means the request's KV reservation exceeds the
	// device plan and could never be admitted (HTTP 422).
	ErrNeverFits = errors.New("serve: request can never fit in KV memory")
	// ErrInvalidRequest wraps every request-validation failure: a
	// non-positive length, a prompt_len/Prompt mismatch, an unknown
	// class, a NaN or +Inf arrival, a non-finite TTFT deadline. Every
	// replica refuses such a request alike, so a router fails it at
	// once instead of failing over (HTTP 400).
	ErrInvalidRequest = errors.New("serve: invalid request")
	// ErrRetriesExhausted means a request lost to replica failures was
	// resurrected up to the health router's retry budget and failed
	// every time (HTTP 503; see docs/robustness.md).
	ErrRetriesExhausted = errors.New("serve: retry budget exhausted")
)

// ArrivalNow marks a Request as arriving at the scheduler's current
// virtual clock (the live path). Non-negative arrivals are explicit
// virtual timestamps, used to replay recorded traces.
const ArrivalNow = -1

// DefaultTargetStepTime is the combined per-iteration step-time target
// (the decode batch's TPOT SLO) the adaptive chunk controller holds
// when Config.TargetStepTime is zero: 50 ms between tokens, a humane
// interactive cadence with prefill headroom on every modelled device.
const DefaultTargetStepTime = 50e-3

// PoolRole assigns a replica to a disaggregated serving tier (see
// docs/disaggregation.md). A pooled router runs prompts to first token
// on a prefill replica, then hands the compressed sequence to the
// least-loaded decode replica; mixed replicas serve co-located, the
// single-tier behaviour.
type PoolRole string

// The three replica pool roles. The empty string means PoolMixed.
const (
	PoolPrefill PoolRole = "prefill"
	PoolDecode  PoolRole = "decode"
	PoolMixed   PoolRole = "mixed"
)

// Class is a request priority class, consumed by PriorityPolicy.
type Class string

// The two request classes of a production serving tier: latency-bound
// interactive traffic and throughput-bound batch traffic.
const (
	ClassInteractive Class = "interactive"
	ClassBatch       Class = "batch"
)

// Request is one live generation request.
type Request struct {
	PromptLen int
	OutputLen int
	// Prompt optionally carries the prompt's token ids. With
	// Config.PrefixCache, requests sharing a prompt prefix
	// (token-identical leading blocks) reuse each other's KV blocks
	// and skip the shared prefill work. When non-empty, PromptLen may
	// be 0 (defaulted to len(Prompt)) or must equal len(Prompt).
	Prompt []int
	// Arrival is the virtual arrival time in seconds. Use ArrivalNow
	// (any negative value) for live requests; trace replays set the
	// trace's arrival timestamps so queueing delays are reproduced.
	// NaN and +Inf are rejected.
	Arrival float64
	// Class is the request's priority class. Empty defaults to
	// ClassInteractive. Ignored by FIFOPolicy.
	Class Class
	// TTFTDeadline is the first-token SLO in seconds after arrival,
	// consumed by SLOPolicy (earliest deadline first). Zero means no
	// deadline: the request yields to every deadline-carrying one and
	// is never admitted by preempting a victim. Must be finite.
	TTFTDeadline float64
}

// Config describes a live server.
type Config struct {
	// Engine prices every step and sizes the KV plan. Required.
	Engine *engine.Engine
	// QueueDepth bounds the admission queue; Submit fails with
	// ErrQueueFull beyond it. Default 64. Per-slot scheduling cost is
	// O(log n) in queue depth and allocation-free (the heap core,
	// docs/scheduling.md), so depth can be sized for burst absorption
	// alone.
	QueueDepth int
	// MaxBatch caps concurrently scheduled sequences (0 = KV capacity
	// is the only limit).
	MaxBatch int
	// Policy orders admission (and selects preemption victims): one of
	// FIFOPolicy, PriorityPolicy or SLOPolicy, e.g. from PolicyByName.
	// Nil defaults to FIFOPolicy.
	Policy Policy
	// PrefillChunkTokens caps the prompt tokens one scheduler iteration
	// may prefill (Sarathi-style chunked prefill): partially prefilled
	// sequences carry their chunk progress across iterations, so one
	// long prompt can never stall the decode batch's token cadence.
	// 0 = monolithic prefill (the legacy behaviour).
	PrefillChunkTokens int
	// AdmissionWindow, when positive, makes an idle scheduler hold its
	// first incoming submission for up to this wall-clock duration
	// while more arrive, so sparse real-time HTTP traffic coalesces
	// into a micro-batch the way trace replays do. The hold costs wall
	// time only; virtual arrival stamps (live or trace) are unaffected.
	AdmissionWindow time.Duration
	// TimeScale, when positive, paces the scheduler loop against the
	// wall clock: each iteration sleeps its virtual step duration ×
	// TimeScale, so the virtual clock advances no faster than
	// wall-time/TimeScale and live arrivals interleave with scheduling
	// instead of draining one by one. 1.0 ≈ real time; 0 (default) runs
	// as fast as the CPU allows.
	TimeScale float64
	// PrefixCache enables copy-on-write KV prefix reuse across
	// requests that carry prompt tokens (Request.Prompt): admission
	// claims content-matched blocks by reference, prefill starts at
	// the first uncached position, and refcount-zero blocks are kept
	// warm for later identical prefixes (LRU-evicted under pressure).
	PrefixCache bool
	// PrefixCacheBlocks bounds how many refcount-zero blocks the
	// prefix cache may keep parked (0 = unbounded: every free block is
	// a reuse candidate). Ignored unless PrefixCache is set. With
	// AdaptivePrefixCache it is only the sizing controller's starting
	// point.
	PrefixCacheBlocks int
	// AdaptiveChunking replaces the static PrefillChunkTokens budget
	// with a closed-loop controller on the scheduler iteration: each
	// Prefill re-derives the largest chunk that keeps the combined
	// prefill+decode step under TargetStepTime by inverting the engine
	// cost model, shrinking under deep decode batches and growing when
	// the loop is idle. Mutually exclusive with PrefillChunkTokens.
	AdaptiveChunking bool
	// TargetStepTime is the adaptive controller's combined step-time
	// target in seconds — the decode batch's TPOT SLO. 0 =
	// DefaultTargetStepTime. Requires AdaptiveChunking.
	TargetStepTime float64
	// AdaptivePrefixCache replaces the static PrefixCacheBlocks bound
	// with a closed-loop pool-sizing controller: the cached pool
	// shrinks (evicting leaf-first) while admissions queue on KV
	// capacity and grows while prefix hits keep arriving. Requires
	// PrefixCache.
	AdaptivePrefixCache bool
	// CompressedCache stores cold (refcount-zero) prefix-cache blocks
	// in TCA-TBE compressed form instead of parking them physically:
	// the physical block returns to the free list immediately, the
	// content stays advertised by the trie, and a later claim
	// decompresses into a fresh block at a cost the engine's prefill
	// pricing charges explicitly. Trades per-claim decompress latency
	// for effective KV capacity. Requires PrefixCache.
	CompressedCache bool
	// Pool is the replica's disaggregation role. Empty or PoolMixed is
	// the co-located default. A PoolPrefill replica under NewPooledRouter
	// exports every sequence at its first token (shipping compressed KV
	// to a decode replica) and, with AdaptiveChunking, runs the chunk
	// controller at its decode-free operating point. A PoolDecode
	// replica accepts those handoffs and continues the decodes.
	Pool PoolRole
	// Faults attaches this replica's slice of a deterministic fault
	// plan (docs/robustness.md): scripted crash/hang/slowdown/codec/
	// handoff-drop/stale-stats events evaluated on the replica's own
	// virtual clock, so chaos runs replay bit-identically. Nil (the
	// default) injects nothing. A ReplicaFaults must not be shared
	// between servers; project one per replica with FaultPlan.Replica.
	Faults *ReplicaFaults
}

// EventType tags a streaming event.
type EventType string

// Streaming event types. Per request the order is admitted →
// first_token → finished, with preempted (followed by a fresh
// admitted/first_token pair) interleaved when a policy evicts the
// sequence to make room for a more urgent one.
const (
	EventAdmitted   EventType = "admitted"
	EventFirstToken EventType = "first_token"
	EventPreempted  EventType = "preempted"
	EventHandoff    EventType = "handoff" // imported by a decode replica
	EventFinished   EventType = "finished"
)

// Event is one streaming progress notification for a request.
type Event struct {
	Type       EventType `json:"event"`
	ID         int       `json:"id"`
	SimSeconds float64   `json:"sim_seconds"`
	TTFT       float64   `json:"ttft_seconds,omitempty"`
	// CachedTokens reports, on the admitted event, how many prompt
	// tokens the prefix cache served by reference.
	CachedTokens int `json:"cached_tokens,omitempty"`
}

// Result is the final per-request record.
type Result struct {
	ID        int   `json:"id"`
	PromptLen int   `json:"prompt_len"`
	OutputLen int   `json:"output_len"`
	Class     Class `json:"class,omitempty"`
	Preempted int   `json:"preempted,omitempty"` // times evicted and requeued
	// Handoffs counts prefill→decode replica transfers the request's
	// sequence made under a pooled router (normally 1 when
	// disaggregated, 0 when served co-located).
	Handoffs int `json:"handoffs,omitempty"`
	// CachedTokens is how many prompt tokens the prefix cache served
	// by reference (skipped prefill work) on the final admission.
	CachedTokens int `json:"cached_tokens,omitempty"`
	// Resurrected counts how many times a health-aware router
	// resubmitted this request to another replica after the one holding
	// it failed (0 on the undisturbed path; see docs/robustness.md).
	Resurrected int `json:"resurrected,omitempty"`

	// Virtual timestamps (seconds on the scheduler clock). Admitted is
	// the last admission when the request was preempted in between.
	Arrival    float64 `json:"arrival_seconds"`
	Admitted   float64 `json:"admitted_seconds"`
	FirstToken float64 `json:"first_token_seconds"`
	Finished   float64 `json:"finished_seconds"`

	TTFT      float64 `json:"ttft_seconds"`
	TPOT      float64 `json:"tpot_seconds"`
	QueueWait float64 `json:"queue_wait_seconds"` // Admitted − Arrival
	Latency   float64 `json:"latency_seconds"`

	// WallDuration is real elapsed time from Submit to completion.
	WallDuration time.Duration `json:"wall_duration_ns"`

	Err error `json:"-"`
}

// Stats is an aggregate snapshot of one backend. For a Router it spans
// all replicas: each field's agg tag names the rule aggregateStats folds
// it by (docs/stats-reference.md describes every rule and key).
type Stats struct {
	Submitted int64 `json:"submitted" agg:"sum"`
	// Rejected counts client-visible submit failures: queue-full fast
	// failures and, on a router, every refusal it returned (a malformed
	// request, or one every replica refused: all stopped, or a request
	// that can never fit).
	Rejected  int64 `json:"rejected" agg:"sum"`
	Completed int64 `json:"completed" agg:"sum"`
	Failed    int64 `json:"failed" agg:"sum"`
	Preempted int64 `json:"preempted" agg:"sum"` // policy evictions (requeued, not failed)

	Queued int `json:"queued" agg:"sum"` // waiting for admission
	Active int `json:"active" agg:"sum"` // holding KV capacity

	// KV headroom, the router's capacity-aware dispatch signal.
	FreeKVBlocks  int `json:"free_kv_blocks" agg:"sum"`
	TotalKVBlocks int `json:"total_kv_blocks" agg:"sum"`

	Policy string `json:"policy,omitempty" agg:"same"`

	// Disaggregation metrics. Pool echoes the replica's configured role;
	// Handoffs counts sequences this replica exported to a decode replica
	// after their first token, with HandoffBytes their total compressed
	// wire footprint; HandoffFailures counts dispatches no decode replica
	// accepted (the sequence then continued co-located); HandoffImports
	// counts sequences this replica imported and decoded to completion.
	Pool            string `json:"pool,omitempty" agg:"same"`
	Handoffs        int64  `json:"handoffs" agg:"sum"`
	HandoffBytes    int64  `json:"handoff_bytes" agg:"sum"`
	HandoffFailures int64  `json:"handoff_failures" agg:"sum"`
	HandoffImports  int64  `json:"handoff_imports" agg:"sum"`

	// Robustness metrics (docs/robustness.md). LostRequests counts
	// requests this replica held (queued or in-flight) when it crashed,
	// hung, or dropped their handoff in transfer — each was either
	// resurrected elsewhere by a health-aware router or failed to the
	// client. HandoffDrops counts handoff transfers that vanished on
	// the wire (injected by fault plans). CodecFallbacks counts cold
	// prefix-cache blocks that degraded to plain physical parking
	// because the KV codec failed — the graceful-degradation path for
	// codec faults.
	LostRequests   int64 `json:"lost_requests" agg:"sum"`
	HandoffDrops   int64 `json:"handoff_drops" agg:"sum"`
	CodecFallbacks int64 `json:"codec_fallbacks" agg:"sum"`

	// Health-aware routing telemetry (router-owned; see
	// docs/robustness.md). HealthEnabled reports whether the router
	// runs the per-replica health state machine; HealthState annotates
	// a per-replica snapshot with that replica's current state
	// ("healthy", "degraded", "ejected", "probing" — empty on
	// aggregates and on plain replicas). ReplicasHealthy/Degraded/
	// Ejected census the fleet at snapshot time. Ejections counts
	// breaker trips (replica removed from ranking), HealthProbes the
	// half-open trial submissions sent to ejected replicas, and
	// Reinstatements the probes that brought one back. Resurrections
	// counts lost requests resubmitted to another replica;
	// RetryExhausted the resurrections abandoned after the retry
	// budget (client-visible failures, also folded into Failed).
	HealthEnabled    bool   `json:"health_enabled,omitempty" agg:"or"`
	HealthState      string `json:"health_state,omitempty" agg:"replica"`
	ReplicasHealthy  int    `json:"replicas_healthy,omitempty" agg:"sum"`
	ReplicasDegraded int    `json:"replicas_degraded,omitempty" agg:"sum"`
	ReplicasEjected  int    `json:"replicas_ejected,omitempty" agg:"sum"`
	Ejections        int64  `json:"ejections,omitempty" agg:"sum"`
	HealthProbes     int64  `json:"health_probes,omitempty" agg:"sum"`
	Reinstatements   int64  `json:"reinstatements,omitempty" agg:"sum"`
	Resurrections    int64  `json:"resurrections,omitempty" agg:"sum"`
	RetryExhausted   int64  `json:"retry_exhausted,omitempty" agg:"sum"`

	// WallSeconds is real elapsed time since the scheduler started (0
	// before Start) — the denominator for wall-clock rates, which the
	// virtual-time Goodput is not.
	WallSeconds float64 `json:"wall_seconds" agg:"max"`
	// RecentDrainRPS is the wall-clock completion rate over the last
	// ~30s — the current queue drain rate behind the HTTP layer's
	// Retry-After estimate (a lifetime average would never recover
	// from a long idle stretch).
	RecentDrainRPS float64 `json:"recent_drain_rps" agg:"sum"`

	SimSeconds      float64 `json:"sim_seconds" agg:"max"`
	OutputTokens    int64   `json:"output_tokens" agg:"sum"`
	DecodeSteps     int64   `json:"decode_steps" agg:"sum"`
	PeakConcurrency int     `json:"peak_concurrency" agg:"sum"`

	// Chunked-prefill and cadence metrics. PrefillChunkTokens echoes
	// the configured per-iteration budget (0 = monolithic);
	// PrefillIterations and PrefillTokens count prefill work done;
	// MaxDecodeGap is the worst inter-token stall any decoding sequence
	// has seen (virtual seconds) — the number chunking bounds.
	PrefillChunkTokens int     `json:"prefill_chunk_tokens" agg:"max"`
	PrefillIterations  int64   `json:"prefill_iterations" agg:"sum"`
	PrefillTokens      int64   `json:"prefill_tokens" agg:"sum"`
	MaxDecodeGap       float64 `json:"max_decode_gap_seconds" agg:"max"`

	// Prefix-cache metrics. PrefixCacheEnabled echoes the config;
	// PrefixHits counts admissions that reused cached blocks;
	// PrefixTokensSaved totals the prompt tokens served by reference
	// instead of re-prefilled; CachedKVBlocks are refcount-zero blocks
	// kept warm (they still count as free capacity); SharedKVBlocks
	// are blocks referenced by more than one live sequence.
	PrefixCacheEnabled bool  `json:"prefix_cache_enabled,omitempty" agg:"or"`
	PrefixHits         int64 `json:"prefix_hits" agg:"sum"`
	PrefixTokensSaved  int64 `json:"prefix_tokens_saved" agg:"sum"`
	CachedKVBlocks     int   `json:"cached_kv_blocks" agg:"sum"`
	SharedKVBlocks     int   `json:"shared_kv_blocks" agg:"sum"`

	// Prefix-affinity routing telemetry (docs/routing.md). PrefixSummary
	// is the replica's immutable prefix-trie digest (root fingerprints +
	// a bloom filter over committed block paths), published on the
	// admission-epoch cadence. SummaryAgeSeconds is the virtual time
	// since the digest last changed — on a fleet, the staleness bound on
	// the router's overlap estimates. PrefixAffinityHits counts
	// submissions an affinity-enabled router dispatched to the replica
	// with the best estimated prefix overlap; AffinitySpills counts
	// submissions that had a preferred replica but were routed
	// least-loaded instead because the preferred one sat outside the
	// load band or under the free-block floor. Replicas always report 0
	// for both.
	PrefixSummary      *kvcache.PrefixSummary `json:"prefix_summary,omitempty" agg:"merge"`
	SummaryAgeSeconds  float64                `json:"prefix_summary_age_seconds" agg:"max"`
	PrefixAffinityHits int64                  `json:"prefix_affinity_hits" agg:"sum"`
	AffinitySpills     int64                  `json:"affinity_spills" agg:"sum"`

	// Compressed-cache metrics. CompressedCacheEnabled echoes the
	// config; CompressedKVBlocks are cold blocks currently held in
	// compressed form (trie-advertised, no physical block) with
	// CompressedKVBytes their stored footprint; KVCompressionRatio is
	// the measured aggregate orig/compressed ratio (1.0 while nothing
	// is frozen); DecompressClaims counts frozen blocks restored by
	// prefix claims.
	CompressedCacheEnabled bool    `json:"compressed_cache_enabled,omitempty" agg:"or"`
	CompressedKVBlocks     int     `json:"compressed_kv_blocks" agg:"sum"`
	CompressedKVBytes      int64   `json:"compressed_bytes" agg:"sum"`
	KVCompressionRatio     float64 `json:"compression_ratio" agg:"mean:compressed_bytes"`
	DecompressClaims       int64   `json:"decompress_claims" agg:"sum"`

	// Adaptive-controller telemetry. AdaptiveChunking/AdaptivePrefixCache
	// echo the config; ChunkBudget is the budget the next iteration will
	// honour (the controller's smoothed value, or the static flag), with
	// ChunkBudgetMin/Max the fleet spread on a router (min==max==budget
	// on one replica); TargetStepTime is the chunk controller's combined
	// step-time target and StepTimeEWMA the smoothed iteration time it
	// holds under it. CachePoolTarget is the cached-pool bound the
	// sizing controller (or static config) currently enforces;
	// CacheHitRateEWMA and CachePressureEWMA are its smoothed admission
	// hit rate and KV pressure.
	AdaptiveChunking    bool    `json:"adaptive_chunking,omitempty" agg:"or"`
	ChunkBudget         int     `json:"chunk_budget_tokens" agg:"max"`
	ChunkBudgetMin      int     `json:"chunk_budget_min_tokens" agg:"minpos"`
	ChunkBudgetMax      int     `json:"chunk_budget_max_tokens" agg:"max"`
	TargetStepTime      float64 `json:"target_step_time_seconds,omitempty" agg:"max"`
	StepTimeEWMA        float64 `json:"step_time_ewma_seconds" agg:"max"`
	AdaptivePrefixCache bool    `json:"adaptive_prefix_cache,omitempty" agg:"or"`
	CachePoolTarget     int     `json:"cache_pool_target_blocks" agg:"sum"`
	CacheHitRateEWMA    float64 `json:"cache_hit_rate_ewma" agg:"mean:adaptive_prefix_cache"`
	CachePressureEWMA   float64 `json:"cache_pressure_ewma" agg:"max"`

	Goodput    float64 `json:"goodput_rps" agg:"derived"`      // completed / sim second
	Throughput float64 `json:"throughput_tok_s" agg:"derived"` // tokens / sim second

	MeanTTFT      float64 `json:"mean_ttft_seconds" agg:"mean:completed"`
	MeanTPOT      float64 `json:"mean_tpot_seconds" agg:"mean:completed"`
	MeanQueueWait float64 `json:"mean_queue_wait_seconds" agg:"mean:completed"`
}

// Ticket tracks one accepted request.
type Ticket struct {
	// ID is the request's sequence id in the scheduler.
	ID     int
	events chan Event
	result chan Result
}

// Events streams progress notifications (admitted, first_token,
// preempted, finished). The channel is closed after the final event.
// Events are best-effort: a slow consumer may miss intermediate ones,
// never the Result.
func (t *Ticket) Events() <-chan Event { return t.events }

// Result delivers the final per-request record exactly once.
func (t *Ticket) Result() <-chan Result { return t.result }

type call struct {
	req      engine.Request
	class    Class
	ttftSLO  float64 // relative first-token deadline; 0 = none
	preempts int
	handoffs int // replica transfers; written only by the call's current owner
	// retries counts resurrections. Written by the health router;
	// atomic because a late duplicate's deliver may read it while the
	// router is resurrecting what it believes is a lost call.
	retries atomic.Int32
	backoff float64 // virtual-seconds arrival delay the next owner stamps
	// clientID is the id the submitter's Ticket carries. Resurrection
	// mints a fresh req.ID per attempt (idempotent delivery needs
	// distinct scheduler ids), but every event and the Result report
	// this stable handle.
	clientID   int
	admittedAt float64 // virtual time of the last admission
	submitted  time.Time
	done       atomic.Bool // set by claim; makes delivery idempotent
	events     chan Event
	result     chan Result
	evMu       sync.Mutex // serialises emit against closeEvents
	evClosed   bool
	ticket     Ticket // returned to the submitter; embedded to spare an allocation

	// key and slot file the call in the scheduler core (schedcore.go):
	// its sort key and its index in the one heap that holds it. One
	// slot is enough because a call sits in at most one core heap
	// across the whole fleet: ownership moves only through enqueue
	// after the previous owner has let go (retired the call, or
	// evacuated its core on exit).
	key  coreKey
	slot int
}

// id is the client-visible request id: the Ticket's id once Submit
// assigned one, the raw scheduler id for internally built calls.
func (c *call) id() int {
	if c.clientID != 0 {
		return c.clientID
	}
	return c.req.ID
}

// deadline is the absolute virtual first-token deadline (+Inf without
// an SLO). Valid once the arrival has been stamped.
func (c *call) deadline() float64 {
	if c.ttftSLO <= 0 {
		return math.Inf(1)
	}
	return c.req.ArrivalSeconds + c.ttftSLO
}

// emit sends a streaming event without ever blocking the scheduler.
// Safe against a concurrent terminal delivery on another replica (a
// resurrected duplicate finishing first closes the stream; the late
// original's progress events must drop, not panic).
func (c *call) emit(ev Event) {
	ev.ID = c.id()
	c.evMu.Lock()
	if !c.evClosed {
		select {
		case c.events <- ev:
		default: // slow consumer: drop the progress event
		}
	}
	c.evMu.Unlock()
}

// claim wins the right to deliver the call's terminal outcome. Exactly
// one claimant succeeds per request, however many replicas raced to
// finish it — the idempotence that makes duplicated handoffs and
// resurrected duplicates harmless. The winner must complete the
// delivery with deliver; losers must touch neither the result channel
// nor any completion counter.
func (c *call) claim() bool { return c.done.CompareAndSwap(false, true) }

// deliver completes a claimed terminal outcome: it stamps the
// call-owned result fields, sends the Result (buffered, never blocks)
// and closes the event stream. Call only after winning claim.
func (c *call) deliver(res Result) {
	res.ID = c.id()
	res.Class = c.class
	res.Preempted = c.preempts
	res.Handoffs = c.handoffs
	res.Resurrected = int(c.retries.Load())
	res.WallDuration = time.Since(c.submitted)
	c.result <- res
	c.evMu.Lock()
	c.evClosed = true
	close(c.events)
	c.evMu.Unlock()
}

// finish is claim+deliver in one step, reporting whether this caller
// won the claim (and so whether the outcome should be counted).
func (c *call) finish(res Result) bool {
	if !c.claim() {
		return false
	}
	c.deliver(res)
	return true
}
