// Package zipserv is a pure-Go implementation of the ZipServ system
// (Fan et al., ASPLOS 2026): fast, memory-efficient, bit-exact LLM
// inference through hardware-aware lossless compression.
//
// The package exposes five layers, mirroring the paper:
//
//   - BF16 numerics and matrices (the weight substrate, §2.2);
//   - the TCA-TBE lossless codec — Compress/Decompress — with
//     constant-time, branch-free, popcount-addressed decoding (§4.2);
//   - GEMM kernels: the dense Reference, the fused ZipGEMM that
//     computes directly on compressed weights, and the decoupled
//     baseline pipeline (§4.3);
//   - lossless baseline codecs (DFloat11-style Huffman,
//     DietGPU/nvCOMP-style rANS) behind one Codec interface (§6.1);
//   - a serving simulator: GPU cost models for the paper's five
//     evaluation devices, a paged KV cache, and end-to-end engines for
//     the four serving stacks of §6.5;
//   - a live serving layer: a goroutine-based continuous-batching
//     scheduler (NewLiveServer) with bounded-queue admission control,
//     token-packed prefill, per-request streaming metrics (TTFT, TPOT,
//     queue wait) and aggregate goodput, exposed over HTTP by
//     cmd/zipserv-server as POST /v1/generate (429 on queue overflow,
//     NDJSON streaming) and GET /v1/stats;
//   - scheduling policies and sharded routing on top of it: admission
//     order is a LivePolicy ("fifo" by default, "priority" for
//     starvation-free interactive-before-batch classes, "slo" for
//     earliest-TTFT-deadline-first with preempt-and-requeue), and the
//     HTTP layer binds to a LiveBackend — either one server or a
//     LiveRouter sharding requests across N replicas by queue depth
//     and free KV blocks, with failover when a replica is full or
//     stopped.
//
// The live scheduler runs one engine loop goroutine per replica that,
// each iteration, admits queued requests in policy order against the
// paged KV-cache plan (conservative prompt+output reservation, so no
// sequence fails mid-flight — and so a preempted victim returns every
// block it held), prefills newcomers as one padding-free packed batch,
// runs one decode step over the whole running batch, and evicts
// finished sequences so their blocks fund the next admissions. The
// offline Serve trace replay drives the same state machine
// (engine.Stepper) with request-level padded prefill, which makes it
// the static-batch baseline the live loop is benchmarked against.
//
// Prefill is chunkable (Sarathi-style): LiveConfig.PrefillChunkTokens
// caps the prompt tokens mixed into each iteration, carrying partially
// prefilled sequences across iterations so one long prompt can never
// stall the decode batch's token cadence (TPOT); outputs are identical
// to monolithic prefill, only timing changes, and the worst
// inter-token stall appears in LiveStats.MaxDecodeGap. For sparse
// real-time traffic, LiveConfig.AdmissionWindow holds an idle
// scheduler's first arrival briefly so wall-clock bursts prefill as
// one batch, and LiveConfig.TimeScale paces the loop against the wall
// clock so live arrivals interleave with scheduling the way trace
// replays do.
//
// With LiveConfig.PrefixCache, prompt KV blocks are content-addressed
// and reference-counted (RadixAttention-style): requests carrying
// prompt token ids (LiveRequest.Prompt) that share a prompt prefix
// claim each other's blocks by reference instead of re-prefilling
// them, with copy-on-write protecting shared content and LRU eviction
// reclaiming refcount-zero cached blocks under pressure. Per-request
// reuse appears as LiveResult.CachedTokens and fleet-wide as
// LiveStats.PrefixHits / PrefixTokensSaved; outputs are byte-identical
// to cache-off, only TTFT and KV pressure improve. See
// docs/prefix-caching.md.
//
// LiveConfig.CompressedCache layers the paper's codec under that
// cache: a cached block whose last reference drops is frozen — it
// stays on its prefix-trie node, accounted at its TCA-TBE encoded
// size, and its physical block is freed — while the content stays
// claimable: a later matching prompt thaws it bit-exactly into a fresh
// block, paying a decompress price the cost model charges into that
// prefill (LiveStats.DecompressClaims,
// CompressedKVBlocks, KVCompressionRatio). Cold prefix content then
// survives capacity pressure that would evict parked blocks. See
// docs/compressed-kv.md.
//
// Both knobs also close their loops adaptively: with
// LiveConfig.AdaptiveChunking the chunk budget is re-derived every
// iteration from the decode batch's step-time target
// (LiveConfig.TargetStepTime, the TPOT SLO) by inverting the engine
// cost model, and with LiveConfig.AdaptivePrefixCache the warm-pool
// bound follows observed hit rates and KV pressure instead of a static
// block count. The controllers' live operating points surface in
// LiveStats (ChunkBudget, StepTimeEWMA, CachePoolTarget and the
// controller EWMAs). See docs/adaptive-scheduling.md.
//
// Quick start:
//
//	w := zipserv.GaussianWeights(4096, 4096, 0.02, 1)
//	cw, _ := zipserv.Compress(w)               // lossless, ~1.4×
//	y, _ := zipserv.ZipGEMM(cw, activations)   // never decompresses W
//	back, _ := zipserv.Decompress(cw)          // bit-exact
//
// All results are bit-exact: ZipGEMM output equals dense GEMM on the
// original weights, bit for bit.
package zipserv

import (
	"io"

	"zipserv/internal/bf16"
	"zipserv/internal/checkpoint"
	"zipserv/internal/codec"
	"zipserv/internal/core"
	"zipserv/internal/engine"
	"zipserv/internal/gpu"
	"zipserv/internal/kvcache"
	"zipserv/internal/quant"
	"zipserv/internal/serve"
	"zipserv/internal/stats"
	"zipserv/internal/warp"
	"zipserv/internal/weights"
	"zipserv/internal/zipgemm"
)

// ---- BF16 numerics ----

// BF16 is a bfloat16 value (1 sign, 8 exponent, 7 mantissa bits).
type BF16 = bf16.BF16

// Matrix is a dense row-major BF16 matrix.
type Matrix = bf16.Matrix

// NewMatrix allocates a zeroed rows×cols BF16 matrix.
func NewMatrix(rows, cols int) *Matrix { return bf16.NewMatrix(rows, cols) }

// FromFloat32 converts with round-to-nearest-even.
func FromFloat32(f float32) BF16 { return bf16.FromFloat32(f) }

// GaussianWeights generates LLM-like N(0, σ²) BF16 weights with a
// deterministic seed (the Appendix-A weight model).
func GaussianWeights(rows, cols int, sigma float64, seed int64) *Matrix {
	return weights.Gaussian(rows, cols, sigma, seed)
}

// ---- TCA-TBE codec (the paper's core contribution) ----

// Compressed is a weight matrix in Tensor-Core-Aware Triple Bitmap
// Encoding.
type Compressed = core.Compressed

// CompressOptions configures the TCA-TBE compressor.
type CompressOptions = core.Options

// Compress encodes a BF16 matrix losslessly with the paper's default
// configuration (3-bit codewords over a contiguous 7-exponent window).
func Compress(m *Matrix) (*Compressed, error) { return core.Compress(m) }

// CompressWithOptions encodes with explicit codec options (codeword
// length 2–4, window vs top-frequency selection).
func CompressWithOptions(m *Matrix, opts CompressOptions) (*Compressed, error) {
	return core.CompressWithOptions(m, opts)
}

// Decompress reconstructs the original matrix bit-for-bit.
func Decompress(c *Compressed) (*Matrix, error) { return core.Decompress(c) }

// WriteCompressed serialises a compressed matrix (with CRC trailer).
func WriteCompressed(w io.Writer, c *Compressed) error {
	_, err := c.WriteTo(w)
	return err
}

// ReadCompressed deserialises and validates a compressed matrix.
func ReadCompressed(r io.Reader) (*Compressed, error) {
	var c Compressed
	if _, err := c.ReadFrom(r); err != nil {
		return nil, err
	}
	return &c, nil
}

// ---- GEMM kernels ----

// Result is an FP32 GEMM output.
type Result = zipgemm.Result

// GEMM computes Y = W·X densely (the cuBLAS-equivalent reference).
func GEMM(w, x *Matrix) (*Result, error) { return zipgemm.Reference(w, x) }

// ZipGEMM computes Y = W·X directly from the compressed weights —
// "load compressed, compute decompressed" (§4.3). The result is
// bit-identical to GEMM on the original matrix.
func ZipGEMM(cw *Compressed, x *Matrix) (*Result, error) { return zipgemm.Fused(cw, x) }

// DecoupledGEMM runs the baseline pipeline: decompress a codec blob
// fully, then run the dense GEMM (§3.3, Figure 4).
func DecoupledGEMM(blob Blob, x *Matrix) (*Result, error) { return zipgemm.Decoupled(blob, x) }

// ---- Codec registry (baselines of §6.1) ----

// Codec is a lossless BF16 weight codec.
type Codec = codec.Codec

// Blob is a compressed weight matrix produced by any Codec.
type Blob = codec.Blob

// Codec names available in the registry.
const (
	CodecZipServ  = codec.NameZipServ
	CodecDFloat11 = codec.NameDFloat11
	CodecDietGPU  = codec.NameDietGPU
	CodecNvComp   = codec.NameNvComp
)

// NewCodec returns a codec by name (CodecZipServ, CodecDFloat11,
// CodecDietGPU, CodecNvComp).
func NewCodec(name string) (Codec, error) { return codec.New(name) }

// CodecNames lists registered codecs.
func CodecNames() []string { return codec.Names() }

// ---- Analysis ----

// ExponentHistogram tallies the BF16 exponent field of a matrix
// (§3.1).
type ExponentHistogram = stats.Histogram

// AnalyzeExponents computes the exponent histogram of m.
func AnalyzeExponents(m *Matrix) ExponentHistogram { return stats.ExponentHistogram(m) }

// ---- Hardware model and serving ----

// GPUSpec describes a modelled accelerator.
type GPUSpec = gpu.Spec

// GPUByName returns the spec of a modelled device (RTX4090, L40S,
// RTX5090, A100, H800, AMX-SPR, MI300X).
func GPUByName(name string) (GPUSpec, error) { return gpu.ByName(name) }

// Model describes an LLM architecture from the §6.1 zoo.
type Model = weights.Model

// ModelByName returns a zoo model (e.g. "LLaMA3.1-8B").
func ModelByName(name string) (Model, error) { return weights.ByName(name) }

// Models returns the full eleven-model zoo.
func Models() []Model { return weights.Zoo() }

// ServingBackend identifies a serving stack (ZipServ, vLLM,
// Transformers, DFloat11).
type ServingBackend = engine.Backend

// Serving backends of Figure 16.
const (
	ServeZipServ      = engine.BackendZipServ
	ServeVLLM         = engine.BackendVLLM
	ServeTransformers = engine.BackendTransformers
	ServeDFloat11     = engine.BackendDFloat11
)

// ServingConfig configures an end-to-end serving simulation.
type ServingConfig = engine.Config

// ServingMetrics reports one serving run.
type ServingMetrics = engine.Metrics

// Engine simulates end-to-end LLM serving (§6.5).
type Engine = engine.Engine

// NewEngine builds a serving engine.
func NewEngine(cfg ServingConfig) (*Engine, error) { return engine.New(cfg) }

// ErrEngineDoesNotFit is wrapped by NewEngine's error for a deployment
// that leaves no device memory for the KV cache.
var ErrEngineDoesNotFit = engine.ErrDoesNotFit

// ---- Paged KV cache ----

// KVManager is a paged KV-cache allocator (PagedAttention-style).
type KVManager = kvcache.Manager

// KVConfig sizes a KV cache.
type KVConfig = kvcache.Config

// NewKVManager builds a paged KV-cache manager.
func NewKVManager(cfg KVConfig) (*KVManager, error) { return kvcache.NewManager(cfg) }

// CompressedKVStore holds KV blocks in TCA-TBE form (§7 extension).
type CompressedKVStore = kvcache.CompressedStore

// NewCompressedKVStore returns an empty compressed KV store.
func NewCompressedKVStore() *CompressedKVStore { return kvcache.NewCompressedStore() }

// ---- Checkpoints (§7 extension: model checkpointing) ----

// CheckpointWriter assembles a multi-tensor compressed checkpoint.
type CheckpointWriter = checkpoint.Writer

// Checkpoint is a loaded checkpoint with lazy per-tensor access.
type Checkpoint = checkpoint.Checkpoint

// CheckpointStats reports a checkpoint write.
type CheckpointStats = checkpoint.Stats

// NewCheckpointWriter returns an empty checkpoint writer.
func NewCheckpointWriter() *CheckpointWriter { return checkpoint.NewWriter() }

// ReadCheckpoint parses a checkpoint stream (tensors stay compressed
// until requested).
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) { return checkpoint.Read(r) }

// ---- Continuous batching (trace-driven serving) ----

// ServeRequest is one request in a serving trace.
type ServeRequest = engine.Request

// ServeTraceStats aggregates a continuous-batching run.
type ServeTraceStats = engine.TraceStats

// RequestMetrics reports per-request TTFT and latency.
type RequestMetrics = engine.RequestMetrics

// SyntheticTrace generates a deterministic Poisson-arrival trace.
func SyntheticTrace(n int, ratePerSec float64, meanPrompt, meanOutput int, seed int64) []ServeRequest {
	return engine.SyntheticTrace(n, ratePerSec, meanPrompt, meanOutput, seed)
}

// ---- Live continuous-batching serving ----

// LiveServer is the live continuous-batching scheduler: requests enter
// a bounded admission queue and are batched at iteration granularity
// against the KV-cache plan.
type LiveServer = serve.Server

// LiveConfig configures a live server.
type LiveConfig = serve.Config

// LiveRequest is one live generation request.
type LiveRequest = serve.Request

// LiveTicket tracks an accepted live request (streaming events and the
// final result).
type LiveTicket = serve.Ticket

// LiveResult is the final per-request record (TTFT, TPOT, queue wait,
// latency).
type LiveResult = serve.Result

// LiveStats is an aggregate snapshot of the live scheduler.
type LiveStats = serve.Stats

// Live submission errors.
var (
	ErrLiveQueueFull = serve.ErrQueueFull
	ErrLiveStopped   = serve.ErrStopped
	ErrLiveNeverFits = serve.ErrNeverFits
)

// NewLiveServer builds a live continuous-batching server over an
// engine. Call Start to launch the scheduler goroutine and Stop for a
// graceful drain.
func NewLiveServer(cfg LiveConfig) (*LiveServer, error) { return serve.New(cfg) }

// ---- Scheduling policies and sharded routing ----

// LivePolicy orders admission in the live scheduler and selects
// preemption victims: who runs next. The set is closed — FIFO
// (default), priority (interactive before batch, starvation-free via
// aging) and slo (earliest-TTFT-deadline-first with
// preempt-and-requeue) — built with LivePolicyByName.
type LivePolicy = serve.Policy

// LiveClass is a request priority class for the priority policy.
type LiveClass = serve.Class

// The two request classes: latency-bound interactive traffic and
// throughput-bound batch traffic.
const (
	LiveClassInteractive = serve.ClassInteractive
	LiveClassBatch       = serve.ClassBatch
)

// LivePolicyByName returns a built-in policy: "fifo", "priority" or
// "slo".
func LivePolicyByName(name string) (LivePolicy, error) { return serve.PolicyByName(name) }

// LivePolicyNames lists the built-in admission policies.
func LivePolicyNames() []string { return serve.PolicyNames() }

// LiveBackend is the serving surface the HTTP layer binds to — one
// live server or a sharded router of replicas: where requests run,
// behind one stable interface.
type LiveBackend = serve.Backend

// LiveRouter shards live traffic across N replica backends with
// capacity-aware least-loaded dispatch (queue depth and free KV blocks
// from each replica's stats snapshot) and failover when a replica is
// full or stopped.
type LiveRouter = serve.Router

// NewLiveRouter builds a router over the given servers (at least one).
// A router is itself a LiveBackend, so the HTTP layer serves one server
// and a fleet alike, but it routes servers only: a router replica is an
// error.
func NewLiveRouter(replicas ...LiveBackend) (*LiveRouter, error) {
	return serve.NewRouter(replicas...)
}

// ReplayLive runs reqs through b — an unstarted LiveServer, or a
// LiveRouter over unstarted servers — on the calling goroutine in
// virtual time, wave requests at a time (all at once when wave <= 0),
// and returns one LiveResult per request, in order, leaving the fleet
// stopped. The same backend, trace and fault plan replay
// byte-identically on any GOMAXPROCS; AdmissionWindow and TimeScale act
// only on a started backend.
func ReplayLive(b LiveBackend, reqs []LiveRequest, wave int) ([]LiveResult, error) {
	return serve.Replay(b, reqs, wave)
}

// LiveAffinityConfig tunes a router's prefix-affinity dispatch
// (LiveRouter.EnableAffinity): requests steer toward the replica whose
// prefix-trie digest best overlaps their prompt tokens, spilling to
// least-loaded outside a bounded load band. The zero value selects
// defaults for every knob. See docs/routing.md.
type LiveAffinityConfig = serve.AffinityConfig

// LivePrefixSummary is the compact prefix-trie digest a replica
// publishes in its stats (LiveStats.PrefixSummary) for affinity
// routing: exact first-block fingerprints plus a bloom filter over the
// deeper trie.
type LivePrefixSummary = kvcache.PrefixSummary

// LiveArrivalNow marks a LiveRequest as arriving at the scheduler's
// current virtual clock — the natural arrival for interactively
// submitted live traffic.
const LiveArrivalNow = serve.ArrivalNow

// LivePool assigns a replica to a disaggregated serving tier
// (LiveConfig.Pool): "prefill" replicas run prompts to their first
// token and hand the sequence off, "decode" replicas continue the
// decodes, "mixed" (or empty) serves co-located.
type LivePool = serve.PoolRole

// The disaggregation pool roles.
const (
	LivePoolPrefill = serve.PoolPrefill
	LivePoolDecode  = serve.PoolDecode
	LivePoolMixed   = serve.PoolMixed
)

// NewPooledLiveRouter builds a disaggregated prefill/decode router over
// pool-labelled live servers: every prompt runs to its first token on a
// prefill replica, then the mid-generation sequence — its KV compressed
// through the TCA-TBE codec — moves to the least-loaded decode replica,
// which verifies it bit-exactly (deduplicating prompt blocks its prefix
// trie already holds) and decodes it to completion. Handoffs fail over
// to another decode replica or back to co-located serving, and
// submissions spill to the decode replicas when every prefill replica
// is unavailable. See docs/disaggregation.md.
func NewPooledLiveRouter(servers ...*LiveServer) (*LiveRouter, error) {
	return serve.NewPooledRouter(servers...)
}

// ---- Fault injection and health-aware routing ----

// LiveFaultPlan is a deterministic fault-injection script: scripted
// crashes, hangs, slowdowns, codec failures, handoff drops and stats
// staleness, addressed to replicas by fleet index and triggered by each
// replica's own virtual clock, so a chaos run replays bit-identically.
// Project it per replica with Replica(i) into LiveConfig.Faults. See
// docs/robustness.md for the plan DSL.
type LiveFaultPlan = serve.FaultPlan

// LiveFaultEvent is one scripted failure in a LiveFaultPlan.
type LiveFaultEvent = serve.FaultEvent

// LiveReplicaFaults is one replica's runtime projection of a fault
// plan (LiveConfig.Faults). Never share one between servers.
type LiveReplicaFaults = serve.ReplicaFaults

// ParseLiveFaultPlan parses the fault-plan DSL (one directive per
// line: `crash replica=1 at=0.5`, `slow replica=0 at=0 factor=8`, …).
func ParseLiveFaultPlan(text string) (*LiveFaultPlan, error) {
	return serve.ParseFaultPlan(text)
}

// RandomLiveFaultPlan generates a deterministic chaos plan from a seed
// for an n-replica fleet with fault triggers inside [0, horizon).
func RandomLiveFaultPlan(seed int64, n int, horizon float64) *LiveFaultPlan {
	return serve.RandomFaultPlan(seed, n, horizon)
}

// LiveHealthConfig tunes a router's health state machine and retry
// policy (LiveRouter.EnableHealth): per-replica breakers eject failing
// replicas from dispatch, half-open probes re-admit them, and requests
// lost to replica deaths resurrect elsewhere under a bounded retry
// budget. The zero value selects defaults. See docs/robustness.md.
type LiveHealthConfig = serve.HealthConfig

// ErrLiveRetriesExhausted is delivered to a request whose resurrection
// retry budget ran out before any replica could complete it.
var ErrLiveRetriesExhausted = serve.ErrRetriesExhausted

// ---- Warp-level divergence analysis (§3.2) ----

// WarpReport summarises a lockstep warp execution.
type WarpReport = warp.Report

// SimulateTBEDecodeWarp runs the TCA-TBE decoder for one FragTile on a
// simulated 32-lane warp (divergence-free by construction).
func SimulateTBEDecodeWarp(cm *Compressed, frag int) (WarpReport, error) {
	return warp.SimulateTBEDecode(cm, frag)
}

// ---- Quantization composition (§7: orthogonal to lossy methods) ----

// QuantizedMatrix is a per-row symmetric int8 quantization of BF16
// weights (the W8A16 regime).
type QuantizedMatrix = quant.Matrix

// QuantizedCompressed is a quantized matrix whose int8 stream has been
// losslessly entropy coded on top (no additional error).
type QuantizedCompressed = quant.Compressed

// Quantize converts BF16 weights to per-row int8 (lossy, bounded
// error).
func Quantize(m *Matrix) (*QuantizedMatrix, error) { return quant.Quantize(m) }

// CompressQuantized losslessly compresses the int8 stream of a
// quantized matrix, exploiting its residual redundancy.
func CompressQuantized(q *QuantizedMatrix) (*QuantizedCompressed, error) {
	return quant.CompressQuantized(q)
}
