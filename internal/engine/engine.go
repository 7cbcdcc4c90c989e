// Package engine simulates end-to-end LLM serving (§6.5 of the
// ZipServ paper): transformer forward passes priced by the GPU cost
// model, a real paged KV-cache manager, capacity-driven batching,
// tensor parallelism, and the four serving stacks the paper compares —
// ZipServ, vLLM, HuggingFace Transformers, and DFloat11.
//
// The engine is a discrete simulation, not a text generator: it
// executes the scheduler and memory manager for real (allocating and
// freeing KV blocks per token) while kernel durations come from
// internal/gpu. This reproduces the paper's two coupled effects: the
// fused ZipGEMM accelerates every decode step, and the weight memory
// it frees converts into KV capacity, which lifts the concurrency
// ceiling (Figure 17).
package engine

import (
	"errors"
	"fmt"

	"zipserv/internal/codec"
	"zipserv/internal/gpu"
	"zipserv/internal/kvcache"
	"zipserv/internal/weights"
)

// Backend identifies a serving stack.
type Backend string

// The four systems of Figure 16.
const (
	BackendZipServ      Backend = "zipserv"
	BackendVLLM         Backend = "vllm"
	BackendTransformers Backend = "transformers"
	BackendDFloat11     Backend = "dfloat11"
)

// Backends lists all serving stacks in the paper's order.
func Backends() []Backend {
	return []Backend{BackendZipServ, BackendVLLM, BackendTransformers, BackendDFloat11}
}

// Config describes one serving deployment.
type Config struct {
	Model   weights.Model
	Device  gpu.Spec
	NumGPUs int // tensor-parallel degree (1 if zero)
	Backend Backend

	// Compression describes the weight codec for compressed backends
	// (ZipServ, DFloat11). Zero value = gpu.DefaultCompression().
	Compression gpu.Compression

	// ReservedGiB is per-GPU memory held back for activations, the
	// runtime and fragmentation. Zero = 3 GiB, a typical vLLM
	// gpu_memory_utilization headroom.
	ReservedGiB float64
}

// Backend-stack constants: per-layer CPU/dispatch overheads and
// attention efficiencies distinguishing the serving stacks.
const (
	// pagedOverheadPerLayer is the non-GEMM, non-attention step cost
	// per transformer layer in vLLM-class engines (norms, rotary,
	// sampling, scheduler) — Figure 17's 1.88 ms "others" at 32 layers.
	pagedOverheadPerLayer = 58e-6

	// eagerOverheadPerLayer is the same for HF Transformers: Python
	// dispatch, unfused elementwise kernels, no CUDA graphs.
	eagerOverheadPerLayer = 500e-6

	// pagedAttnEff / eagerAttnEff are achievable fractions of DRAM
	// bandwidth for the attention KV sweep.
	pagedAttnEff = 0.85
	eagerAttnEff = 0.45

	// eagerGEMMFactor inflates GEMM time under Transformers: cuBLAS
	// called without the fused epilogues and stream capture vLLM uses.
	eagerGEMMFactor = 1.45

	// prefillAttnEff is Tensor Core efficiency of the prefill
	// attention kernel (FlashAttention-class).
	prefillAttnEff = 0.55

	// dfloat11SyncPerMatrix is DFloat11's per-weight-matrix host
	// overhead: its decompressor issues several kernels (gap-array
	// build, chunk decode, scatter) with host synchronisation between
	// the expansion and the GEMM, for every matrix of every forward
	// pass. This serialisation — absent in ZipServ's single fused
	// kernel — is the largest contributor to the 8.52× end-to-end gap
	// of Figure 16.
	dfloat11SyncPerMatrix = 280e-6
)

// ErrDoesNotFit reports a deployment whose weights and reserved
// headroom leave no device memory for the KV cache; New wraps it.
var ErrDoesNotFit = errors.New("does not fit")

// Engine simulates one deployment.
type Engine struct {
	cfg  Config
	plan kvcache.Plan

	weightBytesPerGPU int64
}

// New validates the deployment and plans device memory.
func New(cfg Config) (*Engine, error) {
	if cfg.NumGPUs <= 0 {
		cfg.NumGPUs = 1
	}
	if cfg.Backend == "" {
		return nil, fmt.Errorf("engine: backend must be set")
	}
	switch cfg.Backend {
	case BackendZipServ, BackendVLLM, BackendTransformers, BackendDFloat11:
	default:
		return nil, fmt.Errorf("engine: unknown backend %q", cfg.Backend)
	}
	// vLLM's rule: every rank holds whole attention heads. Without it
	// shardedShape would price truncated shards.
	if cfg.Model.NumHeads%cfg.NumGPUs != 0 {
		return nil, fmt.Errorf("engine: tensor-parallel degree %d does not divide the %d attention heads of %s",
			cfg.NumGPUs, cfg.Model.NumHeads, cfg.Model.Name)
	}
	if cfg.Compression.Ratio == 0 {
		cfg.Compression = gpu.DefaultCompression()
	}
	if cfg.ReservedGiB == 0 {
		cfg.ReservedGiB = 3
	}

	wBytes := cfg.Model.WeightBytes() / int64(cfg.NumGPUs)
	if compressedWeights(cfg.Backend) {
		wBytes = int64(float64(wBytes) / cfg.Compression.Ratio)
	}
	vram := int64(cfg.Device.VRAMGiB * float64(int64(1)<<30))
	reserved := int64(cfg.ReservedGiB * float64(int64(1)<<30))
	kvPerTokenPerGPU := cfg.Model.KVBytesPerToken() / int64(cfg.NumGPUs)
	plan, err := kvcache.PlanCapacity(vram, wBytes, reserved, kvPerTokenPerGPU, kvcache.DefaultBlockTokens)
	if err != nil {
		return nil, fmt.Errorf("engine: %s %w on %d× %s: %w",
			cfg.Model.Name, ErrDoesNotFit, cfg.NumGPUs, cfg.Device.Name, err)
	}
	return &Engine{cfg: cfg, plan: plan, weightBytesPerGPU: wBytes}, nil
}

func compressedWeights(b Backend) bool {
	return b == BackendZipServ || b == BackendDFloat11
}

// Plan returns the engine's device-memory plan.
func (e *Engine) Plan() kvcache.Plan { return e.plan }

// WeightGiBPerGPU returns resident weight memory per GPU.
func (e *Engine) WeightGiBPerGPU() float64 {
	return float64(e.weightBytesPerGPU) / float64(int64(1)<<30)
}

// MaxConcurrent returns the number of sequences of the given total
// length (prompt+output) that fit in KV memory simultaneously.
func (e *Engine) MaxConcurrent(totalLen int) int {
	if totalLen <= 0 {
		return 0
	}
	return int(e.plan.MaxTokens) / totalLen
}

// FitsKV reports whether a request's full prompt+output KV
// reservation can ever fit the device plan. It is block-granular,
// mirroring Stepper.CanAdmit at an empty system, so every admission
// path (offline Serve validation, live Submit, Stepper.Admit and
// ImportSequence) rejects exactly the requests the scheduler could
// never admit. The lengths are tested against the plan's token
// capacity without forming their sum, which for lengths near the int
// limit would wrap negative and pass.
func (e *Engine) FitsKV(promptLen, outputLen int) bool {
	capacity := e.plan.Blocks * kvcache.DefaultBlockTokens
	return promptLen <= capacity && outputLen <= capacity-promptLen
}

// shardedShape divides a layer across tensor-parallel ranks: QKV and
// GateUp are column-parallel (M shrinks), O and Down are row-parallel
// (K shrinks), the LM head is column-parallel.
func (e *Engine) shardedShape(kind weights.LayerKind, n int) gpu.Shape {
	s := e.cfg.Model.LayerShape(kind)
	tp := e.cfg.NumGPUs
	switch kind {
	case weights.QKVProj, weights.GateUpProj, weights.LMHead:
		return gpu.Shape{M: s.M / tp, K: s.K, N: n}
	case weights.OProj, weights.DownProj:
		return gpu.Shape{M: s.M, K: s.K / tp, N: n}
	default:
		return gpu.Shape{M: s.M, K: s.K, N: n}
	}
}

// gemmTime prices one weight GEMM at token count n under the
// deployment's backend.
func (e *Engine) gemmTime(kind weights.LayerKind, n int) float64 {
	s := e.shardedShape(kind, n)
	switch e.cfg.Backend {
	case BackendVLLM:
		return gpu.CuBLAS(e.cfg.Device, s).Total
	case BackendTransformers:
		return gpu.CuBLAS(e.cfg.Device, s).Total * eagerGEMMFactor
	case BackendZipServ:
		kt, _ := gpu.StageAware(e.cfg.Device, s, e.cfg.Compression)
		return kt.Total
	case BackendDFloat11:
		// DFloat11 re-expands compressed weights through its Huffman
		// pipeline ahead of every GEMM (decoupled execution), on top
		// of a Transformers-class host stack.
		p, err := gpu.Decoupled(e.cfg.Device, s, e.cfg.Compression.Ratio, codec.NameDFloat11)
		if err != nil {
			panic(err) // unreachable: profile is registered
		}
		return p.Total*eagerGEMMFactor + dfloat11SyncPerMatrix
	default:
		panic("engine: unknown backend")
	}
}

// blockGEMMTime prices the weight GEMMs of every transformer block at
// token count n: the four block layer kinds, times the layer count.
// The explicit conversion rounds the product, so a tabled entry and a
// direct price agree bit for bit on every architecture (Go may
// otherwise fuse the multiply into the caller's add).
func (e *Engine) blockGEMMTime(n int) float64 {
	var perBlock float64
	for _, kind := range weights.BlockLayerKinds {
		perBlock += e.gemmTime(kind, n)
	}
	return float64(perBlock * float64(e.cfg.Model.NumLayers))
}

// gemmTable memoizes the two weight-GEMM terms of the cost model that
// depend on nothing but a token count: block[n] = blockGEMMTime(n) and
// head[n] = the LM head's gemmTime at n. A cell is priced on first use
// (0 = not yet priced), so a table grows only as far as the batch sizes
// and packed prefill widths its stepper meets: at most the plan's
// blocks and KV tokens. Each Stepper owns one and fills it on its
// scheduler goroutine; the exported Engine methods pass nil and price
// directly, which keeps them the oracle the table is tested against.
type gemmTable struct {
	block, head []float64
}

// cell returns tab's entry for n, growing tab to hold it.
func cell(tab *[]float64, n int) *float64 {
	if n >= len(*tab) {
		*tab = append(*tab, make([]float64, n+1-len(*tab))...)
	}
	return &(*tab)[n]
}

// blockGEMM returns blockGEMMTime(n), read from t unless t is nil.
func (e *Engine) blockGEMM(t *gemmTable, n int) float64 {
	if t == nil {
		return e.blockGEMMTime(n)
	}
	p := cell(&t.block, n)
	if *p == 0 {
		*p = e.blockGEMMTime(n)
	}
	return *p
}

// headGEMM returns the LM head's GEMM time at n tokens, read from t
// unless t is nil.
func (e *Engine) headGEMM(t *gemmTable, n int) float64 {
	if t == nil {
		return e.gemmTime(weights.LMHead, n)
	}
	p := cell(&t.head, n)
	if *p == 0 {
		*p = e.gemmTime(weights.LMHead, n)
	}
	return *p
}

// stepGEMMTime prices all weight GEMMs of one decode step (batch b):
// every block's layers plus the LM head, read from t unless t is nil.
func (e *Engine) stepGEMMTime(t *gemmTable, b int) float64 {
	return e.blockGEMM(t, b) + e.headGEMM(t, b)
}

// attentionTime prices the decode attention sweep: reading b×ctx
// token positions of KV (sharded across GPUs) at the stack's
// achievable bandwidth. A homogeneous batch is the sumCtx = b·ctx
// special case of the heterogeneous sweep.
func (e *Engine) attentionTime(b, ctx int) float64 {
	return e.attentionTimeTotal(b * ctx)
}

// attentionTimeTotal prices a decode attention sweep over a batch with
// heterogeneous context lengths (sumCtx = Σ per-sequence contexts).
func (e *Engine) attentionTimeTotal(sumCtx int) float64 {
	eff := pagedAttnEff
	if e.cfg.Backend == BackendTransformers || e.cfg.Backend == BackendDFloat11 {
		eff = eagerAttnEff
	}
	bytes := int64(sumCtx) * e.cfg.Model.KVBytesPerToken() / int64(e.cfg.NumGPUs)
	return gpu.StreamTime(e.cfg.Device, bytes, eff) +
		float64(e.cfg.Model.NumLayers)*gpu.LaunchOverhead
}

// otherTime prices the per-step framework overhead.
func (e *Engine) otherTime() float64 {
	per := pagedOverheadPerLayer
	if e.cfg.Backend == BackendTransformers || e.cfg.Backend == BackendDFloat11 {
		per = eagerOverheadPerLayer
	}
	return per * float64(e.cfg.Model.NumLayers)
}

// allReduceTime prices the two per-layer tensor-parallel reductions of
// a step processing n tokens (ring all-reduce of the hidden
// activations).
func (e *Engine) allReduceTime(n int) float64 {
	tp := e.cfg.NumGPUs
	if tp == 1 {
		return 0
	}
	bytes := float64(n) * float64(e.cfg.Model.HiddenDim) * 2
	ring := 2 * float64(tp-1) / float64(tp) * bytes / (e.cfg.Device.InterconnectGBps() * 1e9)
	return 2 * ring * float64(e.cfg.Model.NumLayers)
}

// BatchDecodeStepTime prices one decode step over a heterogeneous
// running batch: b sequences whose context lengths sum to sumCtx. It
// prices directly, every GEMM through the kernel model on every call;
// a Stepper prices its steps by the same formula with its weight-GEMM
// terms read from a table, and this method is the oracle that table is
// checked against.
func (e *Engine) BatchDecodeStepTime(b, sumCtx int) float64 {
	return e.batchDecodeStepTime(nil, b, sumCtx)
}

// batchDecodeStepTime is BatchDecodeStepTime with the weight-GEMM
// terms read from t (nil prices them directly).
func (e *Engine) batchDecodeStepTime(t *gemmTable, b, sumCtx int) float64 {
	return e.stepGEMMTime(t, b) + e.attentionTimeTotal(sumCtx) + e.otherTime() + e.allReduceTime(b)
}

// PrefillChunk describes the slice of one prompt processed in a single
// chunked-prefill iteration: Tokens prompt positions starting at offset
// Start (the tokens prefilled by earlier chunks). Final marks the chunk
// that completes the prompt, after which the sequence samples its first
// output token and joins the decode batch.
type PrefillChunk struct {
	Start  int
	Tokens int
	Final  bool
}

// ChunkedPrefillTime prices one token-packed prefill iteration over a
// set of prompt chunks (Sarathi-style chunked prefill). The GEMMs see
// the true total chunk token count; the attention kernel prices each
// chunk as its slice of the prompt's quadratic attention under the
// same full-square convention PackedPrefillTime uses — the difference
// of squares (Start+Tokens)² − Start², i.e. Tokens·(2·Start+Tokens) —
// so a prompt's chunks telescope to exactly the monolithic p²
// attention work and splitting never prices below it (per-iteration
// overheads make it strictly dearer). The LM head runs only for Final
// chunks — only completing sequences sample a token. A whole prompt
// processed as one chunk degenerates to PackedPrefillTime exactly.
// Like BatchDecodeStepTime it prices directly and is the oracle for a
// Stepper's tabled prices.
func (e *Engine) ChunkedPrefillTime(chunks []PrefillChunk) float64 {
	return e.chunkedPrefillTime(nil, chunks)
}

// chunkedPrefillTime is ChunkedPrefillTime with the weight-GEMM terms
// read from t (nil prices them directly).
func (e *Engine) chunkedPrefillTime(t *gemmTable, chunks []PrefillChunk) float64 {
	if len(chunks) == 0 {
		return 0
	}
	n, finals := 0, 0
	for _, c := range chunks {
		n += c.Tokens
		if c.Final {
			finals++
		}
	}
	gemm := e.blockGEMM(t, n)
	if finals > 0 {
		gemm += e.headGEMM(t, finals)
	}

	m := &e.cfg.Model
	var attnFLOPs float64
	for _, c := range chunks {
		attnFLOPs += 4 * float64(c.Tokens) * float64(2*c.Start+c.Tokens) * float64(m.HiddenDim) * float64(m.NumLayers)
	}
	attn := attnFLOPs / (e.cfg.Device.BF16TFLOPS * 1e12 * prefillAttnEff) / float64(e.cfg.NumGPUs)

	return gemm + attn + e.otherTime() + e.allReduceTime(n)
}

// KVDecompressTime prices restoring the given number of cold
// prefix-cache blocks from compressed form into physical KV blocks:
// each block holds DefaultBlockTokens tokens of per-GPU KV content,
// expanded by the TCA-TBE decompressor at the weight codec's measured
// ratio. The stepper charges this on the prefill iteration that claims
// the frozen blocks, so TTFT and InvertCost see the real price of the
// compressed cache's extra capacity.
func (e *Engine) KVDecompressTime(blocks int) float64 {
	if blocks <= 0 {
		return 0
	}
	bytes := int64(blocks) * int64(kvcache.DefaultBlockTokens) * e.cfg.Model.KVBytesPerToken() / int64(e.cfg.NumGPUs)
	return gpu.KVDecompressTime(e.cfg.Device, bytes, e.cfg.Compression.Ratio)
}

// PackedPrefillTime prices a token-packed (varlen, padding-free)
// prefill over prompts of the given lengths: the GEMMs see the true
// total token count and the attention kernel the true per-sequence
// quadratic work, the way a FlashAttention varlen kernel batches
// ragged prompts — the whole-prompt special case of ChunkedPrefillTime.
// Contrast PrefillTime, which pads every prompt in the batch to the
// longest one (request-level static batching).
func (e *Engine) PackedPrefillTime(prompts []int) float64 {
	chunks := make([]PrefillChunk, len(prompts))
	for i, p := range prompts {
		chunks[i] = PrefillChunk{Start: 0, Tokens: p, Final: true}
	}
	return e.ChunkedPrefillTime(chunks)
}

// PrefillTime returns the time to process prompts of length p for b
// sequences: the uniform-length special case of PackedPrefillTime,
// which is what a padded prefill batch degenerates to once every
// prompt has been padded to the longest one.
func (e *Engine) PrefillTime(b, p int) float64 {
	prompts := make([]int, b)
	for i := range prompts {
		prompts[i] = p
	}
	return e.PackedPrefillTime(prompts)
}
