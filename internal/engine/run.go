package engine

import (
	"fmt"

	"zipserv/internal/gpu"
	"zipserv/internal/kvcache"
	"zipserv/internal/weights"
)

// Metrics summarises one serving run (a batch of identical requests),
// the quantities plotted in Figures 16 and 17.
type Metrics struct {
	Backend Backend
	Model   string
	Device  string
	NumGPUs int

	Batch     int
	PromptLen int
	OutputLen int

	// Memory plan (per GPU).
	WeightGiB     float64
	KVCapacityGiB float64
	MaxConcurrent int
	Waves         int

	// Times in seconds.
	PrefillSeconds float64
	DecodeSeconds  float64
	TotalSeconds   float64 // end-to-end request latency (all waves)

	// Throughput in output tokens per second across the whole batch.
	Throughput float64

	// Per-step decode breakdown at the final context length
	// (Figure 17's latency composition).
	StepGEMMSeconds  float64
	StepAttnSeconds  float64
	StepOtherSeconds float64
}

// Run simulates serving `batch` identical requests of promptLen input
// and outputLen output tokens. The paged KV allocator runs for real:
// if the batch does not fit in KV memory, it is served in waves — the
// capacity mechanism through which weight compression becomes
// throughput (§6.5).
func (e *Engine) Run(batch, promptLen, outputLen int) (Metrics, error) {
	if batch <= 0 || promptLen <= 0 || outputLen <= 0 {
		return Metrics{}, fmt.Errorf("engine: batch/prompt/output must be positive, got %d/%d/%d",
			batch, promptLen, outputLen)
	}
	totalLen := promptLen + outputLen
	maxConc := e.MaxConcurrent(totalLen)
	if maxConc == 0 {
		return Metrics{}, fmt.Errorf("engine: a single %d-token sequence does not fit in %.2f GiB of KV memory",
			totalLen, float64(e.plan.KVBytes)/float64(int64(1)<<30))
	}
	waves := (batch + maxConc - 1) / maxConc
	perWave := (batch + waves - 1) / waves

	mgr, err := kvcache.NewManager(kvcache.Config{
		BlockTokens: kvcache.DefaultBlockTokens,
		TotalBlocks: e.plan.Blocks,
	})
	if err != nil {
		return Metrics{}, err
	}

	var total, prefillTotal, decodeTotal float64
	remaining := batch
	for w := 0; w < waves; w++ {
		b := perWave
		if b > remaining {
			b = remaining
		}
		remaining -= b

		// Admit the wave: allocate prompt KV for every sequence.
		for s := 0; s < b; s++ {
			if err := mgr.Allocate(w*perWave+s, promptLen); err != nil {
				return Metrics{}, fmt.Errorf("engine: admission failed mid-wave: %w", err)
			}
		}
		prefill := e.PrefillTime(b, promptLen)

		// Decode: one step per output token; context grows, blocks are
		// claimed as sequences cross block boundaries.
		gemm := e.stepGEMMTime(nil, b) // context-independent, hoisted
		other := e.otherTime() + e.allReduceTime(b)
		var decode float64
		for t := 0; t < outputLen; t++ {
			ctx := promptLen + t
			decode += gemm + e.attentionTime(b, ctx) + other
			for s := 0; s < b; s++ {
				if err := mgr.AppendToken(w*perWave + s); err != nil {
					return Metrics{}, fmt.Errorf("engine: KV append failed at step %d: %w", t, err)
				}
			}
		}

		// Retire the wave.
		for s := 0; s < b; s++ {
			if err := mgr.Free(w*perWave + s); err != nil {
				return Metrics{}, err
			}
		}
		if err := mgr.CheckInvariants(); err != nil {
			return Metrics{}, fmt.Errorf("engine: allocator corrupted: %w", err)
		}

		prefillTotal += prefill
		decodeTotal += decode
		total += prefill + decode
	}

	finalCtx := promptLen + outputLen - 1
	m := Metrics{
		Backend: e.cfg.Backend, Model: e.cfg.Model.Name, Device: e.cfg.Device.Name,
		NumGPUs: e.cfg.NumGPUs,
		Batch:   batch, PromptLen: promptLen, OutputLen: outputLen,

		WeightGiB:     e.WeightGiBPerGPU(),
		KVCapacityGiB: float64(e.plan.KVBytes) / float64(int64(1)<<30),
		MaxConcurrent: maxConc,
		Waves:         waves,

		PrefillSeconds: prefillTotal,
		DecodeSeconds:  decodeTotal,
		TotalSeconds:   total,
		Throughput:     float64(batch) * float64(outputLen) / total,

		StepGEMMSeconds:  e.stepGEMMTime(nil, min(batch, perWave)),
		StepAttnSeconds:  e.attentionTime(min(batch, perWave), finalCtx),
		StepOtherSeconds: e.otherTime() + e.allReduceTime(min(batch, perWave)),
	}
	return m, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Scenario is one Figure 16 deployment: a model, its device
// configuration, and tensor-parallel degree.
type Scenario struct {
	ModelName string
	Device    string
	NumGPUs   int
}

// Figure16Scenarios returns the paper's three end-to-end deployments.
func Figure16Scenarios() []Scenario {
	return []Scenario{
		{ModelName: "LLaMA3.1-8B", Device: "RTX4090", NumGPUs: 1},
		{ModelName: "Mistral-24B", Device: "L40S", NumGPUs: 2},
		{ModelName: "LLaMA3.1-70B", Device: "L40S", NumGPUs: 4},
	}
}

// NewForScenario builds an engine for a Figure 16 scenario and
// backend.
func NewForScenario(sc Scenario, backend Backend) (*Engine, error) {
	model, err := weights.ByName(sc.ModelName)
	if err != nil {
		return nil, err
	}
	dev, err := gpu.ByName(sc.Device)
	if err != nil {
		return nil, err
	}
	return New(Config{Model: model, Device: dev, NumGPUs: sc.NumGPUs, Backend: backend})
}
