package gpu

import (
	"fmt"
	"math"

	"zipserv/internal/codec"
	"zipserv/internal/core"
)

// Shape is a GEMM problem Y_{M×N} = W_{M×K} · X_{K×N}: M the output
// dimension, K the hidden (reduction) dimension, N the token count
// (batch × sequence positions being processed).
type Shape struct{ M, K, N int }

// FLOPs returns 2·M·K·N.
func (s Shape) FLOPs() int64 { return 2 * int64(s.M) * int64(s.K) * int64(s.N) }

// WeightBytes returns the dense BF16 weight footprint 2·M·K.
func (s Shape) WeightBytes() int64 { return 2 * int64(s.M) * int64(s.K) }

// ActivationBytes returns the BF16 input activations 2·K·N.
func (s Shape) ActivationBytes() int64 { return 2 * int64(s.K) * int64(s.N) }

// OutputBytes returns the BF16 output 2·M·N.
func (s Shape) OutputBytes() int64 { return 2 * int64(s.M) * int64(s.N) }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.M, s.K, s.N) }

// Compression summarises a TCA-TBE encoding for the cost model.
type Compression struct {
	// Ratio is uncompressed/compressed bytes (≈1.42 on LLM weights).
	Ratio float64
	// Coverage is the in-window fraction r_n (≈0.96).
	Coverage float64
	// CodewordBits is the bit-plane count n (3 by default).
	CodewordBits int
}

// DefaultCompression returns the measured characteristics of TCA-TBE
// on Gaussian LLM weights (matches §3.1/§6.5: ~71% of dense size).
func DefaultCompression() Compression {
	return Compression{Ratio: 1.42, Coverage: 0.96, CodewordBits: 3}
}

// CompressedWeightBytes returns the TCA-TBE weight footprint.
func (c Compression) CompressedWeightBytes(s Shape) int64 {
	return int64(float64(s.WeightBytes()) / c.Ratio)
}

// Model calibration constants. They are derived from the paper's
// measured anchors, not free parameters: see the package comment and
// the figure tests.
const (
	// LaunchOverhead is per-kernel launch + synchronisation cost.
	LaunchOverhead = 5e-6

	// effMemCuBLAS is cuBLAS's achievable fraction of peak DRAM
	// bandwidth on skinny decode-stage GEMMs.
	effMemCuBLAS = 0.78

	// effTCCuBLAS is cuBLAS's achievable fraction of peak Tensor Core
	// throughput on large GEMMs.
	effTCCuBLAS = 0.85

	// effMemZip is ZipGEMM's DRAM efficiency: asynchronous 128-bit
	// LDGSTS copies plus the conflict-free TCA-TBE layout (§4.3.1,
	// Figure 12c).
	effMemZip = 0.90

	// effTCZip is ZipGEMM's Tensor Core efficiency: 71.6% of the
	// cuBLAS baseline (Figure 12b), because mma slots interleave with
	// decode ALU work.
	effTCZip = effTCCuBLAS * 0.716

	// effMemLossy is the efficiency of the Marlin-class lossy kernel
	// used in the §7 comparison.
	effMemLossy = 0.92

	// cuBLAS tiling parameters (well-tuned library: 128×128 CTAs with
	// aggressive split-K on skinny shapes).
	cuBlockM, cuBlockN, cuSplitKChunk = 128, 128, 1024

	// ZipGEMM tiling: 64-row BlockTiles, no N tiling below 64, and the
	// fixed 4096-column split-K granularity whose tuning §6.1 leaves
	// to future work (the source of the O_proj slowdown).
	zipBlockM, zipBlockN, zipSplitKChunk = 64, 64, 4096
)

// KernelTime decomposes one kernel execution.
type KernelTime struct {
	Total float64 // seconds, = max(resource streams) + launch

	Mem float64 // DRAM stream time
	ALU float64 // integer-pipe decode time (fused kernels only)
	TC  float64 // Tensor Core stream time

	Bound     string // "memory", "alu" or "compute"
	BytesRead int64  // DRAM read traffic
	ParEff    float64
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// parallelEff returns the fraction of peak a kernel can sustain given
// its thread-block count relative to the SM count: with fewer blocks
// than SMs the device cannot keep enough memory requests in flight,
// which is how small layers (O_proj) lose (§6.1, Figure 11c).
func parallelEff(blocks, sms int) float64 {
	if blocks >= sms {
		return 1
	}
	return float64(blocks) / float64(sms)
}

func boundOf(mem, alu, tc float64) string {
	switch {
	case mem >= alu && mem >= tc:
		return "memory"
	case alu >= tc:
		return "alu"
	default:
		return "compute"
	}
}

// CuBLAS prices the dense BF16 Tensor Core GEMM (the cuBLAS_TC
// baseline of §6.1).
func CuBLAS(spec Spec, s Shape) KernelTime {
	blocks := ceilDiv(s.M, cuBlockM) * ceilDiv(s.N, cuBlockN)
	if blocks < spec.SMs {
		// Library-grade split-K recovers parallelism on skinny shapes.
		blocks *= ceilDiv(s.K, cuSplitKChunk)
	}
	par := parallelEff(blocks, spec.SMs)

	bytes := s.WeightBytes() + s.ActivationBytes() + s.OutputBytes()
	mem := float64(bytes) / (spec.MemBWGBps * 1e9 * effMemCuBLAS * par)
	tc := float64(s.FLOPs()) / (spec.BF16TFLOPS * 1e12 * effTCCuBLAS)
	total := math.Max(mem, tc) + LaunchOverhead
	return KernelTime{
		Total: total, Mem: mem, TC: tc,
		Bound: boundOf(mem, 0, tc), BytesRead: s.WeightBytes() + s.ActivationBytes(),
		ParEff: par,
	}
}

// ZipGEMM prices the fused decompression-GEMM kernel (§4.3): the DRAM
// stream carries compressed weights, the integer pipe carries the
// TCA-TBE decode, and the two-level software pipeline (§4.3.3)
// overlaps both with Tensor Core math, so wall time is the max of the
// three streams.
func ZipGEMM(spec Spec, s Shape, comp Compression) KernelTime {
	return zipGEMMWithChunk(spec, s, comp, zipSplitKChunk)
}

// zipGEMMWithChunk prices the fused kernel with an explicit split-K
// chunk size. Splitting K across blocks raises parallelism but the
// partial results must be reduced through global memory: each extra
// split writes and re-reads an M×N FP32 partial sum.
func zipGEMMWithChunk(spec Spec, s Shape, comp Compression, kChunk int) KernelTime {
	splits := ceilDiv(s.K, kChunk)
	blocks := ceilDiv(s.M, zipBlockM) * ceilDiv(s.N, zipBlockN) * splits
	par := parallelEff(blocks, spec.SMs)

	reduction := int64(0)
	if splits > 1 {
		reduction = 2 * int64(splits-1) * 4 * int64(s.M) * int64(s.N) // write + read FP32 partials
	}
	bytes := comp.CompressedWeightBytes(s) + s.ActivationBytes() + s.OutputBytes() + reduction
	mem := float64(bytes) / (spec.MemBWGBps * 1e9 * effMemZip * par)

	decodeOps := float64(int64(s.M)*int64(s.K)) * core.DecodeALUOpsPerElement(comp.CodewordBits, comp.Coverage)
	alu := decodeOps / (spec.ALUOpsPerSec() * par)

	tc := float64(s.FLOPs()) / (spec.BF16TFLOPS * 1e12 * effTCZip)
	total := math.Max(mem, math.Max(alu, tc)) + LaunchOverhead
	if splits > 1 {
		total += LaunchOverhead // the reduction kernel
	}
	return KernelTime{
		Total: total, Mem: mem, ALU: alu, TC: tc,
		Bound: boundOf(mem, alu, tc), BytesRead: comp.CompressedWeightBytes(s) + s.ActivationBytes() + reduction/2,
		ParEff: par,
	}
}

// ZipGEMMTuned implements the per-shape split-K tuning the paper
// leaves as future work ("small layers require fine-grained parameter
// tuning (e.g., split-K configurations)", §6.1): it searches chunk
// sizes and returns the best kernel time with the chosen chunk. On
// starved shapes like O_proj this recovers most of the slowdown; on
// saturated shapes it leaves the default untouched.
func ZipGEMMTuned(spec Spec, s Shape, comp Compression) (KernelTime, int) {
	bestChunk := zipSplitKChunk
	best := zipGEMMWithChunk(spec, s, comp, bestChunk)
	for _, chunk := range []int{512, 1024, 2048} {
		if chunk >= s.K {
			continue
		}
		kt := zipGEMMWithChunk(spec, s, comp, chunk)
		if kt.Total < best.Total {
			best, bestChunk = kt, chunk
		}
	}
	return best, bestChunk
}

// codecProfile captures each decompression pipeline's measured
// characteristics (§3.2, §6.2): achievable fraction of peak bandwidth,
// a traffic multiplier for per-chunk metadata/state reloads, and
// shared-memory bank conflicts per element (Figure 12c).
type codecProfile struct {
	bwEff            float64
	trafficFactor    float64
	conflictsPerElem float64
	kernelLaunches   int
}

var codecProfiles = map[string]codecProfile{
	// DietGPU: warp-interleaved rANS; heavy divergence, 43.7% of peak.
	codec.NameDietGPU: {bwEff: 0.437, trafficFactor: 1.115, conflictsPerElem: 0.030, kernelLaunches: 2},
	// nvCOMP: generic rANS with manifest parsing between kernels.
	codec.NameNvComp: {bwEff: 0.49, trafficFactor: 1.07, conflictsPerElem: 0.020, kernelLaunches: 3},
	// DFloat11: hierarchical-LUT Huffman, 76.5% of peak.
	codec.NameDFloat11: {bwEff: 0.765, trafficFactor: 1.0, conflictsPerElem: 0.004, kernelLaunches: 2},
	// ZipServ-Decomp: the standalone TCA-TBE expander (§6.2).
	codec.NameZipServ: {bwEff: 0.84, trafficFactor: 1.0, conflictsPerElem: 4e-5, kernelLaunches: 1},
}

// DecompressTime prices a standalone decompression of origBytes of
// weights compressed at the given ratio (Figures 1 and 13): the kernel
// reads the compressed buffer and writes the expanded one at the
// codec's achievable bandwidth.
func DecompressTime(spec Spec, origBytes int64, ratio float64, codecName string) (float64, error) {
	p, ok := codecProfiles[codecName]
	if !ok {
		return 0, fmt.Errorf("gpu: no pipeline profile for codec %q", codecName)
	}
	traffic := float64(origBytes) * (1 + 1/ratio) * p.trafficFactor
	return traffic/(spec.MemBWGBps*1e9*p.bwEff) + float64(p.kernelLaunches)*LaunchOverhead, nil
}

// KVDecompressTime prices restoring compressed cold KV-cache blocks
// into physical blocks with the TCA-TBE expander: origBytes of logical
// KV content, stored at the given ratio, expanded once on claim. A
// non-positive ratio is treated as 1 (uncompressed pass-through) and
// non-positive sizes are free, so callers can charge the price
// unconditionally on the claim path.
func KVDecompressTime(spec Spec, origBytes int64, ratio float64) float64 {
	if origBytes <= 0 {
		return 0
	}
	if ratio <= 0 {
		ratio = 1
	}
	t, err := DecompressTime(spec, origBytes, ratio, codec.NameZipServ)
	if err != nil {
		// Unreachable: the ZipServ profile is always registered.
		return 0
	}
	return t
}

// PipelineTime decomposes a decoupled decompress-then-GEMM execution
// (Figure 4).
type PipelineTime struct {
	Decompress float64
	GEMM       float64
	Total      float64
}

// Decoupled prices the baseline pipeline: expand the weights into
// global memory, then run the dense GEMM over them. The GEMM re-reads
// the expanded weights from DRAM — the redundant traffic §3.3's
// roofline analysis charges against the decoupled design.
func Decoupled(spec Spec, s Shape, ratio float64, codecName string) (PipelineTime, error) {
	d, err := DecompressTime(spec, s.WeightBytes(), ratio, codecName)
	if err != nil {
		return PipelineTime{}, err
	}
	g := CuBLAS(spec, s).Total
	return PipelineTime{Decompress: d, GEMM: g, Total: d + g}, nil
}

// StageAware prices ZipServ's stage-aware strategy (§4.4): the fused
// ZipGEMM for memory-bound shapes, the decoupled
// decompress-then-cuBLAS pipeline once high arithmetic intensity
// amortises the expansion. The engine switches by picking the cheaper
// path, which coincides with the paper's prefill/decode split.
func StageAware(spec Spec, s Shape, comp Compression) (KernelTime, bool) {
	fused := ZipGEMM(spec, s, comp)
	dec, err := Decoupled(spec, s, comp.Ratio, codec.NameZipServ)
	if err != nil || fused.Total <= dec.Total {
		return fused, true
	}
	return KernelTime{
		Total: dec.Total, Mem: dec.Decompress, TC: dec.GEMM,
		Bound: "compute", BytesRead: s.WeightBytes() + s.ActivationBytes(), ParEff: 1,
	}, false
}

// MarlinW8A16 prices the lossy 8-bit weight kernel of the §7
// comparison: half the weight traffic of BF16 at near-peak bandwidth.
func MarlinW8A16(spec Spec, s Shape) KernelTime {
	bytes := int64(s.M)*int64(s.K) + s.ActivationBytes() + s.OutputBytes()
	mem := float64(bytes) / (spec.MemBWGBps * 1e9 * effMemLossy)
	tc := float64(s.FLOPs()) / (spec.BF16TFLOPS * 1e12 * effTCCuBLAS)
	total := math.Max(mem, tc) + LaunchOverhead
	return KernelTime{Total: total, Mem: mem, TC: tc, Bound: boundOf(mem, 0, tc), BytesRead: bytes, ParEff: 1}
}

// StreamTime prices a pure bandwidth-bound pass over the given bytes
// (attention KV reads, weight streaming) at the stated efficiency.
func StreamTime(spec Spec, bytes int64, eff float64) float64 {
	return float64(bytes) / (spec.MemBWGBps * 1e9 * eff)
}
