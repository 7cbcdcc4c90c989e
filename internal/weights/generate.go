package weights

import (
	"math/rand"

	"zipserv/internal/bf16"
)

// DefaultSigma is the weight standard deviation used when a layer does
// not override it. LLM weights cluster around σ ∈ [0.01, 0.05]
// depending on layer and initialisation; 0.02 reproduces the §3.1
// entropy band (2.5–2.8 bits).
const DefaultSigma = 0.02

// sigmaForKind gives each layer kind a slightly different spread, the
// way real checkpoints vary per-layer (down-projections are wider,
// embeddings tighter). The variation exercises the per-matrix window
// selection without leaving the paper's statistical regime.
func sigmaForKind(kind LayerKind) float64 {
	switch kind {
	case QKVProj:
		return 0.020
	case OProj:
		return 0.018
	case GateUpProj:
		return 0.022
	case DownProj:
		return 0.028
	case LMHead:
		return 0.012
	default:
		return DefaultSigma
	}
}

// Gaussian generates a rows×cols BF16 matrix of N(0, σ²) draws with a
// deterministic seed. It is the paper's Appendix-A weight model made
// concrete.
func Gaussian(rows, cols int, sigma float64, seed int64) *bf16.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := bf16.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = bf16.FromFloat32(float32(rng.NormFloat64() * sigma))
	}
	return m
}

// GaussianWithOutliers generates Gaussian weights where a fraction of
// elements is replaced by a 100×-wider distribution — the heavy-tail
// structure (QLoRA-style outliers) that produces TCA-TBE fallback
// elements in realistic proportions.
func GaussianWithOutliers(rows, cols int, sigma, outlierFrac float64, seed int64) *bf16.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := bf16.NewMatrix(rows, cols)
	for i := range m.Data {
		s := sigma
		if rng.Float64() < outlierFrac {
			s = sigma * 100
		}
		m.Data[i] = bf16.FromFloat32(float32(rng.NormFloat64() * s))
	}
	return m
}

// SampledLayerMatrix materialises a proportionally shrunken version of
// a layer (both dimensions divided by shrink, rounded up to a tile
// multiple of 64) so statistical experiments can cover the whole zoo
// without allocating hundreds of gigabytes. The exponent statistics
// are invariant to matrix size, which is what those experiments
// measure.
func SampledLayerMatrix(m Model, kind LayerKind, layerIdx, shrink int) *bf16.Matrix {
	if shrink < 1 {
		shrink = 1
	}
	s := m.LayerShape(kind)
	r := roundUp64(s.M / shrink)
	c := roundUp64(s.K / shrink)
	return Gaussian(r, c, sigmaForKind(kind), layerSeed(m.Name, kind, layerIdx))
}

func roundUp64(x int) int {
	if x < 64 {
		return 64
	}
	return (x + 63) / 64 * 64
}

// layerSeed derives a stable seed from the layer identity.
func layerSeed(model string, kind LayerKind, layerIdx int) int64 {
	h := int64(1469598103934665603) // FNV-1a offset basis
	mix := func(s string) {
		for _, b := range []byte(s) {
			h ^= int64(b)
			h *= 1099511628211
		}
	}
	mix(model)
	mix(string(kind))
	h ^= int64(layerIdx)
	h *= 1099511628211
	return h
}
