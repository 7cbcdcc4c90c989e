// Package weights provides the synthetic substitute for the real LLM
// checkpoints the paper evaluates on: the exact linear-layer shapes of
// the eleven models in §6.1 (LLaMA3.1, Qwen2.5, Gemma3, Mistral
// families) and a Gaussian BF16 weight generator realising the
// distributional assumptions of Appendix A. Per DESIGN.md §1, shapes
// drive the performance model and the generator drives every
// functional/statistical experiment, so nothing depends on downloading
// proprietary checkpoints.
package weights

import (
	"fmt"
	"sort"
)

// LayerKind identifies one of the linear layers profiled in §6.1.
type LayerKind string

// The five weight-bearing GEMM layers of a decoder block plus the
// language-model head.
const (
	QKVProj    LayerKind = "QKV_proj"    // merged query/key/value projection
	OProj      LayerKind = "O_proj"      // attention output projection
	GateUpProj LayerKind = "GateUp_proj" // merged FFN gate+up projection
	DownProj   LayerKind = "Down_proj"   // FFN down projection
	LMHead     LayerKind = "LM_head"     // vocabulary projection
)

// BlockLayerKinds lists the per-transformer-block layers in execution
// order (LMHead excluded: it appears once per model).
var BlockLayerKinds = []LayerKind{QKVProj, OProj, GateUpProj, DownProj}

// Shape is one weight matrix: Y = W·X with W ∈ R^{M×K}.
type Shape struct {
	Kind LayerKind
	M, K int
}

// Elements returns M×K.
func (s Shape) Elements() int64 { return int64(s.M) * int64(s.K) }

// Bytes returns the BF16 footprint in bytes.
func (s Shape) Bytes() int64 { return 2 * s.Elements() }

// String implements fmt.Stringer.
func (s Shape) String() string { return fmt.Sprintf("%s(%d×%d)", s.Kind, s.M, s.K) }

// Model describes a transformer LLM's architecture, sufficient to
// derive every GEMM shape and the serving memory model.
type Model struct {
	Name            string
	Family          string
	HiddenDim       int
	IntermediateDim int
	NumLayers       int
	NumHeads        int
	NumKVHeads      int
	HeadDim         int
	VocabSize       int
}

// Zoo returns the eleven models benchmarked in §6.1, covering 7B–405B.
// Architectural parameters follow the published configurations.
func Zoo() []Model {
	return []Model{
		{Name: "LLaMA3.1-8B", Family: "LLaMA3.1", HiddenDim: 4096, IntermediateDim: 14336, NumLayers: 32, NumHeads: 32, NumKVHeads: 8, HeadDim: 128, VocabSize: 128256},
		{Name: "LLaMA3.1-70B", Family: "LLaMA3.1", HiddenDim: 8192, IntermediateDim: 28672, NumLayers: 80, NumHeads: 64, NumKVHeads: 8, HeadDim: 128, VocabSize: 128256},
		{Name: "LLaMA3.1-405B", Family: "LLaMA3.1", HiddenDim: 16384, IntermediateDim: 53248, NumLayers: 126, NumHeads: 128, NumKVHeads: 8, HeadDim: 128, VocabSize: 128256},
		{Name: "Qwen2.5-7B", Family: "Qwen2.5", HiddenDim: 3584, IntermediateDim: 18944, NumLayers: 28, NumHeads: 28, NumKVHeads: 4, HeadDim: 128, VocabSize: 152064},
		{Name: "Qwen2.5-14B", Family: "Qwen2.5", HiddenDim: 5120, IntermediateDim: 13824, NumLayers: 48, NumHeads: 40, NumKVHeads: 8, HeadDim: 128, VocabSize: 152064},
		{Name: "Qwen2.5-32B", Family: "Qwen2.5", HiddenDim: 5120, IntermediateDim: 27648, NumLayers: 64, NumHeads: 40, NumKVHeads: 8, HeadDim: 128, VocabSize: 152064},
		{Name: "Qwen2.5-72B", Family: "Qwen2.5", HiddenDim: 8192, IntermediateDim: 29568, NumLayers: 80, NumHeads: 64, NumKVHeads: 8, HeadDim: 128, VocabSize: 152064},
		{Name: "Gemma3-12B", Family: "Gemma3", HiddenDim: 3840, IntermediateDim: 15360, NumLayers: 48, NumHeads: 16, NumKVHeads: 8, HeadDim: 256, VocabSize: 262144},
		{Name: "Gemma3-27B", Family: "Gemma3", HiddenDim: 5376, IntermediateDim: 21504, NumLayers: 62, NumHeads: 32, NumKVHeads: 16, HeadDim: 128, VocabSize: 262144},
		{Name: "Mistral-24B", Family: "Mistral", HiddenDim: 5120, IntermediateDim: 32768, NumLayers: 40, NumHeads: 32, NumKVHeads: 8, HeadDim: 128, VocabSize: 131072},
		{Name: "Mistral-123B", Family: "Mistral", HiddenDim: 12288, IntermediateDim: 28672, NumLayers: 88, NumHeads: 96, NumKVHeads: 8, HeadDim: 128, VocabSize: 32768},
	}
}

// ByName returns the zoo model with the given name.
func ByName(name string) (Model, error) {
	for _, m := range Zoo() {
		if m.Name == name {
			return m, nil
		}
	}
	names := make([]string, 0)
	for _, m := range Zoo() {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return Model{}, fmt.Errorf("weights: unknown model %q (have %v)", name, names)
}

// LayerShape returns the weight shape of one layer kind.
func (m Model) LayerShape(kind LayerKind) Shape {
	switch kind {
	case QKVProj:
		return Shape{kind, (m.NumHeads + 2*m.NumKVHeads) * m.HeadDim, m.HiddenDim}
	case OProj:
		return Shape{kind, m.HiddenDim, m.NumHeads * m.HeadDim}
	case GateUpProj:
		return Shape{kind, 2 * m.IntermediateDim, m.HiddenDim}
	case DownProj:
		return Shape{kind, m.HiddenDim, m.IntermediateDim}
	case LMHead:
		return Shape{kind, m.VocabSize, m.HiddenDim}
	default:
		panic(fmt.Sprintf("weights: unknown layer kind %q", kind))
	}
}

// BlockShapes returns the four per-block GEMM shapes in execution
// order — the kernel benchmark workload of §6.1.
func (m Model) BlockShapes() []Shape {
	out := make([]Shape, 0, len(BlockLayerKinds))
	for _, k := range BlockLayerKinds {
		out = append(out, m.LayerShape(k))
	}
	return out
}

// WeightElements returns the total parameter count of all GEMM weights
// (blocks × layers + embedding + head). Embedding is counted at the
// LM-head shape, matching standard parameter accounting.
func (m Model) WeightElements() int64 {
	var perBlock int64
	for _, s := range m.BlockShapes() {
		perBlock += s.Elements()
	}
	embed := m.LayerShape(LMHead).Elements()
	return perBlock*int64(m.NumLayers) + 2*embed
}

// WeightBytes returns the BF16 weight footprint in bytes.
func (m Model) WeightBytes() int64 { return 2 * m.WeightElements() }

// WeightGiB returns the BF16 weight footprint in GiB, the unit the
// paper uses for its memory figures (e.g. 14.96 GiB for LLaMA3.1-8B).
func (m Model) WeightGiB() float64 { return float64(m.WeightBytes()) / (1 << 30) }

// KVBytesPerToken returns the KV-cache cost of one token position in
// bytes: 2 tensors (K and V) × kv-heads × head-dim × layers × 2 bytes.
func (m Model) KVBytesPerToken() int64 {
	return 2 * 2 * int64(m.NumKVHeads) * int64(m.HeadDim) * int64(m.NumLayers)
}
