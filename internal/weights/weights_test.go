package weights

import (
	"math"
	"testing"

	"zipserv/internal/stats"
)

func TestZooHasElevenModels(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 11 {
		t.Fatalf("zoo has %d models, §6.1 lists 11", len(zoo))
	}
	families := map[string]int{}
	for _, m := range zoo {
		families[m.Family]++
	}
	want := map[string]int{"LLaMA3.1": 3, "Qwen2.5": 4, "Gemma3": 2, "Mistral": 2}
	for f, n := range want {
		if families[f] != n {
			t.Errorf("family %s has %d models, want %d", f, families[f], n)
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("LLaMA3.1-8B")
	if err != nil {
		t.Fatal(err)
	}
	if m.HiddenDim != 4096 {
		t.Errorf("LLaMA3.1-8B hidden dim %d, want 4096", m.HiddenDim)
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestLayerShapesLLaMA8B(t *testing.T) {
	m, _ := ByName("LLaMA3.1-8B")
	cases := []struct {
		kind LayerKind
		m, k int
	}{
		{QKVProj, 6144, 4096},     // (32+16)×128 merged heads
		{OProj, 4096, 4096},       // the small layer of Fig 11(c)
		{GateUpProj, 28672, 4096}, // 2×14336 merged
		{DownProj, 4096, 14336},
		{LMHead, 128256, 4096},
	}
	for _, c := range cases {
		s := m.LayerShape(c.kind)
		if s.M != c.m || s.K != c.k {
			t.Errorf("%s: shape %d×%d, want %d×%d", c.kind, s.M, s.K, c.m, c.k)
		}
	}
}

func TestMicroAnalysisShapeExists(t *testing.T) {
	// Figure 12 profiles M=28672, K=4096: that is exactly the
	// LLaMA3.1-8B GateUp_proj.
	m, _ := ByName("LLaMA3.1-8B")
	s := m.LayerShape(GateUpProj)
	if s.M != 28672 || s.K != 4096 {
		t.Errorf("GateUp_proj is %d×%d, Fig 12 uses 28672×4096", s.M, s.K)
	}
}

func TestWeightGiBMatchesPaper(t *testing.T) {
	// §6.5 reports BF16 weight footprints: 14.96 GiB (LLaMA3.1-8B),
	// 43.92 GiB (Mistral-24B), 131.56 GiB (LLaMA3.1-70B). Our
	// GEMM-weight accounting must land within a few percent (the gap
	// is norms/rotary buffers we do not model).
	cases := []struct {
		name string
		gib  float64
		tol  float64
	}{
		{"LLaMA3.1-8B", 14.96, 0.05},
		{"Mistral-24B", 43.92, 0.06},
		{"LLaMA3.1-70B", 131.56, 0.05},
	}
	for _, c := range cases {
		m, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		got := m.WeightGiB()
		if rel := math.Abs(got-c.gib) / c.gib; rel > c.tol {
			t.Errorf("%s: %.2f GiB, paper says %.2f (rel err %.3f > %.2f)",
				c.name, got, c.gib, rel, c.tol)
		}
	}
}

func TestBlockAndAllShapes(t *testing.T) {
	m, _ := ByName("Qwen2.5-7B")
	if got := len(m.BlockShapes()); got != 4 {
		t.Errorf("BlockShapes: %d, want 4", got)
	}
	all := append(m.BlockShapes(), m.LayerShape(LMHead))
	if all[4].Kind != LMHead {
		t.Errorf("LM head shape kind = %s, want LM_head", all[4].Kind)
	}
	for _, s := range all {
		if s.M <= 0 || s.K <= 0 {
			t.Errorf("%s: non-positive shape", s)
		}
	}
}

func TestKVBytesPerToken(t *testing.T) {
	m, _ := ByName("LLaMA3.1-8B")
	// 2 (K,V) × 8 kv-heads × 128 dim × 32 layers × 2 B = 131072 B.
	if got := m.KVBytesPerToken(); got != 131072 {
		t.Errorf("KVBytesPerToken = %d, want 131072", got)
	}
}

func TestGaussianDeterministic(t *testing.T) {
	a := Gaussian(64, 64, 0.02, 42)
	b := Gaussian(64, 64, 0.02, 42)
	if !a.Equal(b) {
		t.Error("same seed produced different matrices")
	}
	c := Gaussian(64, 64, 0.02, 43)
	if a.Equal(c) {
		t.Error("different seeds produced identical matrices")
	}
}

func TestGaussianStatisticsMatchSection31(t *testing.T) {
	// Every generated layer must exhibit the paper's §3.1 statistics.
	m, _ := ByName("LLaMA3.1-8B")
	for _, kind := range BlockLayerKinds {
		w := SampledLayerMatrix(m, kind, 0, 16)
		h := stats.ExponentHistogram(w)
		if e := h.Entropy(); e < 2.3 || e > 3.0 {
			t.Errorf("%s: entropy %.3f outside [2.3, 3.0]", kind, e)
		}
		if c := h.TopKCoverage(7); c < 0.95 {
			t.Errorf("%s: top-7 coverage %.3f < 0.95", kind, c)
		}
		if !h.TopKIsContiguous(7) {
			t.Errorf("%s: top-7 not contiguous", kind)
		}
	}
}

func TestGaussianWithOutliers(t *testing.T) {
	w := GaussianWithOutliers(128, 128, 0.02, 0.02, 9)
	h := stats.ExponentHistogram(w)
	// Outliers push coverage below the pure-Gaussian level but the
	// bulk statistics survive.
	cov := h.BestWindowCoverage(7)
	if cov > 0.97 {
		t.Errorf("outlier matrix window coverage %.4f — outliers had no effect", cov)
	}
	if cov < 0.85 {
		t.Errorf("outlier matrix window coverage %.4f — too many outliers", cov)
	}
}

func TestSampledLayerMatrixTileAligned(t *testing.T) {
	m, _ := ByName("LLaMA3.1-405B")
	w := SampledLayerMatrix(m, GateUpProj, 0, 64)
	if w.Rows%64 != 0 || w.Cols%64 != 0 {
		t.Errorf("sampled matrix %d×%d not tile aligned", w.Rows, w.Cols)
	}
	if w.Rows < 64 || w.Cols < 64 {
		t.Errorf("sampled matrix %d×%d below minimum tile", w.Rows, w.Cols)
	}
	// Extreme shrink still yields a valid matrix.
	tiny := SampledLayerMatrix(m, OProj, 0, 1<<20)
	if tiny.Rows != 64 || tiny.Cols != 64 {
		t.Errorf("over-shrunk matrix %d×%d, want 64×64 floor", tiny.Rows, tiny.Cols)
	}
}

func TestLayerMatrixSeedsDiffer(t *testing.T) {
	m, _ := ByName("Qwen2.5-7B")
	a := SampledLayerMatrix(m, OProj, 0, 32)
	b := SampledLayerMatrix(m, OProj, 1, 32)
	if a.Equal(b) {
		t.Error("different layer indices produced identical weights")
	}
}

func TestLayerShapePanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown layer kind")
		}
	}()
	m, _ := ByName("Qwen2.5-7B")
	m.LayerShape(LayerKind("Conv2D"))
}
