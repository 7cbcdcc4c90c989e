package bench

import (
	"fmt"

	"zipserv/internal/core"
	"zipserv/internal/gpu"
	"zipserv/internal/roofline"
	"zipserv/internal/stats"
	"zipserv/internal/weights"
)

// Fig02 reproduces Figure 2: the exponent-bit distribution of LLM
// weights for the three §3.1 models, measured on generated Gaussian
// layers (Appendix A says the statistics follow from the weight
// distribution, so they are reproducible without the checkpoints).
func Fig02() *Table {
	t := &Table{
		Title: "Figure 2: exponent distribution of BF16 LLM weights",
		Headers: []string{"model", "entropy(bits)", "top-3", "top-7", "window-7",
			"contiguous", "theoretical CR"},
	}
	for _, name := range []string{"LLaMA3.1-8B", "Mistral-24B", "Qwen2.5-32B"} {
		h := modelHistogram(name, 24)
		t.AddRow(name,
			h.Entropy(),
			fmt.Sprintf("%.1f%%", h.TopKCoverage(3)*100),
			fmt.Sprintf("%.1f%%", h.TopKCoverage(7)*100),
			fmt.Sprintf("%.1f%%", h.BestWindowCoverage(7)*100),
			h.TopKIsContiguous(7),
			h.TheoreticalRatio())
	}
	t.Notes = append(t.Notes, "paper: entropy 2.57-2.74 bits, top-3 > 67%, top-7 > 95%, CR ~= 1.51x")
	return t
}

// modelHistogram aggregates exponent statistics over sampled layers of
// a model (every block layer of three layer indices).
func modelHistogram(name string, shrink int) stats.Histogram {
	m, err := weights.ByName(name)
	if err != nil {
		panic(err)
	}
	var h stats.Histogram
	for _, kind := range weights.BlockLayerKinds {
		for layer := 0; layer < 3; layer++ {
			w := weights.SampledLayerMatrix(m, kind, layer, shrink)
			h.Add(stats.ExponentHistogram(w))
		}
	}
	return h
}

// Fig05 reproduces Figure 5: the roofline analysis on RTX4090 for
// M=K=4096 across decode batch sizes.
func Fig05() *Table {
	spec := gpu.MustByName("RTX4090")
	t := &Table{
		Title:   "Figure 5: roofline analysis (M=K=4096, RTX4090, CR=1.51)",
		Headers: []string{"N", "pipeline", "CI(FLOP/B)", "attainable(TFLOP/s)", "vs GEMM"},
	}
	var gemmCI float64
	for _, p := range roofline.Figure5(spec, 4096, []int{8, 16, 32, 64}, 1.51) {
		if p.Pipeline == "GEMM" {
			gemmCI = p.CI
		}
		t.AddRow(p.N, p.Pipeline, p.CI, p.Attainable/1e12,
			fmt.Sprintf("%+.1f%%", (p.CI/gemmCI-1)*100))
	}
	t.Notes = append(t.Notes, "paper: decoupled CI -62.3/-62.2/-62.0/-61.7%; ZipServ ~ +50%")
	return t
}

// E31 reproduces the §3.1 compressibility study across the model zoo:
// per-family entropy, coverage, contiguity rate and measured TCA-TBE
// ratio on sampled matrices.
func E31() *Table {
	t := &Table{
		Title: "E-3.1: compressibility of BF16 weights across the model zoo",
		Headers: []string{"model", "matrices", "entropy", "window-7",
			"contiguous%", "TBE ratio", "bits/elem"},
	}
	totalMat, contiguous := 0, 0
	for _, m := range weights.Zoo() {
		var h stats.Histogram
		var ratioSum, bpeSum float64
		n := 0
		for _, kind := range weights.BlockLayerKinds {
			for layer := 0; layer < 2; layer++ {
				w := weights.SampledLayerMatrix(m, kind, layer, 48)
				mh := stats.ExponentHistogram(w)
				h.Add(mh)
				if mh.TopKIsContiguous(7) {
					contiguous++
				}
				totalMat++
				cm, err := core.Compress(w)
				if err != nil {
					panic(err)
				}
				ratioSum += cm.CompressionRatio()
				bpeSum += cm.BitsPerElement()
				n++
			}
		}
		t.AddRow(m.Name, n, h.Entropy(),
			fmt.Sprintf("%.1f%%", h.BestWindowCoverage(7)*100),
			fmt.Sprintf("%.0f%%", 100*float64(contiguousForModel(m))/8),
			ratioSum/float64(n), bpeSum/float64(n))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("contiguity across all sampled matrices: %.1f%% (paper: 99.6%% of 3,875 matrices)",
			100*float64(contiguous)/float64(totalMat)),
		"paper: window-7 covers 97.1% on average; theoretical bound 10.6 bits/elem")
	return t
}

func contiguousForModel(m weights.Model) int {
	c := 0
	for _, kind := range weights.BlockLayerKinds {
		for layer := 0; layer < 2; layer++ {
			w := weights.SampledLayerMatrix(m, kind, layer, 48)
			if stats.ExponentHistogram(w).TopKIsContiguous(7) {
				c++
			}
		}
	}
	return c
}

// E42 reproduces the §4.2 codeword-length analysis: AverageBits(n) for
// n = 2, 3, 4 with coverages measured on generated weights.
func E42() *Table {
	h := modelHistogram("LLaMA3.1-8B", 24)
	t := &Table{
		Title:   "E-4.2: codeword length trade-off (AverageBits)",
		Headers: []string{"codeword bits", "window size", "coverage r_n", "avg bits/elem"},
	}
	for n := 2; n <= 4; n++ {
		rn := h.CodewordCoverage(n)
		t.AddRow(n, 1<<n-1, rn, stats.AverageBits(n, rn))
	}
	t.AddRow("-", "-", "bound", 8+h.Entropy())
	t.Notes = append(t.Notes, "paper: 11.3 bits (n=3) vs 12.4 (n=2) and 12.1 (n=4); bound 10.6")
	return t
}
