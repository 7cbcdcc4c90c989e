package bench

import (
	"fmt"

	"zipserv/internal/codec"
	"zipserv/internal/gpu"
	"zipserv/internal/weights"
)

// paperCR is the entropy-coder compression ratio of §3.1 (used for the
// Huffman/rANS baselines); TCA-TBE's own ratio comes from
// gpu.DefaultCompression().
const paperCR = 1.50

var baselineCodecs = []string{codec.NameDietGPU, codec.NameNvComp, codec.NameDFloat11}

// shapeOf builds the GEMM shape of a model layer at token count n.
func shapeOf(m weights.Model, kind weights.LayerKind, n int) gpu.Shape {
	s := m.LayerShape(kind)
	return gpu.Shape{M: s.M, K: s.K, N: n}
}

// Fig01 reproduces Figure 1: execution time of lossless compression
// pipelines on L40S GateUp_proj layers — the decompression step alone
// takes 1.56–3.44× the core GEMM time.
func Fig01() *Table {
	spec := gpu.MustByName("L40S")
	t := &Table{
		Title:   "Figure 1: decoupled pipeline cost on L40S GateUp_proj (batch 16)",
		Headers: []string{"model", "codec", "decomp(ms)", "gemm(ms)", "decomp/gemm"},
	}
	for _, name := range []string{"LLaMA3.1-8B", "Qwen2.5-32B", "Mistral-24B"} {
		m, err := weights.ByName(name)
		if err != nil {
			panic(err)
		}
		s := shapeOf(m, weights.GateUpProj, 16)
		gemm := gpu.CuBLAS(spec, s).Total
		for _, cn := range baselineCodecs {
			d, err := gpu.DecompressTime(spec, s.WeightBytes(), paperCR, cn)
			if err != nil {
				panic(err)
			}
			t.AddRow(name, cn, d*1e3, gemm*1e3, d/gemm)
		}
	}
	t.Notes = append(t.Notes, "paper band: decompression/GEMM in 1.56–3.44×")
	return t
}

// Fig11 reproduces Figure 11(a,b): ZipGEMM and decoupled-baseline
// speedups over cuBLAS_TC across the model zoo at batch 8/16/32.
func Fig11(device string) *Table {
	spec := gpu.MustByName(device)
	comp := gpu.DefaultCompression()
	t := &Table{
		Title:   fmt.Sprintf("Figure 11: kernel speedup over cuBLAS_TC on %s", device),
		Headers: []string{"model", "layer", "batch", "ZipGEMM", "DietGPU", "nvCOMP", "DFloat11"},
	}
	var zipSum float64
	var zipMax float64
	count := 0
	for _, m := range weights.Zoo() {
		for _, kind := range weights.BlockLayerKinds {
			for _, n := range []int{8, 16, 32} {
				s := shapeOf(m, kind, n)
				cu := gpu.CuBLAS(spec, s).Total
				zip := cu / gpu.ZipGEMM(spec, s, comp).Total
				row := []any{m.Name, string(kind), n, zip}
				for _, cn := range baselineCodecs {
					p, err := gpu.Decoupled(spec, s, paperCR, cn)
					if err != nil {
						panic(err)
					}
					row = append(row, cu/p.Total)
				}
				// Rows for every layer are produced; only QKV batch 16
				// omitted from the printed table would lose data, so
				// keep all.
				t.AddRow(row...)
				zipSum += zip
				if zip > zipMax {
					zipMax = zip
				}
				count++
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("ZipGEMM average %.2fx, max %.2fx over %d configurations", zipSum/float64(count), zipMax, count),
		"paper: avg 1.31x/1.36x and max 1.71x/2.21x on RTX4090/L40S; baselines 0.17-0.34x")
	return t
}

// Fig11c reproduces Figure 11(c): layer-wise analysis of the LLaMA3.1
// family on L40S, including the O_proj slowdown and block-level
// aggregate speedups.
func Fig11c() *Table {
	spec := gpu.MustByName("L40S")
	comp := gpu.DefaultCompression()
	t := &Table{
		Title:   "Figure 11c: layer-wise ZipGEMM speedup, LLaMA3.1 family on L40S (batch 32)",
		Headers: []string{"model", "layer", "MxK", "speedup"},
	}
	for _, name := range []string{"LLaMA3.1-8B", "LLaMA3.1-70B", "LLaMA3.1-405B"} {
		m, err := weights.ByName(name)
		if err != nil {
			panic(err)
		}
		var cuBlock, zipBlock float64
		for _, kind := range weights.BlockLayerKinds {
			s := shapeOf(m, kind, 32)
			cu := gpu.CuBLAS(spec, s).Total
			zip := gpu.ZipGEMM(spec, s, comp).Total
			t.AddRow(name, string(kind), fmt.Sprintf("%dx%d", s.M, s.K), cu/zip)
			cuBlock += cu
			zipBlock += zip
		}
		t.AddRow(name, "BLOCK", "-", cuBlock/zipBlock)
	}
	t.Notes = append(t.Notes, "paper: GateUp 1.39x, Down 1.64x, O_proj 0.79x; block 1.35x (8B) / 1.48x (405B)")
	return t
}

// Fig12 reproduces Figure 12: the Nsight-Compute-style micro analysis
// of ZipGEMM at M=28672, K=4096, N=32 on RTX4090.
func Fig12() *Table {
	spec := gpu.MustByName("RTX4090")
	s := gpu.Shape{M: 28672, K: 4096, N: 32}
	mi := gpu.MicroAnalysis(spec, s, gpu.DefaultCompression())
	t := &Table{
		Title:   "Figure 12: ZipGEMM micro-level analysis (28672x4096, N=32, RTX4090)",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("elements", fmt.Sprintf("%d", mi.Elements))
	t.AddRow("LOP3 instructions", fmt.Sprintf("%.3g", mi.LOP3))
	t.AddRow("IADD instructions", fmt.Sprintf("%.3g", mi.IADD))
	t.AddRow("SHF instructions", fmt.Sprintf("%.3g", mi.SHF))
	t.AddRow("POPC instructions", fmt.Sprintf("%.3g", mi.POPC))
	t.AddRow("DRAM read, dense (MB)", float64(mi.DRAMReadDense)/1e6)
	t.AddRow("DRAM read, ZipGEMM (MB)", float64(mi.DRAMReadZip)/1e6)
	t.AddRow("DRAM read reduction", fmt.Sprintf("%.1f%%", mi.DRAMReduction*100))
	t.AddRow("TC util vs cuBLAS", fmt.Sprintf("%.1f%%", mi.TCUtilVsCuBLAS*100))
	t.AddRow("ALU utilisation", fmt.Sprintf("%.1f%%", mi.ALUUtil*100))
	t.AddRow("bank conflicts (ZipServ)", fmt.Sprintf("%.3g", mi.BankConflictsZipServ))
	t.AddRow("bank conflicts (DietGPU)", fmt.Sprintf("%.3g", mi.BankConflictsDietGPU))
	t.Notes = append(t.Notes, "paper: -29.3% DRAM reads, TC util 71.6% of cuBLAS, ~4.7K vs millions of conflicts")
	return t
}

// Fig13 reproduces Figure 13: standalone decompression of a full
// transformer block for LLaMA3.1-8B and Mistral-24B.
func Fig13() *Table {
	spec := gpu.MustByName("L40S")
	t := &Table{
		Title:   "Figure 13: standalone block decompression on L40S",
		Headers: []string{"model", "codec", "time(ms)", "ZipServ speedup"},
	}
	for _, name := range []string{"LLaMA3.1-8B", "Mistral-24B"} {
		m, err := weights.ByName(name)
		if err != nil {
			panic(err)
		}
		var blockBytes int64
		for _, s := range m.BlockShapes() {
			blockBytes += s.Bytes()
		}
		zs, err := gpu.DecompressTime(spec, blockBytes, gpu.DefaultCompression().Ratio, codec.NameZipServ)
		if err != nil {
			panic(err)
		}
		t.AddRow(name, codec.NameZipServ, zs*1e3, 1.0)
		for _, cn := range baselineCodecs {
			d, err := gpu.DecompressTime(spec, blockBytes, paperCR, cn)
			if err != nil {
				panic(err)
			}
			t.AddRow(name, cn, d*1e3, d/zs)
		}
	}
	t.Notes = append(t.Notes, "paper: 2.14x vs DietGPU, 1.83x vs nvCOMP, 1.10x vs DFloat11")
	return t
}

// Fig14 reproduces Figure 14: cross-generation comparison (RTX5090
// forward compatibility; consumer cards vs A100/H800).
func Fig14() *Table {
	comp := gpu.DefaultCompression()
	t := &Table{
		Title:   "Figure 14: cross-generation performance (GateUp_proj, batch 32)",
		Headers: []string{"model", "device", "kernel", "time(ms)"},
	}
	for _, name := range []string{"LLaMA3.1-8B", "Mistral-24B"} {
		m, err := weights.ByName(name)
		if err != nil {
			panic(err)
		}
		s := shapeOf(m, weights.GateUpProj, 32)
		for _, dev := range []string{"RTX4090", "RTX5090", "A100", "H800"} {
			spec := gpu.MustByName(dev)
			t.AddRow(name, dev, "cuBLAS_TC", gpu.CuBLAS(spec, s).Total*1e3)
			t.AddRow(name, dev, "ZipGEMM", gpu.ZipGEMM(spec, s, comp).Total*1e3)
		}
	}
	t.Notes = append(t.Notes,
		"paper anchors: RTX4090 ZipGEMM 0.195 ms vs A100 cuBLAS 0.215 ms (LLaMA3.1-8B)",
		"paper: ZipGEMM shrinks the RTX5090-vs-H800 deficit from 53.3%/125.7% to 14.1%/20.8%")
	return t
}

// Fig15 reproduces Figure 15: ZipServ under different N settings —
// fused wins in the decode regime, the decoupled path caps prefill
// overhead at a few percent.
func Fig15() *Table {
	spec := gpu.MustByName("RTX4090")
	comp := gpu.DefaultCompression()
	// The sweep uses the GateUp_proj shape (28672×4096): a
	// saturating layer where the fused kernel's decode-regime win and
	// the decoupled path's prefill overhead are both visible. (The
	// paper's Fig 11c shows that SM-starved 4096×4096 layers lose
	// regardless of N — that effect is covered there, not here.)
	t := &Table{
		Title:   "Figure 15: ZipServ vs cuBLAS across N (28672x4096, RTX4090)",
		Headers: []string{"N", "cuBLAS(ms)", "fused(ms)", "decoupled(ms)", "stage-aware", "vs cuBLAS"},
	}
	for _, n := range []int{1, 8, 16, 32, 64, 128, 256, 1024, 4096, 8192, 16384} {
		s := gpu.Shape{M: 28672, K: 4096, N: n}
		cu := gpu.CuBLAS(spec, s).Total
		fused := gpu.ZipGEMM(spec, s, comp).Total
		dec, err := gpu.Decoupled(spec, s, comp.Ratio, codec.NameZipServ)
		if err != nil {
			panic(err)
		}
		kt, isFused := gpu.StageAware(spec, s, comp)
		mode := "decoupled"
		if isFused {
			mode = "fused"
		}
		t.AddRow(n, cu*1e3, fused*1e3, dec.Total*1e3, mode, cu/kt.Total)
	}
	t.Notes = append(t.Notes, "paper: no overhead for N in 1-128; ~4%/2% overhead at N=8192/16384")
	return t
}

// Fig18 reproduces Figure 18: behaviour on training-oriented
// datacenter GPUs, where ZipGEMM may trail cuBLAS (ALU-bound) but the
// standalone decompressor stays best-in-class.
func Fig18() *Table {
	comp := gpu.DefaultCompression()
	t := &Table{
		Title:   "Figure 18: training-oriented GPUs (GateUp_proj, batch 32)",
		Headers: []string{"device", "model", "cuBLAS(ms)", "ZipGEMM(ms)", "speedup", "bound", "decomp vs DietGPU"},
	}
	for _, dev := range []string{"A100", "H800"} {
		spec := gpu.MustByName(dev)
		for _, name := range []string{"LLaMA3.1-8B", "Mistral-24B"} {
			m, err := weights.ByName(name)
			if err != nil {
				panic(err)
			}
			s := shapeOf(m, weights.GateUpProj, 32)
			cu := gpu.CuBLAS(spec, s).Total
			zk := gpu.ZipGEMM(spec, s, comp)
			zs, _ := gpu.DecompressTime(spec, s.WeightBytes(), comp.Ratio, codec.NameZipServ)
			dg, _ := gpu.DecompressTime(spec, s.WeightBytes(), paperCR, codec.NameDietGPU)
			t.AddRow(dev, name, cu*1e3, zk.Total*1e3, cu/zk.Total, zk.Bound, dg/zs)
		}
	}
	t.Notes = append(t.Notes, "paper: ZipGEMM may not match cuBLAS here (HBM headroom + low clocks), but decompression stays up to 2.64x ahead")
	return t
}

// E7 reproduces the §7 lossy comparison: ZipGEMM vs a Marlin-class
// W8A16 kernel on RTX4090.
func E7() *Table {
	spec := gpu.MustByName("RTX4090")
	s := gpu.Shape{M: 28672, K: 4096, N: 32}
	zip := gpu.ZipGEMM(spec, s, gpu.DefaultCompression()).Total
	marlin := gpu.MarlinW8A16(spec, s).Total
	t := &Table{
		Title:   "E-7: lossless ZipGEMM vs lossy Marlin W8A16 (28672x4096, N=32, RTX4090)",
		Headers: []string{"kernel", "time(ms)", "effective bits/weight"},
	}
	t.AddRow("ZipGEMM (lossless)", zip*1e3, 16/gpu.DefaultCompression().Ratio)
	t.AddRow("Marlin W8A16 (lossy)", marlin*1e3, 8.0)
	t.Notes = append(t.Notes,
		fmt.Sprintf("gap %.2fx; paper: 0.194 ms vs 0.143 ms = 1.36x, tracking the bit-width ratio", zip/marlin))
	return t
}
