package gpu

import (
	"math"
	"testing"

	"zipserv/internal/codec"
	"zipserv/internal/core"
	"zipserv/internal/weights"
)

// gateUp8B is the LLaMA3.1-8B GateUp_proj at batch 32: the shape of
// the paper's Figure 12 micro-analysis and Figure 14 anchors.
var gateUp8B = Shape{M: 28672, K: 4096, N: 32}

func TestSpecRegistry(t *testing.T) {
	if len(Names()) < 7 {
		t.Errorf("only %d devices modelled, want ≥ 7", len(Names()))
	}
	if _, err := ByName("TPU"); err == nil {
		t.Error("unknown device accepted")
	}
	for _, name := range Names() {
		if s := MustByName(name); s.MemBWGBps <= 0 || s.BF16TFLOPS <= 0 || s.SMs <= 0 {
			t.Errorf("%s: incomplete spec %+v", s.Name, s)
		}
	}
	// §7: the consumer parts clock much higher than A100 (2520 vs
	// 1410 MHz), the property that makes the ALU workload hideable.
	if MustByName("RTX4090").ClockGHz <= MustByName("A100").ClockGHz {
		t.Error("RTX4090 must clock higher than A100")
	}
}

func TestShapeArithmetic(t *testing.T) {
	s := Shape{M: 4, K: 8, N: 2}
	if s.FLOPs() != 128 {
		t.Errorf("FLOPs = %d, want 128", s.FLOPs())
	}
	if s.WeightBytes() != 64 || s.ActivationBytes() != 32 || s.OutputBytes() != 16 {
		t.Errorf("bytes = %d/%d/%d, want 64/32/16", s.WeightBytes(), s.ActivationBytes(), s.OutputBytes())
	}
}

func TestCuBLASAnchorA100(t *testing.T) {
	// §6.3: cuBLAS_TC on A100 takes 0.215 ms for the LLaMA3.1-8B
	// GateUp_proj at batch 32. The model must land within 20%.
	got := CuBLAS(MustByName("A100"), gateUp8B).Total
	if rel := math.Abs(got-215e-6) / 215e-6; rel > 0.20 {
		t.Errorf("A100 cuBLAS GateUp = %.1f µs, paper 215 µs (rel err %.2f)", got*1e6, rel)
	}
}

func TestZipGEMMAnchorRTX4090(t *testing.T) {
	// §6.3: ZipGEMM on RTX4090 takes 0.195 ms for the same shape.
	got := ZipGEMM(MustByName("RTX4090"), gateUp8B, DefaultCompression()).Total
	if rel := math.Abs(got-195e-6) / 195e-6; rel > 0.20 {
		t.Errorf("RTX4090 ZipGEMM GateUp = %.1f µs, paper 195 µs (rel err %.2f)", got*1e6, rel)
	}
}

func TestZipGEMMBeatsCuBLASInDecodeRegime(t *testing.T) {
	// Figure 11: on RTX4090 and L40S, ZipGEMM beats cuBLAS on the
	// large decode-stage layers, with speedups in the 1.2–2.3× band.
	comp := DefaultCompression()
	for _, dev := range []string{"RTX4090", "L40S", "RTX5090"} {
		spec := MustByName(dev)
		for _, n := range []int{8, 16, 32} {
			s := Shape{M: 28672, K: 4096, N: n}
			cu := CuBLAS(spec, s).Total
			zip := ZipGEMM(spec, s, comp).Total
			speedup := cu / zip
			if speedup < 1.15 || speedup > 2.35 {
				t.Errorf("%s N=%d: speedup %.2f outside [1.15, 2.35]", dev, n, speedup)
			}
		}
	}
}

func TestSmallLayerSlowdown(t *testing.T) {
	// Figure 11(c): the LLaMA3.1-8B O_proj (4096×4096) on L40S runs at
	// ~0.79× — too few BlockTiles to saturate the SMs without split-K
	// tuning.
	spec := MustByName("L40S")
	s := Shape{M: 4096, K: 4096, N: 32}
	cu := CuBLAS(spec, s).Total
	zip := ZipGEMM(spec, s, DefaultCompression()).Total
	speedup := cu / zip
	if speedup >= 1.0 {
		t.Errorf("O_proj speedup %.2f, paper reports a slowdown (0.79×)", speedup)
	}
	if speedup < 0.55 {
		t.Errorf("O_proj speedup %.2f, too severe (paper: 0.79×)", speedup)
	}
	zk := ZipGEMM(spec, s, DefaultCompression())
	if zk.ParEff >= 1 {
		t.Error("small-layer slowdown should come from parallelism starvation")
	}
}

func TestDownProjGoodSpeedup(t *testing.T) {
	// Figure 11(c): Down_proj (4096×14336) recovers parallelism via
	// split-K chunks and reaches ≈1.64× on L40S.
	spec := MustByName("L40S")
	s := Shape{M: 4096, K: 14336, N: 32}
	speedup := CuBLAS(spec, s).Total / ZipGEMM(spec, s, DefaultCompression()).Total
	if speedup < 1.3 || speedup > 2.0 {
		t.Errorf("Down_proj speedup %.2f outside [1.3, 2.0] (paper: 1.64×)", speedup)
	}
}

func TestDecoupledBaselinesAreSlowdowns(t *testing.T) {
	// Figure 11: DietGPU/nvCOMP/DFloat11 decoupled pipelines run at
	// 0.17–0.34× of cuBLAS — decompression overhead exceeding GEMM
	// time. DFloat11 must be the fastest of the three (Figure 1).
	spec := MustByName("L40S")
	s := Shape{M: 28672, K: 4096, N: 16}
	cu := CuBLAS(spec, s).Total
	speedups := map[string]float64{}
	for _, name := range []string{codec.NameDietGPU, codec.NameNvComp, codec.NameDFloat11} {
		// Entropy coders compress slightly better than TCA-TBE (§4.2).
		p, err := Decoupled(spec, s, 1.50, name)
		if err != nil {
			t.Fatal(err)
		}
		speedups[name] = cu / p.Total
	}
	t.Logf("decoupled speedups: %v", speedups)
	for name, sp := range speedups {
		if sp < 0.12 || sp > 0.45 {
			t.Errorf("%s speedup %.3f outside the paper's 0.17–0.34 band (±tolerance)", name, sp)
		}
	}
	if !(speedups[codec.NameDFloat11] > speedups[codec.NameNvComp] &&
		speedups[codec.NameNvComp] > speedups[codec.NameDietGPU]) {
		t.Errorf("ordering must be DFloat11 > nvCOMP > DietGPU, got %v", speedups)
	}
}

func TestFig1DecompressionDominatesGEMM(t *testing.T) {
	// Figure 1: on L40S GateUp_proj layers, the decoupled
	// decompression step alone takes 1.56–3.44× the GEMM time.
	spec := MustByName("L40S")
	s := Shape{M: 28672, K: 4096, N: 16}
	gemm := CuBLAS(spec, s).Total
	for _, name := range []string{codec.NameDietGPU, codec.NameNvComp, codec.NameDFloat11} {
		d, err := DecompressTime(spec, s.WeightBytes(), 1.50, name)
		if err != nil {
			t.Fatal(err)
		}
		ratio := d / gemm
		if ratio < 1.3 || ratio > 3.9 {
			t.Errorf("%s: decompression/GEMM = %.2f, paper band 1.56–3.44", name, ratio)
		}
	}
}

func TestFig13StandaloneDecompressionSpeedups(t *testing.T) {
	// Figure 13: ZipServ-Decomp beats DietGPU by ≈2.14×, nvCOMP by
	// ≈1.83×, DFloat11 by ≈1.10×.
	spec := MustByName("L40S")
	blockBytes := int64(437 * 1 << 20) // one LLaMA3.1-8B transformer block
	zs, err := DecompressTime(spec, blockBytes, 1.42, codec.NameZipServ)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]float64{
		codec.NameDietGPU:  2.14,
		codec.NameNvComp:   1.83,
		codec.NameDFloat11: 1.10,
	}
	for name, want := range wants {
		d, err := DecompressTime(spec, blockBytes, 1.50, name)
		if err != nil {
			t.Fatal(err)
		}
		got := d / zs
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("%s: ZipServ-Decomp speedup %.2f, paper %.2f (>15%% off)", name, got, want)
		}
	}
}

func TestStageAwareSwitchesAtPrefill(t *testing.T) {
	// Figure 15: fused wins for decode-sized N (1–128); by N=8192 the
	// decoupled pipeline wins with only a few percent overhead over
	// pure cuBLAS.
	spec := MustByName("RTX4090")
	comp := DefaultCompression()
	for _, n := range []int{1, 8, 32, 128} {
		_, fused := StageAware(spec, Shape{M: 4096, K: 4096, N: n}, comp)
		if !fused {
			t.Errorf("N=%d: stage-aware picked decoupled in the decode regime", n)
		}
	}
	for _, n := range []int{8192, 16384} {
		kt, fused := StageAware(spec, Shape{M: 4096, K: 4096, N: n}, comp)
		if fused {
			t.Errorf("N=%d: stage-aware picked fused in the prefill regime", n)
		}
		overhead := kt.Total/CuBLAS(spec, Shape{M: 4096, K: 4096, N: n}).Total - 1
		maxOverhead := 0.06
		if n == 16384 {
			maxOverhead = 0.035
		}
		if overhead > maxOverhead {
			t.Errorf("N=%d: prefill overhead %.1f%%, paper ≤%.0f%%", n, overhead*100, maxOverhead*100)
		}
	}
}

func TestFig14CrossGeneration(t *testing.T) {
	spec5090 := MustByName("RTX5090")
	specH800 := MustByName("H800")
	spec4090 := MustByName("RTX4090")
	specA100 := MustByName("A100")
	comp := DefaultCompression()

	// RTX5090 ZipGEMM still beats its own cuBLAS (forward compatible).
	for _, s := range []Shape{gateUp8B, {M: 65536, K: 5120, N: 32}} {
		if sp := CuBLAS(spec5090, s).Total / ZipGEMM(spec5090, s, comp).Total; sp < 1.15 {
			t.Errorf("RTX5090 %v: speedup %.2f < 1.15", s, sp)
		}
	}

	// §6.3: RTX4090+ZipGEMM lands in the same class as A100 cuBLAS
	// (paper: 9.3% faster on LLaMA, 2.7% slower on Mistral).
	zip4090 := ZipGEMM(spec4090, gateUp8B, comp).Total
	cuA100 := CuBLAS(specA100, gateUp8B).Total
	if r := zip4090 / cuA100; r < 0.75 || r > 1.25 {
		t.Errorf("RTX4090 ZipGEMM / A100 cuBLAS = %.2f, want ≈1 (same class)", r)
	}

	// ZipGEMM narrows the 5090→H800 deficit: the fused-vs-cuBLAS gap
	// to H800 must shrink substantially (paper: 53.3% → 14.1%).
	deficitPlain := CuBLAS(spec5090, gateUp8B).Total/CuBLAS(specH800, gateUp8B).Total - 1
	deficitZip := ZipGEMM(spec5090, gateUp8B, comp).Total/CuBLAS(specH800, gateUp8B).Total - 1
	if deficitZip >= deficitPlain {
		t.Errorf("ZipGEMM did not narrow the datacenter deficit: %.2f → %.2f", deficitPlain, deficitZip)
	}
	if deficitZip > deficitPlain*0.55 {
		t.Errorf("deficit only narrowed %.2f → %.2f; paper shows a much larger reduction", deficitPlain, deficitZip)
	}
}

func TestFig18TrainingGPUsALUBound(t *testing.T) {
	// §7: on A100 the abundant HBM and low clocks make the decode ALU
	// stream the bottleneck, so ZipGEMM can trail cuBLAS — a
	// hardware-software mismatch, not an algorithmic failure.
	specA100 := MustByName("A100")
	comp := DefaultCompression()
	zip := ZipGEMM(specA100, gateUp8B, comp)
	if zip.Bound != "alu" {
		t.Errorf("A100 ZipGEMM bound = %s, want alu", zip.Bound)
	}
	cu := CuBLAS(specA100, gateUp8B)
	if cu.Total > zip.Total*1.05 {
		t.Errorf("A100: cuBLAS (%.0f µs) should not lose clearly to ZipGEMM (%.0f µs)",
			cu.Total*1e6, zip.Total*1e6)
	}
	// But the standalone decompressor remains best-in-class there too.
	zs, _ := DecompressTime(specA100, 1<<30, 1.42, codec.NameZipServ)
	dg, _ := DecompressTime(specA100, 1<<30, 1.50, codec.NameDietGPU)
	if dg/zs < 1.5 {
		t.Errorf("A100 standalone decomp speedup vs DietGPU %.2f < 1.5", dg/zs)
	}
}

func TestE7MarlinComparison(t *testing.T) {
	// §7: Marlin W8A16 at 0.143 ms vs ZipGEMM 0.194 ms on RTX4090 —
	// a 1.36× gap matching the effective bit-width ratio (~11/8).
	spec := MustByName("RTX4090")
	marlin := MarlinW8A16(spec, gateUp8B).Total
	zip := ZipGEMM(spec, gateUp8B, DefaultCompression()).Total
	gap := zip / marlin
	if gap < 1.15 || gap > 1.60 {
		t.Errorf("ZipGEMM/Marlin gap %.2f outside [1.15, 1.60] (paper: 1.36)", gap)
	}
	if rel := math.Abs(marlin-143e-6) / 143e-6; rel > 0.25 {
		t.Errorf("Marlin anchor %.0f µs vs paper 143 µs (rel %.2f)", marlin*1e6, rel)
	}
}

func TestMicroAnalysisFig12(t *testing.T) {
	spec := MustByName("RTX4090")
	m := MicroAnalysis(spec, gateUp8B, DefaultCompression())
	// 12(b): ~29.3% DRAM read reduction.
	if m.DRAMReduction < 0.27 || m.DRAMReduction > 0.31 {
		t.Errorf("DRAM reduction %.3f, paper 0.293", m.DRAMReduction)
	}
	// 12(b): TC utilisation 71.6% of cuBLAS.
	if math.Abs(m.TCUtilVsCuBLAS-0.716) > 0.01 {
		t.Errorf("TC util ratio %.3f, paper 0.716", m.TCUtilVsCuBLAS)
	}
	// ALU utilisation is high but the pipeline hides it (paper: 66%).
	if m.ALUUtil < 0.30 || m.ALUUtil > 0.95 {
		t.Errorf("ALU util %.2f outside plausible band", m.ALUUtil)
	}
	// 12(c): thousands of conflicts for ZipServ vs millions for
	// DietGPU.
	if m.BankConflictsZipServ > 20e3 {
		t.Errorf("ZipServ bank conflicts %.0f, paper ≈4.7K", m.BankConflictsZipServ)
	}
	if m.BankConflictsDietGPU < 1e6 {
		t.Errorf("DietGPU bank conflicts %.0f, paper reports millions", m.BankConflictsDietGPU)
	}
	// 12(a): the integer mix is dominated by LOP3/IADD/SHF with one
	// POPC per element.
	if m.POPC != float64(m.Elements) {
		t.Errorf("POPC = %.0f, want one per element (%d)", m.POPC, m.Elements)
	}
	if m.LOP3 <= float64(m.Elements) || m.SHF <= float64(m.Elements) {
		t.Error("LOP3 and SHF should exceed one op per element")
	}
}

func TestInstructionRatesMatchFunctionalDecoder(t *testing.T) {
	// The analytic instruction rates must agree with the functional
	// decoder's deterministic counters on real compressed data.
	w := weights.Gaussian(256, 256, 0.02, 3)
	cm, err := core.Compress(w)
	if err != nil {
		t.Fatal(err)
	}
	_, ctr, err := core.DecompressCounted(cm)
	if err != nil {
		t.Fatal(err)
	}
	cov := cm.CoverageRatio()
	lop3, iadd, shf, popc := InstructionRates(3, cov)
	checks := []struct {
		name     string
		analytic float64
		measured float64
	}{
		{"LOP3", lop3, float64(ctr.LOP3) / float64(ctr.Elements)},
		{"IADD", iadd, float64(ctr.IADD) / float64(ctr.Elements)},
		{"SHF", shf, float64(ctr.SHF) / float64(ctr.Elements)},
		{"POPC", popc, float64(ctr.POPC) / float64(ctr.Elements)},
	}
	for _, c := range checks {
		if math.Abs(c.analytic-c.measured) > 0.05*math.Max(1, c.measured) {
			t.Errorf("%s: analytic %.3f vs measured %.3f per element", c.name, c.analytic, c.measured)
		}
	}
	// And the aggregate ALU rate agrees with DecodeALUOpsPerElement.
	total := lop3 + iadd + shf + popc
	if d := math.Abs(total - core.DecodeALUOpsPerElement(3, cov)); d > 1e-9 {
		t.Errorf("InstructionRates total %.4f != DecodeALUOpsPerElement %.4f",
			total, core.DecodeALUOpsPerElement(3, cov))
	}
}

func TestDecompressTimeUnknownCodec(t *testing.T) {
	if _, err := DecompressTime(MustByName("L40S"), 1<<20, 1.5, "zstd"); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := Decoupled(MustByName("L40S"), gateUp8B, 1.5, "zstd"); err == nil {
		t.Error("unknown codec accepted by Decoupled")
	}
}

func TestStreamTime(t *testing.T) {
	spec := MustByName("RTX4090")
	got := StreamTime(spec, int64(spec.MemBWGBps*1e9), 1.0)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("StreamTime of one second of bandwidth = %f s", got)
	}
}

func TestRooflineMonotonicity(t *testing.T) {
	// Sanity: once the device is saturated (enough BlockTiles to fill
	// every SM), kernel times grow monotonically with each dimension.
	// Below saturation growing M can legitimately hold time constant —
	// more work arrives with proportionally more parallelism — which
	// is exactly the small-layer effect of Figure 11(c).
	spec := MustByName("L40S")
	comp := DefaultCompression()
	base := Shape{M: 28672, K: 8192, N: 32}
	bigger := []Shape{{57344, 8192, 32}, {28672, 16384, 32}, {28672, 8192, 64}}
	for _, s := range bigger {
		if CuBLAS(spec, s).Total < CuBLAS(spec, base).Total {
			t.Errorf("cuBLAS time decreased growing %v → %v", base, s)
		}
		if ZipGEMM(spec, s, comp).Total < ZipGEMM(spec, base, comp).Total {
			t.Errorf("ZipGEMM time decreased growing %v → %v", base, s)
		}
	}
}

func TestZipGEMMTunedRecoversSmallLayers(t *testing.T) {
	// Future-work ablation (A6): split-K tuning recovers the O_proj
	// slowdown of Figure 11(c). The tuned kernel must beat the default
	// on the starved shape and at least approach parity with cuBLAS.
	spec := MustByName("L40S")
	comp := DefaultCompression()
	s := Shape{M: 4096, K: 4096, N: 32}
	def := ZipGEMM(spec, s, comp)
	tuned, chunk := ZipGEMMTuned(spec, s, comp)
	if tuned.Total >= def.Total {
		t.Errorf("tuned %.1f µs not below default %.1f µs", tuned.Total*1e6, def.Total*1e6)
	}
	if chunk >= 4096 {
		t.Errorf("tuner kept chunk %d on a starved shape", chunk)
	}
	if sp := CuBLAS(spec, s).Total / tuned.Total; sp < 0.95 {
		t.Errorf("tuned O_proj speedup %.2f still well below parity", sp)
	}
	// Saturated shapes must not regress.
	big := Shape{M: 28672, K: 4096, N: 32}
	tunedBig, _ := ZipGEMMTuned(spec, big, comp)
	if tunedBig.Total > ZipGEMM(spec, big, comp).Total+1e-12 {
		t.Error("tuning regressed a saturated shape")
	}
}

func TestSplitKReductionCostCounted(t *testing.T) {
	// Splitting K must not be free: with a tiny chunk the reduction
	// traffic shows up in the memory stream.
	spec := MustByName("L40S")
	comp := DefaultCompression()
	s := Shape{M: 4096, K: 16384, N: 64}
	fine := zipGEMMWithChunk(spec, s, comp, 512)
	coarse := zipGEMMWithChunk(spec, s, comp, 16384)
	if fine.BytesRead <= coarse.BytesRead {
		t.Errorf("split-K reduction traffic missing: %d <= %d", fine.BytesRead, coarse.BytesRead)
	}
}
