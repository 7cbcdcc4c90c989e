package engine

import (
	"errors"
	"strings"
	"testing"

	"zipserv/internal/gpu"
	"zipserv/internal/weights"
)

func newEngine(t *testing.T, modelName, device string, ngpus int, backend Backend) *Engine {
	t.Helper()
	model, err := weights.ByName(modelName)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Model: model, Device: gpu.MustByName(device), NumGPUs: ngpus, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	model, _ := weights.ByName("LLaMA3.1-8B")
	if _, err := New(Config{Model: model, Device: gpu.MustByName("RTX4090")}); err == nil {
		t.Error("missing backend accepted")
	}
	if _, err := New(Config{Model: model, Device: gpu.MustByName("RTX4090"), Backend: "triton"}); err == nil {
		t.Error("unknown backend accepted")
	}
	// A 70B model cannot fit on a single 24 GiB card with dense
	// weights.
	big, _ := weights.ByName("LLaMA3.1-70B")
	if _, err := New(Config{Model: big, Device: gpu.MustByName("RTX4090"), Backend: BackendVLLM}); !errors.Is(err, ErrDoesNotFit) {
		t.Errorf("70B on one RTX4090: got %v, want ErrDoesNotFit", err)
	}
	// Every rank must hold whole attention heads: 32 heads do not split
	// 3 or 5000 ways.
	for _, tp := range []int{3, 5000} {
		_, err := New(Config{Model: model, Device: gpu.MustByName("RTX4090"), NumGPUs: tp, Backend: BackendZipServ})
		if err == nil || !strings.Contains(err.Error(), "attention heads") {
			t.Errorf("TP %d on LLaMA3.1-8B: got %v, want an attention-head error", tp, err)
		}
	}
}

func TestMemoryPlanFig17(t *testing.T) {
	// Figure 17: on RTX4090, LLaMA3.1-8B weights drop from 14.96 GiB
	// (vLLM) to ≈11 GiB resident (ZipServ), and the freed memory
	// raises KV capacity by ≈1.7×.
	zip := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendZipServ)
	vllm := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendVLLM)

	if w := vllm.WeightGiBPerGPU(); w < 14.5 || w > 15.5 {
		t.Errorf("vLLM weights %.2f GiB, paper 14.96", w)
	}
	if w := zip.WeightGiBPerGPU(); w < 10.0 || w > 11.6 {
		t.Errorf("ZipServ weights %.2f GiB, paper 11.18 (incl. runtime buffers)", w)
	}
	gain := float64(zip.Plan().KVBytes) / float64(vllm.Plan().KVBytes)
	if gain < 1.4 || gain > 2.1 {
		t.Errorf("KV capacity gain %.2f, paper 1.70", gain)
	}
	// E-6.5: compressed footprint ≈ 71% of dense.
	frac := zip.WeightGiBPerGPU() / vllm.WeightGiBPerGPU()
	if frac < 0.68 || frac > 0.74 {
		t.Errorf("weight footprint fraction %.3f, paper 0.711–0.724", frac)
	}
}

func TestStepBreakdownFig17(t *testing.T) {
	// Figure 17 latency composition for vLLM (bs 32, seq 1024):
	// GEMM ≈ 25 ms dominating at >75%, attention ≈ 3 ms, others ≈ 1.9
	// ms; ZipServ cuts the GEMM component by ≈1.7×.
	vllm := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendVLLM)
	zip := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendZipServ)

	g := vllm.stepGEMMTime(nil, 32)
	if g < 15e-3 || g > 30e-3 {
		t.Errorf("vLLM step GEMM %.2f ms, paper ≈25 ms", g*1e3)
	}
	frac := g / vllm.BatchDecodeStepTime(32, 32*1024)
	if frac < 0.65 || frac > 0.92 {
		t.Errorf("GEMM fraction %.2f of step, paper 0.836", frac)
	}
	speedup := g / zip.stepGEMMTime(nil, 32)
	if speedup < 1.35 || speedup > 1.95 {
		t.Errorf("linear-layer speedup %.2f, paper 1.69", speedup)
	}
	if o := vllm.otherTime(); o < 1e-3 || o > 3e-3 {
		t.Errorf("other overhead %.2f ms, paper 1.88 ms", o*1e3)
	}
}

func TestFig16ThroughputOrdering(t *testing.T) {
	// Figure 16: ZipServ > vLLM > Transformers > DFloat11 in
	// throughput on every scenario and configuration.
	for _, sc := range Figure16Scenarios() {
		results := map[Backend]float64{}
		for _, b := range Backends() {
			e, err := NewForScenario(sc, b)
			if err != nil {
				t.Fatalf("%v %s: %v", sc, b, err)
			}
			m, err := e.Run(8, 128, 512)
			if err != nil {
				t.Fatalf("%v %s: %v", sc, b, err)
			}
			results[b] = m.Throughput
		}
		if !(results[BackendZipServ] > results[BackendVLLM] &&
			results[BackendVLLM] > results[BackendTransformers] &&
			results[BackendTransformers] > results[BackendDFloat11]) {
			t.Errorf("%v: ordering violated: %v", sc, results)
		}
	}
}

func TestFig16AverageSpeedups(t *testing.T) {
	// Figure 16 averages across models, batch sizes and output
	// lengths: ZipServ ≈1.22× vLLM, ≈3.18× Transformers, ≈8.52×
	// DFloat11 in throughput. The simulation must land in generous
	// bands around those (the exact values depend on vLLM's preemption
	// policy, which we model coarsely as waves).
	type accum struct {
		sum float64
		n   int
	}
	ratios := map[Backend]*accum{
		BackendVLLM: {}, BackendTransformers: {}, BackendDFloat11: {},
	}
	for _, sc := range Figure16Scenarios() {
		engines := map[Backend]*Engine{}
		for _, b := range Backends() {
			e, err := NewForScenario(sc, b)
			if err != nil {
				t.Fatal(err)
			}
			engines[b] = e
		}
		for _, batch := range []int{8, 32} {
			for _, out := range []int{128, 512, 2048} {
				zm, err := engines[BackendZipServ].Run(batch, 128, out)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range []Backend{BackendVLLM, BackendTransformers, BackendDFloat11} {
					m, err := engines[b].Run(batch, 128, out)
					if err != nil {
						t.Fatal(err)
					}
					ratios[b].sum += zm.Throughput / m.Throughput
					ratios[b].n++
				}
			}
		}
	}
	bands := map[Backend][2]float64{
		BackendVLLM:         {1.05, 2.0}, // paper 1.22
		BackendTransformers: {2.2, 5.5},  // paper 3.18
		BackendDFloat11:     {4.0, 12.0}, // paper 8.52
	}
	for b, acc := range ratios {
		avg := acc.sum / float64(acc.n)
		t.Logf("avg throughput ratio vs %s: %.2f", b, avg)
		lo, hi := bands[b][0], bands[b][1]
		if avg < lo || avg > hi {
			t.Errorf("avg speedup vs %s = %.2f outside [%.1f, %.1f]", b, avg, lo, hi)
		}
	}
}

func TestLongContextAdvantageGrows(t *testing.T) {
	// §6.5: gains are pronounced for long-context generation — the
	// ZipServ/vLLM ratio at output 2048 must exceed the ratio at 128,
	// and the bs32/out2048 LLaMA config shows ≥1.3× (paper: 1.66×).
	zip := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendZipServ)
	vllm := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendVLLM)
	ratio := func(out int) float64 {
		zm, err := zip.Run(32, 128, out)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := vllm.Run(32, 128, out)
		if err != nil {
			t.Fatal(err)
		}
		return zm.Throughput / vm.Throughput
	}
	short := ratio(128)
	long := ratio(2048)
	if long <= short {
		t.Errorf("long-context ratio %.2f not above short-context %.2f", long, short)
	}
	if long < 1.3 {
		t.Errorf("bs32/out2048 speedup %.2f < 1.3 (paper 1.66)", long)
	}
	// Absolute throughput same order of magnitude as the paper's 1105
	// tokens/s.
	zm, _ := zip.Run(32, 128, 2048)
	if zm.Throughput < 600 || zm.Throughput > 2500 {
		t.Errorf("ZipServ throughput %.0f tok/s, paper ≈1105", zm.Throughput)
	}
}

func TestWavesReflectKVCapacity(t *testing.T) {
	// The compressed backend must admit more concurrent sequences.
	zip := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendZipServ)
	vllm := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendVLLM)
	if zc, vc := zip.MaxConcurrent(2176), vllm.MaxConcurrent(2176); zc <= vc {
		t.Errorf("ZipServ concurrency %d not above vLLM %d", zc, vc)
	}
	zm, err := zip.Run(32, 128, 2048)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := vllm.Run(32, 128, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if zm.Waves >= vm.Waves {
		t.Errorf("ZipServ waves %d, vLLM waves %d: compression should reduce waves", zm.Waves, vm.Waves)
	}
}

func TestRunErrors(t *testing.T) {
	e := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendZipServ)
	if _, err := e.Run(0, 128, 128); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := e.Run(8, 0, 128); err == nil {
		t.Error("zero prompt accepted")
	}
	if _, err := e.Run(8, 128, 0); err == nil {
		t.Error("zero output accepted")
	}
	// A sequence longer than total KV capacity must fail with a clear
	// message, not loop.
	if _, err := e.Run(1, 1, 100_000_000); err == nil {
		t.Error("impossible sequence length accepted")
	} else if !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("unhelpful OOM error: %v", err)
	}
}

func TestTensorParallelismScales(t *testing.T) {
	// 70B on 4× L40S must be faster than on… well, it cannot run on
	// fewer; verify TP mechanics instead: 2×L40S Mistral beats 1×L40S
	// in throughput despite all-reduce overhead (weights halve per
	// GPU), and sharded shapes sum to the full model.
	two := newEngine(t, "Mistral-24B", "L40S", 2, BackendZipServ)
	one := newEngine(t, "Mistral-24B", "L40S", 1, BackendZipServ)
	m2, err := two.Run(16, 128, 256)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := one.Run(16, 128, 256)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Throughput <= m1.Throughput {
		t.Errorf("TP=2 throughput %.0f not above TP=1 %.0f", m2.Throughput, m1.Throughput)
	}
	// Sharding conserves elements.
	model, _ := weights.ByName("Mistral-24B")
	for _, kind := range weights.BlockLayerKinds {
		full := model.LayerShape(kind)
		sh := two.shardedShape(kind, 1)
		if int64(sh.M)*int64(sh.K)*2 != full.Elements() {
			t.Errorf("%s: shard %dx%d ×2 != full %dx%d", kind, sh.M, sh.K, full.M, full.K)
		}
	}
	if two.allReduceTime(16) <= 0 {
		t.Error("TP=2 must pay all-reduce time")
	}
	if one.allReduceTime(16) != 0 {
		t.Error("TP=1 must not pay all-reduce time")
	}
}

func TestPrefillUsesDecoupledPath(t *testing.T) {
	// §4.4: for prefill-scale N the stage-aware engine must not be
	// slower than ~1.06× the dense baseline (decompression amortised),
	// and decode steps must be strictly faster.
	zip := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendZipServ)
	vllm := newEngine(t, "LLaMA3.1-8B", "RTX4090", 1, BackendVLLM)
	zp := zip.PrefillTime(4, 2048)
	vp := vllm.PrefillTime(4, 2048)
	if zp > vp*1.08 {
		t.Errorf("prefill %.1f ms vs dense %.1f ms: overhead above 8%%", zp*1e3, vp*1e3)
	}
	if zd, vd := zip.BatchDecodeStepTime(32, 32*512), vllm.BatchDecodeStepTime(32, 32*512); zd >= vd {
		t.Errorf("decode step %.2f ms not below dense %.2f ms", zd*1e3, vd*1e3)
	}
}

func TestMetricsConsistency(t *testing.T) {
	e := newEngine(t, "Qwen2.5-7B", "RTX4090", 1, BackendZipServ)
	m, err := e.Run(4, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalSeconds <= 0 || m.Throughput <= 0 {
		t.Errorf("degenerate metrics %+v", m)
	}
	if d := m.PrefillSeconds + m.DecodeSeconds; d != m.TotalSeconds {
		t.Errorf("prefill+decode = %f != total %f", d, m.TotalSeconds)
	}
	want := float64(4*128) / m.TotalSeconds
	if m.Throughput != want {
		t.Errorf("throughput %.2f inconsistent with latency (%f)", m.Throughput, want)
	}
	if m.Backend != BackendZipServ || m.Model != "Qwen2.5-7B" {
		t.Errorf("identity fields wrong: %+v", m)
	}
}

func TestDefaultsApplied(t *testing.T) {
	model, _ := weights.ByName("LLaMA3.1-8B")
	e, err := New(Config{Model: model, Device: gpu.MustByName("RTX4090"), Backend: BackendZipServ})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.NumGPUs != 1 {
		t.Errorf("NumGPUs default = %d, want 1", e.cfg.NumGPUs)
	}
	if e.cfg.Compression.Ratio == 0 || e.cfg.ReservedGiB == 0 {
		t.Error("compression/reserved defaults not applied")
	}
}
