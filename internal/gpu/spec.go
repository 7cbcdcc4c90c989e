// Package gpu models the GPUs of the ZipServ evaluation (§6) and
// prices GEMM / decompression kernels on them with a
// roofline-with-overlap cost model.
//
// The model is the substitution for the paper's real hardware
// (DESIGN.md §1): each kernel's wall time is the maximum of its three
// overlapped resource streams — DRAM traffic, integer-ALU decode work
// and Tensor Core math — divided by per-stream achievable
// efficiencies, plus fixed launch overhead. The constants are
// calibrated against the paper's published anchors (e.g. cuBLAS
// GateUp_proj on A100 = 0.215 ms, ZipGEMM on RTX4090 = 0.195 ms,
// DietGPU at 43.7% of peak bandwidth) and validated by the figure
// tests; absolute times are approximations, but orderings, ratios and
// crossover points — the paper's actual claims — are reproduced.
package gpu

import (
	"fmt"
	"sort"
)

// Class partitions GPUs the way §6.3/§7 does.
type Class string

// GPU market classes.
const (
	Consumer   Class = "consumer"   // RTX4090, RTX5090
	Inference  Class = "inference"  // L40S
	Datacenter Class = "datacenter" // A100, H800 (training-oriented)
	MatrixISA  Class = "matrix-isa" // non-GPU matrix accelerators (§7)
)

// Spec describes one accelerator.
type Spec struct {
	Name     string
	Class    Class
	SMs      int
	ClockGHz float64

	// BF16TFLOPS is dense Tensor Core BF16 throughput (no sparsity).
	BF16TFLOPS float64

	// MemBWGBps is peak DRAM bandwidth in GB/s.
	MemBWGBps float64

	// VRAMGiB is device memory capacity.
	VRAMGiB float64

	// IntLanesPerSM is the number of INT32 ALU lanes per SM per clock,
	// the resource the TCA-TBE decoder consumes (LOP3/IADD/POPC issue
	// on the integer pipe).
	IntLanesPerSM int

	// NVLinkGBps is the per-GPU interconnect bandwidth for tensor
	// parallelism (0 = PCIe only, modelled at 32 GB/s effective).
	NVLinkGBps float64
}

// ALUOpsPerSec returns peak integer-pipe throughput.
func (s Spec) ALUOpsPerSec() float64 {
	return float64(s.SMs) * s.ClockGHz * 1e9 * float64(s.IntLanesPerSM)
}

// InterconnectGBps returns the effective inter-GPU bandwidth.
func (s Spec) InterconnectGBps() float64 {
	if s.NVLinkGBps > 0 {
		return s.NVLinkGBps
	}
	return 32 // PCIe 4.0 x16 effective
}

// The evaluation platforms of §6 (published specifications), plus the
// §7 extension targets.
var specs = map[string]Spec{
	"RTX4090": {
		Name: "RTX4090", Class: Consumer, SMs: 128, ClockGHz: 2.52,
		BF16TFLOPS: 165.2, MemBWGBps: 1008, VRAMGiB: 24, IntLanesPerSM: 64,
	},
	"L40S": {
		Name: "L40S", Class: Inference, SMs: 142, ClockGHz: 2.52,
		BF16TFLOPS: 181.0, MemBWGBps: 864, VRAMGiB: 48, IntLanesPerSM: 64,
	},
	"RTX5090": {
		Name: "RTX5090", Class: Consumer, SMs: 170, ClockGHz: 2.41,
		BF16TFLOPS: 209.5, MemBWGBps: 1792, VRAMGiB: 32, IntLanesPerSM: 64,
	},
	"A100": {
		// 40 GB PCIe variant, matching the paper's cuBLAS anchor of
		// 0.215 ms on the LLaMA3.1-8B GateUp_proj at batch 32.
		Name: "A100", Class: Datacenter, SMs: 108, ClockGHz: 1.41,
		BF16TFLOPS: 312, MemBWGBps: 1555, VRAMGiB: 40, IntLanesPerSM: 64,
		NVLinkGBps: 300,
	},
	"H800": {
		Name: "H800", Class: Datacenter, SMs: 132, ClockGHz: 1.98,
		BF16TFLOPS: 989.5, MemBWGBps: 3350, VRAMGiB: 80, IntLanesPerSM: 64,
		NVLinkGBps: 200, // H800 = H100 with capped NVLink
	},
	// §7 extension targets: matrix accelerators with the integer and
	// popcount support the decoder needs.
	"AMX-SPR": {
		Name: "AMX-SPR", Class: MatrixISA, SMs: 56, ClockGHz: 2.0,
		BF16TFLOPS: 55, MemBWGBps: 307, VRAMGiB: 512, IntLanesPerSM: 32,
	},
	"MI300X": {
		Name: "MI300X", Class: MatrixISA, SMs: 304, ClockGHz: 2.1,
		BF16TFLOPS: 1307, MemBWGBps: 5300, VRAMGiB: 192, IntLanesPerSM: 64,
		NVLinkGBps: 448,
	},
}

// ByName returns the spec of a modelled accelerator.
func ByName(name string) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("gpu: unknown device %q (have %v)", name, Names())
	}
	return s, nil
}

// MustByName is ByName for static device names; it panics on unknown
// devices, which indicates a programming error, not bad input.
func MustByName(name string) Spec {
	s, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names lists all modelled devices in sorted order.
func Names() []string {
	out := make([]string, 0, len(specs))
	for n := range specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
