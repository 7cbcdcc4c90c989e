// Package roofline implements the compute-intensity analysis of §3.3:
// Equations 1–3 for the standard, decoupled and fused (ZipServ)
// pipelines, and the roofline attainable-performance model of
// Figure 5. Compute intensity (CI) is measured in FLOPs per byte of
// global-memory traffic; in the memory-bound regime attainable
// throughput is CI × bandwidth, so the decoupled pipeline's extra
// traffic translates directly into the slowdowns of Figure 11.
package roofline

import "zipserv/internal/gpu"

// CIGemm returns the compute intensity of a standard BF16 GEMM
// (Equation 1): 2MNK FLOPs over 2(MK + KN + MN) bytes.
func CIGemm(m, k, n int) float64 {
	flops := 2 * float64(m) * float64(n) * float64(k)
	bytes := 2 * (float64(m)*float64(k) + float64(k)*float64(n) + float64(m)*float64(n))
	return flops / bytes
}

// CIDecoupled returns the compute intensity of the decoupled
// decompress-then-GEMM pipeline (Equation 2): the weight matrix is
// read compressed (2MK/CR), written decompressed (2MK) and read again
// by the GEMM (2MK).
func CIDecoupled(m, k, n int, cr float64) float64 {
	flops := 2 * float64(m) * float64(n) * float64(k)
	bytes := float64(m)*float64(k)*(2/cr+4) + 2*(float64(k)*float64(n)+float64(m)*float64(n))
	return flops / bytes
}

// CIZipServ returns the compute intensity of the fused ZipGEMM
// pipeline (Equation 3): weights cross DRAM exactly once, compressed.
func CIZipServ(m, k, n int, cr float64) float64 {
	flops := 2 * float64(m) * float64(n) * float64(k)
	bytes := 2*float64(m)*float64(k)/cr + 2*(float64(k)*float64(n)+float64(m)*float64(n))
	return flops / bytes
}

// Attainable returns the roofline-attainable throughput in FLOP/s for
// a kernel of compute intensity ci on the device: min(peak compute,
// ci × bandwidth).
func Attainable(spec gpu.Spec, ci float64) float64 {
	peak := spec.BF16TFLOPS * 1e12
	memBound := ci * spec.MemBWGBps * 1e9
	if memBound < peak {
		return memBound
	}
	return peak
}

// Point is one roofline sample for Figure 5.
type Point struct {
	Pipeline   string
	N          int
	CI         float64
	Attainable float64 // FLOP/s on the target device
}

// Figure5 computes the Figure 5 sweep: CI and attainable throughput of
// the three pipelines for a square M=K weight at the given batch
// sizes. Points come batch by batch, GEMM first, then Decoupled and
// ZipServ.
func Figure5(spec gpu.Spec, mk int, ns []int, cr float64) []Point {
	var out []Point
	for _, n := range ns {
		for _, p := range []struct {
			name string
			ci   float64
		}{
			{"GEMM", CIGemm(mk, mk, n)},
			{"Decoupled", CIDecoupled(mk, mk, n, cr)},
			{"ZipServ", CIZipServ(mk, mk, n, cr)},
		} {
			out = append(out, Point{Pipeline: p.name, N: n, CI: p.ci, Attainable: Attainable(spec, p.ci)})
		}
	}
	return out
}
