// Package stats implements the exponent-distribution analyses of the
// ZipServ paper: the empirical measurements of §3.1 (skew, entropy,
// top-k coverage, contiguity), the codeword-length trade-off model of
// §4.2 (AverageBits), and the theory of Appendix A (the erf law for
// Gaussian weights and its unimodality, which implies top-k
// contiguity).
package stats

import (
	"math"

	"zipserv/internal/bf16"
)

// Histogram counts occurrences of each raw 8-bit exponent value.
type Histogram [256]int64

// ExponentHistogram tallies the exponent field of every element of m.
func ExponentHistogram(m *bf16.Matrix) Histogram {
	var h Histogram
	for _, w := range m.Data {
		h[w.Exponent()]++
	}
	return h
}

// Add accumulates other into h (for aggregating across layers).
func (h *Histogram) Add(other Histogram) {
	for i := range h {
		h[i] += other[i]
	}
}

// Total returns the number of counted elements.
func (h Histogram) Total() int64 {
	var t int64
	for _, c := range h {
		t += c
	}
	return t
}

// Entropy returns the Shannon entropy of the exponent distribution in
// bits. The paper reports 2.57–2.74 bits for contemporary LLMs (§3.1).
func (h Histogram) Entropy() float64 {
	total := float64(h.Total())
	if total == 0 {
		return 0
	}
	var e float64
	for _, c := range h {
		if c > 0 {
			p := float64(c) / total
			e -= p * math.Log2(p)
		}
	}
	return e
}

// TopKCoverage returns the fraction of elements whose exponent is one
// of the k most frequent values (§3.1: top-3 > 67%, top-7 > 95%).
func (h Histogram) TopKCoverage(k int) float64 {
	total := h.Total()
	if total == 0 || k <= 0 {
		return 0
	}
	sorted := make([]int64, len(h))
	copy(sorted, h[:])
	// Select the k largest by partial sort (256 entries: full sort is fine).
	for i := 0; i < k && i < len(sorted); i++ {
		maxIdx := i
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[maxIdx] {
				maxIdx = j
			}
		}
		sorted[i], sorted[maxIdx] = sorted[maxIdx], sorted[i]
	}
	var sum int64
	for i := 0; i < k && i < len(sorted); i++ {
		sum += sorted[i]
	}
	return float64(sum) / float64(total)
}

// BestWindowCoverage returns the coverage of the best contiguous
// window of width k — the quantity TCA-TBE actually exploits (§3.1
// reports 97.1% average for k=7).
func (h Histogram) BestWindowCoverage(k int) float64 {
	total := h.Total()
	if total == 0 || k <= 0 {
		return 0
	}
	var sum int64
	for i := 0; i < k && i < 256; i++ {
		sum += h[i]
	}
	best := sum
	for s := 1; s+k <= 256; s++ {
		sum += h[s+k-1] - h[s-1]
		if sum > best {
			best = sum
		}
	}
	return float64(best) / float64(total)
}

// TopKIsContiguous reports whether the k most frequent exponents form
// a numerically contiguous run (§3.1: true for 99.6% of 3,875
// matrices). Ties are broken toward lower exponent values, matching
// the deterministic selection used elsewhere.
func (h Histogram) TopKIsContiguous(k int) bool {
	if k <= 0 || k > 256 {
		return false
	}
	type ec struct {
		e int
		n int64
	}
	entries := make([]ec, 256)
	for i := range entries {
		entries[i] = ec{i, h[i]}
	}
	// Partial selection of the k largest.
	for i := 0; i < k; i++ {
		maxIdx := i
		for j := i + 1; j < len(entries); j++ {
			if entries[j].n > entries[maxIdx].n ||
				(entries[j].n == entries[maxIdx].n && entries[j].e < entries[maxIdx].e) {
				maxIdx = j
			}
		}
		entries[i], entries[maxIdx] = entries[maxIdx], entries[i]
	}
	lo, hi := entries[0].e, entries[0].e
	for i := 1; i < k; i++ {
		if entries[i].e < lo {
			lo = entries[i].e
		}
		if entries[i].e > hi {
			hi = entries[i].e
		}
	}
	return hi-lo == k-1
}

// TheoreticalRatio returns the information-theoretic lossless
// compression ratio for BF16 given the exponent entropy: 16 bits vs
// (1 sign + 7 mantissa + H(exponent)) bits. §3.1 derives ≈1.51× from
// H ≈ 2.6.
func (h Histogram) TheoreticalRatio() float64 {
	return 16 / (8 + h.Entropy())
}

// AverageBits returns the expected per-element storage of an n-bit
// codeword scheme given coverage rn of the top 2^n−1 exponents:
//
//	rn·(n+8) + (1−rn)·(n+16)
//
// (§4.2 "The Choice of Codeword Length": 11.3 bits for n=3 vs 12.4 for
// n=2 and 12.1 for n=4.)
func AverageBits(n int, rn float64) float64 {
	return rn*float64(n+8) + (1-rn)*float64(n+16)
}

// CodewordCoverage returns rn for an n-bit codeword: the best
// contiguous-window coverage of width 2^n−1.
func (h Histogram) CodewordCoverage(n int) float64 {
	return h.BestWindowCoverage(1<<n - 1)
}
