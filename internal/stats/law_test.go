package stats

import "math"

// The Appendix A theory: the exponent law of Gaussian weights and the
// properties Theorems A.1 and A.2 derive from it. The tests compare
// measured histograms against these closed forms.

// gaussianExponentLaw returns the probability of each raw exponent
// value for weights drawn from N(0, σ²), per Appendix A:
//
//	P(E = e) = erf(2^(x+1)/(σ√2)) − erf(2^x/(σ√2)),  x = e − 127
//
// Exponent 0 (zero + subnormals) absorbs all mass below 2^−126, and
// exponent 254 absorbs the (negligible) upper tail; exponent 255
// (Inf/NaN) has probability 0 for finite Gaussian draws.
func gaussianExponentLaw(sigma float64) [256]float64 {
	var p [256]float64
	if sigma <= 0 {
		p[0] = 1
		return p
	}
	cdf := func(x float64) float64 { // P(|w| < x)
		return math.Erf(x / (sigma * math.Sqrt2))
	}
	// Mass below the smallest normal magnitude 2^-126.
	p[0] = cdf(math.Ldexp(1, -126))
	for e := 1; e <= 254; e++ {
		x := e - 127
		lo := math.Ldexp(1, x)
		hi := math.Ldexp(1, x+1)
		p[e] = cdf(hi) - cdf(lo)
	}
	// Fold the tail above 2^128 into the top finite exponent.
	p[254] += 1 - cdf(math.Ldexp(1, 128))
	return p
}

// isUnimodal reports whether the positive support of dist rises to a
// single peak and then falls (Theorem A.1 claims this for the
// Gaussian exponent law). Plateaus are tolerated.
func isUnimodal(dist []float64) bool {
	const eps = 1e-15
	// Trim zero tails.
	lo, hi := 0, len(dist)-1
	for lo <= hi && dist[lo] <= eps {
		lo++
	}
	for hi >= lo && dist[hi] <= eps {
		hi--
	}
	if lo >= hi {
		return true
	}
	rising := true
	for i := lo + 1; i <= hi; i++ {
		if dist[i] > dist[i-1]+eps {
			if !rising {
				return false // rose again after falling
			}
		} else if dist[i] < dist[i-1]-eps {
			rising = false
		}
	}
	return true
}

// expectedEntropy returns the Shannon entropy (bits) of a probability
// distribution.
func expectedEntropy(dist []float64) float64 {
	var e float64
	for _, p := range dist {
		if p > 0 {
			e -= p * math.Log2(p)
		}
	}
	return e
}

// expectedWindowCoverage returns the maximal probability mass covered
// by a contiguous window of width k under dist.
func expectedWindowCoverage(dist []float64, k int) float64 {
	if k <= 0 || len(dist) == 0 {
		return 0
	}
	if k > len(dist) {
		k = len(dist)
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += dist[i]
	}
	best := sum
	for s := 1; s+k <= len(dist); s++ {
		sum += dist[s+k-1] - dist[s-1]
		if sum > best {
			best = sum
		}
	}
	return best
}
