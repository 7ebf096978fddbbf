// Discrete distribution samplers for the count-based engine's batch
// planner: exact binomial and hypergeometric variates over int64
// supports. A batch of τ interactions projects onto ordered state pairs
// as a multinomial over the pair weights; the planner decomposes that
// multinomial into a chain of conditional binomials, and splits an
// already-sampled batch in half with conditional hypergeometrics (the τ
// slots of a batch are exchangeable, so the first-half counts of each
// pair type are a multivariate hypergeometric of the sampled totals).
//
// Both samplers are exact (no normal approximation): Binomial uses
// geometric-waiting-time inversion for small n·p and Hörmann's
// transformed-rejection method BTRS for the bulk regime; Hypergeometric
// uses mode-centered inversion, whose expected cost is O(σ) — it is
// only called on drift-bound violations, which are rare by design.
//
// The planner's chains are dominated by small-n·p draws, and most of
// them stop at their first uniform: X = 0 iff that uniform u is below
// qⁿ. The inversion sampler therefore tests each uniform against a
// polynomial lower bound on q^rem (inversionStop) before taking any
// logarithm, and returns from the same uniform when the test fires —
// the logarithmic path would have stopped there too, so the variates
// and the stream position are those of the plain log-ratio sampler.
package rng

import "math"

// Binomial returns a Binomial(n, p) variate: the number of successes in
// n independent trials of probability p. It panics for n < 0; p is
// clamped to [0, 1]. For n·p < 10 (after mirroring p to at most ½) it
// sums geometric waiting times by inversion, one uniform each, and
// returns as soon as a uniform is small enough that its wait certainly
// overruns the trials left (inversionStop) — without a logarithm, and
// with log1p(−p) computed only at the first uniform that fails the
// test; otherwise it runs BTRS. Each draw consumes the same uniforms,
// and returns the same value, as plain log-ratio inversion would.
func (r *Rand) Binomial(n int64, p float64) int64 {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Work on q = min(p, 1-p) and mirror the result: both methods below
	// require p <= 1/2.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if float64(n)*p < 10 {
		return r.binomialInversion(n, p)
	}
	return r.binomialBTRS(n, p)
}

// binomialInversion samples by summing Geometric(p) waiting times until
// they exceed n — exact, with expected cost O(n·p + 1). Each uniform u
// is first tested by inversionStop; log1p(−p) and log(u) are taken only
// when the test fails. Requires 0 < p <= 1/2 and n·p < 10.
func (r *Rand) binomialInversion(n int64, p float64) int64 {
	var lnq float64 // log1p(−p) < 0, once a uniform needs it
	var k, sum int64
	for {
		u := (float64(r.Uint64()>>11) + 1) / (1 << 53) // (0, 1]
		if inversionStop(u, float64(n-sum), p) {
			return k
		}
		if lnq == 0 {
			lnq = math.Log1p(-p)
		}
		g := math.Ceil(math.Log(u) / lnq) // Geometric(p) >= 1
		if g < 1 {
			g = 1 // u == 1.0 exactly: ceil(-0) would yield 0
		}
		if !(g < float64(n)+1-float64(sum)) { // also catches +Inf/NaN
			return k
		}
		sum += int64(g)
		if sum > n {
			return k
		}
		k++
	}
}

// inversionStop reports that the Geometric(p) wait ⌈ln u / ln q⌉ drawn
// from uniform u (q = 1 − p) certainly overruns the rem trials left:
// u < (1 − rem·p)(1 − 2⁻⁴⁰). It holds only where the sampler's log-ratio
// test, as computed, stops at the same uniform:
//
//   - In real arithmetic the wait overruns rem iff u < q^rem, and
//     Bernoulli's inequality gives q^rem ≥ 1 − rem·p.
//   - The sampler has p ≤ ½ and rem·p < 10. A u below the bound puts
//     the exact quotient ln u / ln q at least 2⁻⁴⁰/|ln q| above rem.
//     The computed Log(u)/Log1p(−p) errs by a few ulps times rem, more
//     than 2⁷ times less, so it lands above rem too.
//   - Rounding in the bound itself matters only where 1 − rem·p is
//     tiny, near rem·p = 1, and there q^rem ≥ 4^(−rem·p) exceeds the
//     bound by far. For rem·p ≥ 1 the bound is ≤ 0, or below the
//     smallest uniform 2⁻⁵³, and the test never fires.
//
// TestInversionStopBoundary runs the log path at the largest float64
// that passes this test, over a (rem, p) grid.
func inversionStop(u, rem, p float64) bool {
	return u < (1-rem*p)*(1-0x1p-40)
}

// binomialBTRS is Hörmann's transformed-rejection binomial sampler
// (BTRS, 1993), exact for p <= 1/2 and n·p >= 10.
func (r *Rand) binomialBTRS(n int64, p float64) int64 {
	fn := float64(n)
	stddev := math.Sqrt(fn * p * (1 - p))
	b := 1.15 + 2.53*stddev
	a := -0.0873 + 0.0248*b + 0.01*p
	c := fn*p + 0.5
	vr := 0.92 - 4.2/b
	odds := p / (1 - p)
	alpha := (2.83 + 5.1/b) * stddev
	m := math.Floor((fn + 1) * p)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > fn {
			continue
		}
		// Acceptance region fully inside the hat: no density evaluation.
		if us >= 0.07 && v <= vr {
			return int64(kf)
		}
		v = math.Log(v * alpha / (a/(us*us) + b))
		ub := (m+0.5)*math.Log((m+1)/(odds*(fn-m+1))) +
			(fn+1)*math.Log((fn-m+1)/(fn-kf+1)) +
			(kf+0.5)*math.Log(odds*(fn-kf+1)/(kf+1)) +
			stirlingTail(m) + stirlingTail(fn-m) -
			stirlingTail(kf) - stirlingTail(fn-kf)
		if v <= ub {
			return int64(kf)
		}
	}
}

// stirlingTail returns ln(k!) − [(k+½)·ln(k+1) − (k+1) + ½·ln(2π)], the
// Stirling-series remainder used by BTRS's exact acceptance bound.
func stirlingTail(k float64) float64 {
	if k <= 9 {
		return stirlingTailTable[int(k)]
	}
	kp1 := k + 1
	kp1sq := kp1 * kp1
	return (1.0/12 - (1.0/360-1.0/1260/kp1sq)/kp1sq) / kp1
}

var stirlingTailTable = [10]float64{
	0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
	0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
	0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
	0.008330563433362871,
}

// Hypergeometric returns the number of "good" items in a uniform sample
// of sample items drawn without replacement from a population of total
// items containing good good ones. It panics unless
// 0 <= good <= total and 0 <= sample <= total.
func (r *Rand) Hypergeometric(sample, good, total int64) int64 {
	if good < 0 || total < 0 || good > total || sample < 0 || sample > total {
		panic("rng: Hypergeometric parameters out of range")
	}
	// Symmetry reductions: sample the smaller side of each pair.
	if sample*2 > total {
		// Complement of the unsampled items.
		return good - r.Hypergeometric(total-sample, good, total)
	}
	if good*2 > total {
		return sample - r.Hypergeometric(sample, total-good, total)
	}
	// Support after reduction: [max(0, sample+good-total), min(sample, good)].
	lo := sample + good - total
	if lo < 0 {
		lo = 0
	}
	hi := sample
	if good < hi {
		hi = good
	}
	if lo == hi {
		return lo
	}
	return r.hypergeomInversion(sample, good, total, lo, hi)
}

// hypergeomInversion samples by inverting the CDF outward from the
// mode: the pmf at the mode is computed once via lgamma, neighbors
// follow from the one-step ratio recurrence, and probability mass is
// consumed alternating right/left until the uniform variate is
// exhausted. Expected cost is O(σ) steps.
func (r *Rand) hypergeomInversion(sample, good, total, lo, hi int64) int64 {
	mode := (sample + 1) * (good + 1) / (total + 2)
	if mode < lo {
		mode = lo
	}
	if mode > hi {
		mode = hi
	}
	logPmf := func(k int64) float64 {
		return lnChoose(good, k) + lnChoose(total-good, sample-k) - lnChoose(total, sample)
	}
	// ratioUp(k) = pmf(k+1)/pmf(k).
	ratioUp := func(k int64) float64 {
		return float64(good-k) * float64(sample-k) /
			(float64(k+1) * float64(total-good-sample+k+1))
	}
	u := r.Float64()
	pm := math.Exp(logPmf(mode))
	if u < pm {
		return mode
	}
	u -= pm
	pUp, pDn := pm, pm
	up, dn := mode, mode
	for up < hi || dn > lo {
		if up < hi {
			pUp *= ratioUp(up)
			up++
			if u < pUp {
				return up
			}
			u -= pUp
		}
		if dn > lo {
			pDn /= ratioUp(dn - 1)
			dn--
			if u < pDn {
				return dn
			}
			u -= pDn
		}
	}
	// Accumulated float error consumed the tail mass (u was within one
	// ulp of 1): return the mode, the maximum-likelihood value.
	return mode
}

// lnChoose returns ln C(n, k) for 0 <= k <= n.
func lnChoose(n, k int64) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}
