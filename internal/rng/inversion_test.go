package rng

import (
	"math"
	"testing"
)

// binomialInversionRef is the log-ratio inversion sampler as it stood
// before the log-free stopping test: it takes log1p(−p) up front and
// one logarithm per uniform. It is the reference binomialInversion must
// match draw for draw, in value and in stream position.
func (r *Rand) binomialInversionRef(n int64, p float64) int64 {
	lnq := math.Log1p(-p)
	var k, sum int64
	for {
		u := (float64(r.Uint64()>>11) + 1) / (1 << 53) // (0, 1]
		g := math.Ceil(math.Log(u) / lnq)              // Geometric(p) >= 1
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

// inversionArgs maps raw fuzz words to an inversion-path argument pair:
// n log-uniform in [1, 2⁶²] (its low six bits pick the octave), and p
// below pmax = min(½, 10/n) — just under pmax in mode 0 (p just under ½,
// or n·p just under 10), within 2⁻³⁰ of it in mode 1, log-uniform over
// 60 octaves below it otherwise. ok is false when rounding pushed the
// pair off the inversion path.
func inversionArgs(nRaw, pRaw uint64) (n int64, p float64, ok bool) {
	e := min(nRaw&63, 62)
	n = int64(1)<<e + int64((nRaw>>6)&(1<<e-1))
	pmax := min(0.5, 10/float64(n))
	frac := float64(pRaw>>11) / (1 << 53) // [0, 1)
	switch pRaw % 4 {
	case 0:
		p = math.Nextafter(pmax, 0)
	case 1:
		p = math.Nextafter(pmax, 0) * (1 - frac*0x1p-30)
	default:
		p = pmax * math.Exp2(-60*frac)
	}
	return n, p, p > 0 && p <= 0.5 && float64(n)*p < 10
}

// FuzzBinomialInversion pins the log-free stopping test to the plain
// log-ratio sampler: from one seed, Binomial on the inversion path and
// binomialInversionRef must return the same variates and leave the
// generator in the same State after every draw.
func FuzzBinomialInversion(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0))              // n = 1, p just under ½
	f.Add(uint64(2), uint64(3<<6|4), uint64(0))         // n = 19, p just under ½
	f.Add(uint64(3), uint64(3<<6|3), uint64(1<<62|1))   // n = 11, p near ½
	f.Add(uint64(4), uint64(62), uint64(0))             // n = 2⁶², n·p just under 10
	f.Add(uint64(5), uint64(62), uint64(1<<63|1))       // n = 2⁶², n·p near 10
	f.Add(uint64(6), uint64(19<<6|5), uint64(0))        // n = 51, n·p just under 10
	f.Add(uint64(7), uint64(12<<6|12), uint64(1<<59|2)) // n = 4108, n·p ≈ 2.7
	f.Add(uint64(8), uint64(40), uint64(0xfff<<52|2))   // n = 2⁴⁰, n·p ≈ 10·2⁻⁶⁰
	f.Fuzz(func(t *testing.T, seed, nRaw, pRaw uint64) {
		n, p, ok := inversionArgs(nRaw, pRaw)
		if !ok {
			t.Skip("arguments off the inversion path")
		}
		got, want := New(seed), New(seed)
		for d := 0; d < 64; d++ {
			g, w := got.Binomial(n, p), want.binomialInversionRef(n, p)
			if g != w {
				t.Fatalf("Binomial(%d, %v) draw %d at seed %d: %d, reference %d", n, p, d, seed, g, w)
			}
			if got.State() != want.State() {
				t.Fatalf("Binomial(%d, %v) draw %d at seed %d: stream position differs from the reference", n, p, d, seed)
			}
		}
	})
}

// TestInversionStopBoundary checks inversionStop where it is tightest:
// at the largest float64 u that passes the test, the sampler's log path
// must stop too — ⌈ln u / log1p(−p)⌉ > rem. The grid spans rem from 1 to
// 2⁶² and p from 2⁻⁶⁰ to ½ with rem·p < 10, plus a dense strip of
// p ∈ [¼, ½) at rem = 1, where Bernoulli's inequality is an equality
// (q¹ = 1 − p) and the 2⁻⁴⁰ margin alone absorbs the log path's
// rounding. Floats in [0, 1] order like their bit patterns, so u is
// found by bisection over the bits.
func TestInversionStopBoundary(t *testing.T) {
	checked, never := 0, 0
	minSlack := math.Inf(1)
	check := func(rem, p float64) {
		stop := func(bits uint64) bool { return inversionStop(math.Float64frombits(bits), rem, p) }
		if !stop(1) { // not even the smallest positive float64
			never++
			return
		}
		lo, hi := uint64(1), math.Float64bits(1) // stop(lo) && !stop(hi)
		if stop(hi) {
			t.Fatalf("rem %v, p %v: inversionStop fires at u = 1", rem, p)
		}
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; stop(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		u := math.Float64frombits(lo)
		q := math.Log(u) / math.Log1p(-p)
		if !(math.Ceil(q) > rem) {
			t.Errorf("rem %v, p %v: u = %v passes inversionStop, but the log path waits ⌈%v⌉ ≤ rem", rem, p, u, q)
		}
		minSlack = min(minSlack, (q-rem)/rem)
		checked++
	}
	for re := 0; re <= 124; re++ {
		rem := math.Round(math.Exp2(float64(re) / 2))
		for pe := 4; pe <= 240; pe++ {
			if p := math.Exp2(-float64(pe) / 4); rem*p < 10 {
				check(rem, p)
			}
		}
	}
	for i := 0; i < 4096; i++ {
		check(1, 0.25*math.Exp2(float64(i)/4096))
	}
	t.Logf("%d grid points checked, %d where the test never fires; least relative slack %.3g", checked, never, minSlack)
}

// BenchmarkBinomial times one Binomial draw at fixed arguments in each
// n·p band of the sampler: three on the inversion path, where the
// log-free stopping test decides most draws of the smallest bands, and
// one on BTRS.
func BenchmarkBinomial(b *testing.B) {
	const n = 1 << 12
	for _, bc := range []struct {
		name string
		p    float64
	}{
		{"np=0.0625", 0x1p-16},
		{"np=0.5", 0x1p-13},
		{"np=4", 0x1p-10},
		{"np=32/BTRS", 0x1p-7},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binomialSink += r.Binomial(n, bc.p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
		})
	}
}

// binomialSink keeps the benchmarked draws live.
var binomialSink int64
