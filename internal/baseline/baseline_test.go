package baseline

import (
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// tokenBagTotal returns the conserved token total of a TokenBag
// agent form (always n).
func tokenBagTotal(p *sim.SpecAgent) int64 {
	var s int64
	for i := 0; i < p.N(); i++ {
		s += int64(p.Code(i) >> 32)
	}
	return s
}

func TestTokenBagOutputsN(t *testing.T) {
	for _, n := range []int{10, 100, 500} {
		p := sim.NewSpecAgent(NewTokenBagSpec(n))
		res, err := sim.Run(p, sim.Config{Seed: uint64(n), MaxInteractions: int64(n) * int64(n) * 100})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: token bag did not converge", n)
		}
		for i := 0; i < n; i++ {
			if p.Output(i) != int64(n) {
				t.Fatalf("n=%d: agent %d outputs %d", n, i, p.Output(i))
			}
		}
	}
}

func TestTokenBagConservesTokens(t *testing.T) {
	n := 128
	p := sim.NewSpecAgent(NewTokenBagSpec(n))
	r := rng.New(2)
	for i := 0; i < 100000; i++ {
		u, v := r.Pair(n)
		p.Interact(u, v, r)
		if i%10000 == 0 && tokenBagTotal(p) != int64(n) {
			t.Fatalf("token total %d after %d interactions", tokenBagTotal(p), i)
		}
	}
	if tokenBagTotal(p) != int64(n) {
		t.Fatalf("final token total %d", tokenBagTotal(p))
	}
}

func TestTokenBagBestMonotone(t *testing.T) {
	n := 64
	p := sim.NewSpecAgent(NewTokenBagSpec(n))
	r := rng.New(3)
	prev := make([]int64, n)
	for i := 0; i < 200000; i++ {
		u, v := r.Pair(n)
		p.Interact(u, v, r)
		for _, w := range [2]int{u, v} {
			if p.Output(w) < prev[w] {
				t.Fatalf("agent %d best decreased from %d to %d", w, prev[w], p.Output(w))
			}
			prev[w] = p.Output(w)
		}
	}
}

func TestGeometricEstimateApproximatesLogN(t *testing.T) {
	// Max of n Geometric(1/2) samples is log₂ n + Θ(1); allow a wide
	// window of ±6 as the baseline only promises a polynomial-factor
	// approximation.
	for _, n := range []int{1 << 8, 1 << 12, 1 << 15} {
		p := sim.NewSpecAgent(NewGeometricSpec(n))
		res, err := sim.Run(p, sim.Config{Seed: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: estimator did not converge", n)
		}
		logn := int64(sim.Log2Floor(n))
		out := p.Output(0)
		if out < logn-6 || out > logn+8 {
			t.Errorf("n=%d: estimate %d too far from log n = %d", n, out, logn)
		}
	}
}

func TestGeometricEstimateAgreement(t *testing.T) {
	n := 512
	p := sim.NewSpecAgent(NewGeometricSpec(n))
	if _, err := sim.Run(p, sim.Config{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	want := p.Output(0)
	for i := 1; i < n; i++ {
		if p.Output(i) != want {
			t.Fatalf("agents disagree: %d vs %d", p.Output(i), want)
		}
	}
}

// TestGeometricInitSamplerDistribution pins the multinomial coin-phase
// sampler against the classical per-agent Geometric(1/2) draw: over one
// large population the pre-sampled value histogram must match the
// geometric pmf (conditional-binomial halving is exactly flipping every
// remaining agent's next coin at once).
func TestGeometricInitSamplerDistribution(t *testing.T) {
	const n = 1 << 20
	spec := NewGeometricSpec(n)
	init := spec.InitSample(n, rng.New(11))
	var sum int64
	for code, cnt := range init {
		if code&1 != 0 {
			t.Fatalf("init sampler produced an activated state %#x", code)
		}
		if cnt <= 0 {
			t.Fatalf("non-positive count %d for state %#x", cnt, code)
		}
		sum += cnt
	}
	if sum != n {
		t.Fatalf("init counts sum to %d, want %d", sum, n)
	}
	// P[value = g] = 2^-(g+1): the first few bins are large enough at
	// n = 2^20 for a tight relative check (binomial std ≈ 0.1–0.2%).
	for g := 0; g < 6; g++ {
		want := float64(n) / float64(int64(1)<<uint(g+1))
		got := float64(init[uint64(g)<<1])
		if d := (got - want) / want; d < -0.02 || d > 0.02 {
			t.Errorf("value %d: sampled %0.f agents, want ≈%.0f (relative gap %.3f)", g, got, want, d)
		}
	}
}
