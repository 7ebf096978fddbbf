package core

import (
	"math"
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// approxLeaders returns the number of current leader contenders of a
// configuration of protocol Approximate.
func approxLeaders(p *ApproximateSpec, v sim.ConfigView) int64 {
	return countStates(p.in, v, func(s approxAgent) bool { return s.led.IsLeader })
}

func TestNewApproximateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < 2")
		}
	}()
	NewApproximateSpec(Config{N: 1})
}

func TestApproximateOutputsFloorOrCeilLog(t *testing.T) {
	// Theorem 1.1: w.h.p. every agent outputs ⌊log n⌋ or ⌈log n⌉.
	// Non-powers of two exercise the interesting case ⌊log n⌋ ≠ ⌈log n⌉.
	for _, n := range []int{300, 1000, 1500, 4096} {
		lo, hi := int64(sim.Log2Floor(n)), int64(sim.Log2Ceil(n))
		for trial := 0; trial < 3; trial++ {
			spec := NewApproximateSpec(Config{N: n})
			p, res := runAgent(t, spec.Spec, sim.Config{Seed: uint64(1000*n + trial)})
			if !res.Converged {
				t.Fatalf("n=%d trial %d: did not converge", n, trial)
			}
			for i := 0; i < n; i++ {
				if out := p.Output(i); out != lo && out != hi {
					t.Fatalf("n=%d: agent %d outputs %d, want %d or %d", n, i, out, lo, hi)
				}
			}
			if l := approxLeaders(spec, p.View()); l != 1 {
				t.Errorf("n=%d: %d leaders after convergence", n, l)
			}
		}
	}
}

func TestApproximateEstimateWithinFactorTwo(t *testing.T) {
	n := 1000
	p, _ := runAgent(t, NewApproximateSpec(Config{N: n}).Spec, sim.Config{Seed: 5})
	k := p.Output(0)
	if k < 0 {
		t.Fatalf("agent 0 is still empty (k = %d)", k)
	}
	if est := int64(1) << uint(k); est < int64(n)/2 || est > 2*int64(n) {
		t.Fatalf("estimate %d outside [n/2, 2n]", est)
	}
}

func TestApproximateConvergesInNLog2N(t *testing.T) {
	// Theorem 1.1: O(n log² n) interactions. The band is generous — the
	// point is that the normalized time does not grow with n.
	var norms []float64
	for _, n := range []int{512, 2048, 8192} {
		_, res := runAgent(t, NewApproximateSpec(Config{N: n}).Spec, sim.Config{Seed: uint64(n)})
		if !res.Converged {
			t.Fatalf("n=%d: did not converge", n)
		}
		lg := math.Log(float64(n))
		norms = append(norms, float64(res.Interactions)/(float64(n)*lg*lg))
	}
	for i, norm := range norms {
		if norm > 500 {
			t.Errorf("run %d: %.1f × n ln² n is out of band", i, norm)
		}
	}
	// The normalized constant must not blow up across the sweep.
	if norms[2] > 4*norms[0]+100 {
		t.Errorf("normalized time grows with n: %v", norms)
	}
}

func TestApproximateStateBounds(t *testing.T) {
	// Theorem 1.1: states O(log n · log log n) — level stays O(log log n)
	// and k stays ≤ ⌈log n⌉ + O(1).
	n := 4096
	spec := NewApproximateSpec(Config{N: n})
	p, _ := runAgent(t, spec.Spec, sim.Config{Seed: 9})
	m := spec.Metrics(p.View())
	loglogn := math.Log2(math.Log2(float64(n)))
	if float64(m.MaxLevel) > loglogn+8 {
		t.Errorf("max level %d exceeds log log n + 8", m.MaxLevel)
	}
	if m.MaxK > sim.Log2Ceil(n)+2 {
		t.Errorf("max k %d exceeds ⌈log n⌉ + 2", m.MaxK)
	}
}

func TestApproximateDeterministic(t *testing.T) {
	run := func() (sim.Result, int64) {
		p, res := runAgent(t, NewApproximateSpec(Config{N: 300}).Spec, sim.Config{Seed: 1234})
		return res, p.Output(0)
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1 != r2 || o1 != o2 {
		t.Fatalf("non-deterministic: %+v/%d vs %+v/%d", r1, o1, r2, o2)
	}
}

func TestApproximateSearchInvariants(t *testing.T) {
	// During the whole run: at least one leader contender exists, and the
	// output variable k never exceeds its cap.
	n := 256
	spec := NewApproximateSpec(Config{N: n})
	p := sim.NewSpecAgent(spec.Spec)
	r := rng.New(17)
	for i := 0; i < 3_000_000; i++ {
		u, v := r.Pair(n)
		p.Interact(u, v, r)
		if i%5000 == 0 {
			if approxLeaders(spec, p.View()) < 1 {
				t.Fatalf("no leader contender at interaction %d", i)
			}
			if m := spec.Metrics(p.View()); m.MaxK > maxSearchK {
				t.Fatalf("k exceeded cap: %d", m.MaxK)
			}
		}
	}
}

func TestApproximateSmallPopulations(t *testing.T) {
	// The uniform protocol must behave sensibly for tiny n too (the
	// w.h.p. guarantees are vacuous there, so only sanity is checked:
	// convergence to some non-negative k).
	for _, n := range []int{2, 3, 5, 8} {
		p, res := runAgent(t, NewApproximateSpec(Config{N: n}).Spec,
			sim.Config{Seed: uint64(n), MaxInteractions: 50_000_000})
		if !res.Converged {
			t.Logf("n=%d: no convergence within cap (acceptable for tiny n)", n)
			continue
		}
		if p.Output(0) < 0 {
			t.Errorf("n=%d: negative output %d", n, p.Output(0))
		}
	}
}
