package core

import (
	"math"
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

func TestNewCountExactValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < 2")
		}
	}()
	NewCountExactSpec(Config{N: 0})
}

func TestCountExactOutputsExactN(t *testing.T) {
	// Theorem 2: every agent outputs the exact population size.
	for _, n := range []int{256, 1000, 4096, 10000} {
		for trial := 0; trial < 3; trial++ {
			spec := NewCountExactSpec(Config{N: n})
			p, res := runAgent(t, spec.Spec, sim.Config{Seed: uint64(100*n + trial)})
			if !res.Converged {
				t.Fatalf("n=%d trial %d: did not converge", n, trial)
			}
			for i := 0; i < n; i++ {
				if out := p.Output(i); out != int64(n) {
					t.Fatalf("n=%d trial %d: agent %d outputs %d", n, trial, i, out)
				}
			}
			if exactOverflowed(spec, p.View()) {
				t.Errorf("n=%d: unexpected overflow", n)
			}
		}
	}
}

func TestCountExactTimeIsNLogN(t *testing.T) {
	// Theorem 2: O(n log n) interactions; the normalized time must stay
	// flat across the sweep.
	var norms []float64
	for _, n := range []int{1024, 4096, 16384} {
		_, res := runAgent(t, NewCountExactSpec(Config{N: n}).Spec, sim.Config{Seed: uint64(n)})
		if !res.Converged {
			t.Fatalf("n=%d: did not converge", n)
		}
		norms = append(norms, float64(res.Interactions)/(float64(n)*math.Log(float64(n))))
	}
	for i, norm := range norms {
		if norm > 1500 {
			t.Errorf("run %d: %.1f × n ln n is out of band", i, norm)
		}
	}
	if norms[2] > 4*norms[0]+200 {
		t.Errorf("normalized time grows with n: %v", norms)
	}
}

func TestCountExactStateBounds(t *testing.T) {
	// Theorem 2 / Lemma 10: k ≤ log n + 3 and loads bounded by
	// 2^8·2^(2k) ≤ 2^14·n².
	n := 2048
	spec := NewCountExactSpec(Config{N: n})
	p, _ := runAgent(t, spec.Spec, sim.Config{Seed: 3})
	m := spec.Metrics(p.View())
	if m.MaxK > sim.Log2Ceil(n)+3 {
		t.Errorf("max k = %d exceeds log n + 3", m.MaxK)
	}
	bound := int64(1) << uint(14+2*sim.Log2Ceil(n))
	if m.MaxLoad > bound {
		t.Errorf("max load %d exceeds 2^14·n² = %d", m.MaxLoad, bound)
	}
}

func TestCountExactDeterministic(t *testing.T) {
	run := func() (sim.Result, int64) {
		p, res := runAgent(t, NewCountExactSpec(Config{N: 500}).Spec, sim.Config{Seed: 42})
		return res, p.Output(0)
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1 != r2 || o1 != o2 {
		t.Fatalf("non-deterministic: %+v/%d vs %+v/%d", r1, o1, r2, o2)
	}
}

func TestCountExactAlwaysHasALeader(t *testing.T) {
	n := 256
	spec := NewCountExactSpec(Config{N: n})
	p := sim.NewSpecAgent(spec.Spec)
	leaders := func() int64 {
		return countStates(spec.in, p.View(), func(s exactAgent) bool { return s.led.IsLeader })
	}
	r := rng.New(23)
	for i := 0; i < 3_000_000; i++ {
		u, v := r.Pair(n)
		p.Interact(u, v, r)
		if i%5000 == 0 && leaders() < 1 {
			t.Fatalf("no leader contender at interaction %d", i)
		}
	}
}

func TestCountExactShiftAblation(t *testing.T) {
	// The shift parameter trades phases for per-phase growth
	// (experiment A2); the result must stay exact across settings.
	for _, shift := range []int{2, 3, 4} {
		p, res := runAgent(t, NewCountExactSpec(Config{N: 1000, Shift: shift}).Spec, sim.Config{Seed: uint64(shift)})
		if !res.Converged || p.Output(0) != 1000 {
			t.Errorf("shift=%d: converged=%v output=%d", shift, res.Converged, p.Output(0))
		}
	}
}

func TestInjectExpBounds(t *testing.T) {
	cases := []struct {
		level uint8
		want  int32
	}{
		{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 2}, {5, 4}, {6, 8}, {7, 16}, {10, 16},
	}
	for _, c := range cases {
		if got := injectExp(c.level, DefaultShift); got != c.want {
			t.Errorf("injectExp(%d) = %d, want %d", c.level, got, c.want)
		}
	}
}

// exactOverflowed reports whether any agent of a CountExact
// configuration hit the int64 load guard (only possible beyond
// n ≈ 7·10⁸, see DESIGN.md).
func exactOverflowed(p *CountExactSpec, v sim.ConfigView) bool {
	return countStates(p.in, v, func(s exactAgent) bool { return s.overflow }) > 0
}

func TestLog2Floor64(t *testing.T) {
	cases := []struct {
		x    int64
		want int
	}{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}}
	for _, c := range cases {
		if got := log2Floor64(c.x); got != c.want {
			t.Errorf("log2Floor64(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}
