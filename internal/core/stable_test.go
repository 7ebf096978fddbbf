package core

import (
	"testing"

	"popcount/internal/sim"
)

func TestStableApproximateCleanPath(t *testing.T) {
	// Theorem 1.2: w.h.p. the fast path succeeds with no error and the
	// protocol stabilizes on ⌊log n⌋ or ⌈log n⌉.
	for _, n := range []int{512, 1000, 2048} {
		lo, hi := int64(sim.Log2Floor(n)), int64(sim.Log2Ceil(n))
		p, res := runAgent(t, NewStableApproximateSpec(Config{N: n}, false).Spec, sim.Config{Seed: uint64(7 * n)})
		if !res.Converged {
			t.Fatalf("n=%d: did not converge", n)
		}
		for i := 0; i < n; i++ {
			if out := p.Output(i); out != lo && out != hi {
				t.Fatalf("n=%d: agent %d outputs %d, want %d or %d", n, i, out, lo, hi)
			}
		}
	}
}

func TestStableApproximateFaultPath(t *testing.T) {
	// Fault injection corrupts the leader's search result; the
	// ErrorDetection protocol (Algorithm 7) must detect it and the backup
	// must deliver exactly ⌊log n⌋.
	for _, n := range []int{128, 300} {
		want := int64(sim.Log2Floor(n))
		p, res := runAgent(t, NewStableApproximateSpec(Config{N: n}, true).Spec, sim.Config{
			Seed:            uint64(3 * n),
			MaxInteractions: int64(n) * int64(n) * 800,
		})
		if !p.Errored() {
			t.Fatalf("n=%d: fault was not detected", n)
		}
		if !res.Converged {
			t.Fatalf("n=%d: backup did not stabilize", n)
		}
		for i := 0; i < n; i++ {
			if out := p.Output(i); out != want {
				t.Fatalf("n=%d: agent %d outputs %d, want %d", n, i, out, want)
			}
		}
	}
}

func TestStableApproximateErrorDetectionCorrectsSmallDrift(t *testing.T) {
	// Algorithm 7's line 19 recomputes k = ⌊k + 3 − log ℓ⌉ from the
	// balanced load, so the final answer is anchored to the load
	// balancing rather than to the search result alone. This test pins
	// that behavior indirectly: across seeds the clean path never leaves
	// the {⌊log n⌋, ⌈log n⌉} window even when the search concluded at the
	// upper end.
	n := 1500
	lo, hi := int64(sim.Log2Floor(n)), int64(sim.Log2Ceil(n))
	for trial := 0; trial < 3; trial++ {
		p, res := runAgent(t, NewStableApproximateSpec(Config{N: n}, false).Spec, sim.Config{Seed: uint64(13*n + trial)})
		if !res.Converged {
			t.Fatalf("trial %d: did not converge", trial)
		}
		if out := p.Output(0); out != lo && out != hi {
			t.Fatalf("trial %d: output %d outside {%d, %d}", trial, out, lo, hi)
		}
	}
}

func TestStableCountExactCleanPath(t *testing.T) {
	for _, n := range []int{512, 1000, 2048} {
		p, res := runAgent(t, NewStableCountExactSpec(Config{N: n}, false).Spec, sim.Config{Seed: uint64(11 * n)})
		if !res.Converged {
			t.Fatalf("n=%d: did not converge", n)
		}
		for i := 0; i < n; i++ {
			if out := p.Output(i); out != int64(n) {
				t.Fatalf("n=%d: agent %d outputs %d", n, i, out)
			}
		}
	}
}

func TestStableCountExactFaultPath(t *testing.T) {
	// Fault injection makes the approximation k four doublings too
	// small; the refinement's pre-multiplication load check must fire
	// and the exact backup must deliver n with probability 1.
	for _, n := range []int{128, 300} {
		p, res := runAgent(t, NewStableCountExactSpec(Config{N: n}, true).Spec, sim.Config{
			Seed:            uint64(5 * n),
			MaxInteractions: int64(n) * int64(n) * 800,
		})
		if !p.Errored() {
			t.Fatalf("n=%d: fault was not detected", n)
		}
		if !res.Converged {
			t.Fatalf("n=%d: backup did not stabilize", n)
		}
		for i := 0; i < n; i++ {
			if out := p.Output(i); out != int64(n) {
				t.Fatalf("n=%d: agent %d outputs %d, want %d", n, i, out, n)
			}
		}
	}
}

func TestStableVariantsValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewStableApproximateSpec(Config{N: 1}, false) },
		func() { NewStableCountExactSpec(Config{N: 1}, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for n < 2")
				}
			}()
			f()
		}()
	}
}

func TestLog2fAccuracy(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0}, {2, 1}, {4, 2}, {8, 3}, {32, 5}, {3, 1.584962500721156},
	}
	for _, c := range cases {
		if got := log2f(c.x); got < c.want-1e-4 || got > c.want+1e-4 {
			t.Errorf("log2f(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestRoundToInt(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{{0.4, 0}, {0.5, 1}, {1.6, 2}, {-0.4, 0}, {-0.6, -1}, {9.5, 10}}
	for _, c := range cases {
		if got := roundToInt(c.x); got != c.want {
			t.Errorf("roundToInt(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}
