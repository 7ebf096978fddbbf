package balance

import "popcount/internal/rng"

// ClassicalProtocol is the hand-written agent array of classical load
// balancing. NewClassicalSpec is the form the simulator runs; this array
// is the reference the spec is held to bit for bit (spec_test.go), and
// the direct form the process-level tests in balance_test.go inspect.
type ClassicalProtocol struct {
	loads []int64
}

// NewClassicalPointMass returns n agents where agent 0 holds m tokens.
func NewClassicalPointMass(n int, m int64) *ClassicalProtocol {
	loads := make([]int64, n)
	loads[0] = m
	return &ClassicalProtocol{loads: loads}
}

// N returns the population size.
func (p *ClassicalProtocol) N() int { return len(p.loads) }

// Interact applies one balancing step.
func (p *ClassicalProtocol) Interact(u, v int, _ *rng.Rand) {
	Classical(&p.loads[u], &p.loads[v])
}

// Converged reports whether the discrepancy is at most 2, the bound the
// classical process reaches within O(n log n) interactions w.h.p.
// ([BFKK19, Theorem 1]; reaching discrepancy 1 exactly takes Θ(n²·…)
// because the final surplus token performs a random walk).
func (p *ClassicalProtocol) Converged() bool { return p.Discrepancy() <= 2 }

// SumLoads returns the total load, for conservation checks.
func (p *ClassicalProtocol) SumLoads() int64 {
	var s int64
	for _, x := range p.loads {
		s += x
	}
	return s
}

// Discrepancy returns max load − min load.
func (p *ClassicalProtocol) Discrepancy() int64 {
	minL, maxL := p.loads[0], p.loads[0]
	for _, x := range p.loads[1:] {
		if x < minL {
			minL = x
		}
		if x > maxL {
			maxL = x
		}
	}
	return maxL - minL
}

// Output returns agent i's load (Outputter).
func (p *ClassicalProtocol) Output(i int) int64 { return p.loads[i] }
