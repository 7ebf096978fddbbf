package backup

import "popcount/internal/rng"

// The hand-written agent arrays of the backup protocols. The specs in
// spec.go are the only forms the simulator runs; these arrays are the
// references the specs are held to bit for bit (spec_test.go), and the
// direct forms the protocol-level tests in backup_test.go inspect.

// ApproxProtocol is a standalone simulation of the approximate backup.
type ApproxProtocol struct {
	states []ApproxState
}

// NewApprox returns the approximate backup over n agents.
func NewApprox(n int) *ApproxProtocol {
	s := make([]ApproxState, n)
	for i := range s {
		s[i] = InitApprox()
	}
	return &ApproxProtocol{states: s}
}

// N returns the population size.
func (p *ApproxProtocol) N() int { return len(p.states) }

// Interact applies one transition.
func (p *ApproxProtocol) Interact(u, v int, _ *rng.Rand) {
	ApproxInteract(&p.states[u], &p.states[v])
}

// Converged reports whether the configuration matches Lemma 12: the pile
// sizes form the binary representation of n and every agent's kmax equals
// ⌊log n⌋.
func (p *ApproxProtocol) Converged() bool {
	n := len(p.states)
	var counts [64]int
	want := int16(log2Floor(n))
	for i := range p.states {
		if p.states[i].KMax != want {
			return false
		}
		if k := p.states[i].K; k >= 0 {
			counts[k]++
		}
	}
	for i := 0; i <= int(want); i++ {
		if counts[i] != (n>>uint(i))&1 {
			return false
		}
	}
	return true
}

// Output returns agent i's kmax (the estimate ⌊log n⌋ at convergence).
func (p *ApproxProtocol) Output(i int) int64 { return int64(p.states[i].KMax) }

// TotalTokens returns Σ 2^k over non-empty agents (conserved, equals n).
func (p *ApproxProtocol) TotalTokens() int64 {
	var s int64
	for i := range p.states {
		if k := p.states[i].K; k >= 0 {
			s += int64(1) << uint(k)
		}
	}
	return s
}

// PileCounts returns, for each level i, the number of agents holding 2^i
// tokens.
func (p *ApproxProtocol) PileCounts() []int {
	counts := make([]int, 64)
	maxK := 0
	for i := range p.states {
		if k := p.states[i].K; k >= 0 {
			counts[k]++
			if int(k) > maxK {
				maxK = int(k)
			}
		}
	}
	return counts[:maxK+1]
}

// SparseApproxProtocol is the reduced-state variant of the approximate
// backup used by Theorem 1.3 (Appendix C.1): it is sufficient that all
// but log n agents know the approximation. Agents holding a pile (k ≥ 0)
// do not maintain a separate kmax variable — their output is their own
// pile exponent — so each agent needs only O(log n) states instead of
// O(log² n). At convergence the ≤ ⌊log n⌋ + 1 pile holders may output a
// value below ⌊log n⌋; every empty agent outputs ⌊log n⌋ exactly.
type SparseApproxProtocol struct {
	states []ApproxState
}

// NewSparseApprox returns the reduced-state approximate backup over n
// agents.
func NewSparseApprox(n int) *SparseApproxProtocol {
	s := make([]ApproxState, n)
	for i := range s {
		s[i] = InitApprox()
	}
	return &SparseApproxProtocol{states: s}
}

// N returns the population size.
func (p *SparseApproxProtocol) N() int { return len(p.states) }

// Interact applies Equation (3) with the sparse kmax rule: pile holders
// do not store kmax (it is pinned to their own k).
func (p *SparseApproxProtocol) Interact(u, v int, _ *rng.Rand) {
	a, b := &p.states[u], &p.states[v]
	ApproxInteract(a, b)
	if a.K >= 0 {
		a.KMax = a.K
	}
	if b.K >= 0 {
		b.KMax = b.K
	}
}

// Output returns agent i's output: kmax for empty agents, the own pile
// exponent for pile holders.
func (p *SparseApproxProtocol) Output(i int) int64 { return int64(p.states[i].KMax) }

// Converged reports whether the piles form the binary representation of
// n and every empty agent outputs ⌊log n⌋ (Theorem 1.3 allows the
// ≤ log n pile holders to disagree).
func (p *SparseApproxProtocol) Converged() bool {
	n := len(p.states)
	var counts [64]int
	want := int16(log2Floor(n))
	for i := range p.states {
		s := &p.states[i]
		if s.K >= 0 {
			counts[s.K]++
		} else if s.KMax != want {
			return false
		}
	}
	for i := 0; i <= int(want); i++ {
		if counts[i] != (n>>uint(i))&1 {
			return false
		}
	}
	return true
}

// Wrong returns the number of agents whose output differs from ⌊log n⌋.
// Theorem 1.3 tolerates up to log n of them.
func (p *SparseApproxProtocol) Wrong() int {
	want := int64(log2Floor(len(p.states)))
	c := 0
	for i := range p.states {
		if p.Output(i) != want {
			c++
		}
	}
	return c
}

// ExactProtocol is a standalone simulation of the exact backup.
type ExactProtocol struct {
	states    []ExactState
	uncounted int
}

// NewExact returns the exact backup over n agents.
func NewExact(n int) *ExactProtocol {
	s := make([]ExactState, n)
	for i := range s {
		s[i] = InitExact()
	}
	return &ExactProtocol{states: s, uncounted: n}
}

// N returns the population size.
func (p *ExactProtocol) N() int { return len(p.states) }

// Interact applies one transition.
func (p *ExactProtocol) Interact(u, v int, _ *rng.Rand) {
	cv := p.states[v].Counted
	ExactInteract(&p.states[u], &p.states[v])
	if !cv && p.states[v].Counted {
		p.uncounted--
	}
}

// Converged reports whether every agent outputs n.
func (p *ExactProtocol) Converged() bool {
	n := int64(len(p.states))
	for i := range p.states {
		if p.states[i].Count != n {
			return false
		}
	}
	return true
}

// Output returns agent i's count.
func (p *ExactProtocol) Output(i int) int64 { return p.states[i].Count }

// Uncounted returns the number of agents still holding unmerged tokens.
func (p *ExactProtocol) Uncounted() int { return p.uncounted }
