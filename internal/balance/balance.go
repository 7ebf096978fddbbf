// Package balance implements the two load-balancing processes used by the
// paper's counting protocols.
//
// Classical load balancing ([BFKK19], used in Sections 4.1 and 4.2): when
// agents u and v interact, their loads are rebalanced to
// (⌊(ℓu+ℓv)/2⌋, ⌈(ℓu+ℓv)/2⌉). The total load is conserved exactly and the
// discrepancy drops to O(1) within O(n log n) interactions w.h.p.
//
// Powers-of-two load balancing (Section 3.1, Equation (1), Lemma 8): agent
// loads are powers of two stored as their logarithm k (k = −1 encodes an
// empty agent). A balancing step is permitted only between an empty agent
// and an agent with load > 1, which then split evenly:
//
//	(k′u, k′v) = (ku−1, ku−1)  if ku > 0 and kv = −1
//	             (kv−1, kv−1)  if ku = −1 and kv > 0
//	             (ku, kv)      otherwise.
//
// Lemma 8: starting from a single agent holding 2^κ ≤ ¾·n tokens, after
// 16·n·log n interactions the maximum logarithmic load is 0 w.h.p.
package balance

import "popcount/internal/rng"

// Empty is the logarithmic load value of an empty agent.
const Empty int16 = -1

// Classical applies one classical load-balancing step to the two loads.
func Classical(u, v *int64) {
	sum := *u + *v
	*u = sum / 2
	*v = sum - sum/2
}

// PowerOfTwo applies one powers-of-two balancing step (Equation (1)) to
// the two logarithmic loads.
func PowerOfTwo(u, v *int16) {
	switch {
	case *u > 0 && *v == Empty:
		*u--
		*v = *u
	case *u == Empty && *v > 0:
		*v--
		*u = *v
	}
}

// PowersProtocol is a standalone simulation of the powers-of-two process
// from Lemma 8: one agent starts with 2^κ tokens, everyone else is empty,
// and the process runs until the maximum logarithmic load is at most 0
// (or can make no further progress).
type PowersProtocol struct {
	ks       []int16
	excluded int // index of an agent excluded from balancing (the leader), or -1
	maxK     int16
	maxCount int
}

// NewPowers returns the Lemma 8 setting: agent 1 holds 2^kappa tokens
// (kappa ≥ 0), all other agents are empty. If excludeLeader is true,
// agent 0 plays the role of the non-participating leader, matching the
// Search Protocol where the leader does not take part in balancing.
func NewPowers(n int, kappa int, excludeLeader bool) *PowersProtocol {
	if kappa < 0 || kappa > 62 {
		panic("balance: kappa out of range")
	}
	ks := make([]int16, n)
	for i := range ks {
		ks[i] = Empty
	}
	ks[1] = int16(kappa)
	excl := -1
	if excludeLeader {
		excl = 0
	}
	p := &PowersProtocol{ks: ks, excluded: excl}
	p.recount()
	return p
}

func (p *PowersProtocol) recount() {
	p.maxK = Empty
	p.maxCount = 0
	for _, k := range p.ks {
		if k > p.maxK {
			p.maxK = k
			p.maxCount = 1
		} else if k == p.maxK {
			p.maxCount++
		}
	}
}

// N returns the population size.
func (p *PowersProtocol) N() int { return len(p.ks) }

// Interact applies one powers-of-two step (no-op if either endpoint is
// the excluded leader).
func (p *PowersProtocol) Interact(u, v int, _ *rng.Rand) {
	if u == p.excluded || v == p.excluded {
		return
	}
	ku, kv := p.ks[u], p.ks[v]
	PowerOfTwo(&p.ks[u], &p.ks[v])
	if p.ks[u] != ku || p.ks[v] != kv {
		// A split happened; the old max may have lost a holder.
		if ku == p.maxK || kv == p.maxK {
			p.maxCount--
			if p.maxCount == 0 {
				p.recount()
			}
		}
	}
}

// Converged reports whether no agent has logarithmic load above 0, i.e.
// the process has reached maximum load 1 (Lemma 8's terminal condition).
func (p *PowersProtocol) Converged() bool { return p.maxK <= 0 }

// MaxK returns the maximum logarithmic load.
func (p *PowersProtocol) MaxK() int16 { return p.maxK }

// TotalTokens returns Σ 2^k over non-empty agents (conserved).
func (p *PowersProtocol) TotalTokens() int64 {
	var s int64
	for _, k := range p.ks {
		if k >= 0 {
			s += int64(1) << uint(k)
		}
	}
	return s
}

// K returns agent i's logarithmic load.
func (p *PowersProtocol) K(i int) int16 { return p.ks[i] }

// Output returns agent i's logarithmic load (Outputter).
func (p *PowersProtocol) Output(i int) int64 { return int64(p.ks[i]) }
