// Package backup implements the slow, always-correct backup protocols of
// Appendix C, which the hybrid (stable) protocols fall back to when their
// error-detection mechanisms fire.
//
// Approximate counting (Appendix C.1, Equation (3), Lemma 12): every
// agent starts with one token (k = 0, i.e. 2⁰ tokens). When two agents
// hold the same number of tokens the initiator takes all of them,
// doubling its pile (k+1); the responder becomes empty (k = −1). Agents
// propagate the maximum pile logarithm kmax by maximum broadcast. The
// process converges to the binary representation of n: level i holds
// exactly n_i piles (the i-th bit of n), the maximum pile is 2^⌊log n⌋,
// and every agent's kmax equals ⌊log n⌋. It uses at most (log n + 1)²
// states and stabilizes w.h.p. within O(n² log² n) interactions.
//
// Exact counting (Appendix C.2, Equation (4), Lemma 13): every agent
// starts uncounted with one token. When two uncounted agents meet, the
// initiator absorbs the responder's tokens and stays uncounted; the
// responder becomes counted. Both record the merged count; counted agents
// spread the maximum observed count. Exactly one uncounted agent remains
// and eventually holds all n tokens, so every agent outputs n. The
// protocol stabilizes w.h.p. within O(n² log n) interactions.
package backup

// ApproxState is the per-agent state of the approximate backup protocol:
// the pair (k, kmax). k = −1 encodes an empty agent.
type ApproxState struct {
	K    int16
	KMax int16
}

// InitApprox returns the initial state (0, 0): one token.
func InitApprox() ApproxState { return ApproxState{K: 0, KMax: 0} }

// ApproxInteract applies Equation (3) to initiator u and responder v.
func ApproxInteract(u, v *ApproxState) {
	if u.K == v.K && u.K >= 0 {
		u.K++
		v.K = -1
	}
	kmax := u.KMax
	for _, x := range []int16{v.KMax, u.K, v.K} {
		if x > kmax {
			kmax = x
		}
	}
	u.KMax, v.KMax = kmax, kmax
}

// ExactState is the per-agent state of the exact backup protocol: the
// pair (counted, n).
type ExactState struct {
	Counted bool
	Count   int64
}

// InitExact returns the initial state (false, 1).
func InitExact() ExactState { return ExactState{Counted: false, Count: 1} }

// ExactInteract applies Equation (4) to initiator u and responder v.
//
// Deviation from the paper's literal equation: in the non-merge branch,
// only counted agents adopt max{nu, nv}. Taking the maximum on an
// uncounted agent as well (as Equation (4) literally reads) would
// overwrite its exact token count with a broadcast estimate and destroy
// token conservation (e.g. n = 3 can then stabilize on the output 4).
// Restricting the maximum rule to counted agents matches the protocol's
// intent ("agents which have already been counted broadcast the maximum
// value they have observed so far") and makes Lemma 13 hold.
func ExactInteract(u, v *ExactState) {
	if !u.Counted && !v.Counted {
		sum := u.Count + v.Count
		u.Count = sum
		v.Counted = true
		v.Count = sum
		return
	}
	m := u.Count
	if v.Count > m {
		m = v.Count
	}
	if u.Counted {
		u.Count = m
	}
	if v.Counted {
		v.Count = m
	}
}

func log2Floor(n int) int {
	k := -1
	for v := n; v > 0; v >>= 1 {
		k++
	}
	return k
}
