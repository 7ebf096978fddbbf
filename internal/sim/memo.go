// Code-indexed successor memoization for interned-product specs.
//
// The interned core specs (Approximate, CountExact, the stable hybrids)
// resolve every Delta call by decoding two product states, running the
// full rule, canonicalizing, and re-encoding both successors through
// the Interner — two hashed lookups over ~64-byte structs per
// interaction. But interner codes are first-sight-dense over a small
// reachable fragment, and the deterministic part of the rule is a pure
// function of the code pair: once (qu, qv) has been resolved, every
// later resolution is a repeat. A DeltaMemo caches that fragment in a
// small direct-mapped window keyed by the code pair. The states a
// synchronized protocol occupies at once are a narrow band of codes at
// its moving front, so the window answers almost every repeat (94% of
// CountExact's Delta calls on the agent engine at n = 2¹¹), and almost
// every window miss is a pair never seen before. An evicted pair is
// simply classified and resolved again: its entry is a fact about the
// transition function, and recomputing it is exact (see below), so
// nothing behind the window keeps the fragment discovered so far.
//
// Correctness hinges on four invariants, each load-bearing for the
// engines' bit-for-bit determinism contract:
//
//   - First resolution runs the underlying closure. Interned specs
//     assign codes on first sight inside Delta, so the memo must not
//     reorder or suppress any first resolution: a pair's initial Delta
//     call reaches the closure exactly as it would unmemoized (interning
//     fresh successors at exactly that point of the trajectory).
//     Classifying a pair (Randomized) never resolves successors — an
//     unresolved deterministic pair is parked in a "pending" state — so
//     probing the claim predicate cannot perturb code-assignment order
//     either.
//   - Re-resolving an evicted pair is invisible. A pair the claim
//     predicate does not claim draws no coins, and its successors were
//     interned by its first resolution, so running the closure again
//     returns the same codes, assigns none and leaves the caller's
//     generator untouched. The predicate itself must be a pure function
//     of the code pair that interns nothing; running it again on a
//     window miss is then a repeat too.
//   - Randomized pairs always call through. A claimed pair's transition
//     consumes synthetic coins, so only its classification is cached;
//     resolution keeps reading the caller's generator exactly like the
//     raw closure.
//   - Shard-provisional codes bypass the memo. During a sharded epoch's
//     parallel round (countshard.go) fresh states carry provisional
//     codes (tag bit 63 set) that are private to one shard view and die
//     at Reconcile; memoizing them would leak one round's private
//     namespace into the next. Every code ≥ memoCodeBound — which
//     includes all provisional codes — falls through to the closure.
//     The parallel round itself never touches the memo at all: shard
//     resolution goes through the spec's ShardDelta closures, and the
//     engines call Delta/DeltaDet/Randomized only from serial phases,
//     so the memo needs no locking.
//
// The memo is derived state: it is rebuilt lazily from the trajectory
// and is never serialized into engine snapshots (PSNA/PSNC). A restored
// engine starts with an empty memo and repopulates it on first
// resolutions, which are pure repeats of facts the snapshot's
// configuration already fixes.
package sim

import "popcount/internal/rng"

// Memo entry kinds. A deterministic resolved pair packs both successor
// codes into one entry with the high bit set; every other kind is a
// small sentinel, so an entry is never ambiguous.
const (
	memoUnknown uint64 = 0 // not in the window: classify on lookup
	memoRand    uint64 = 1 // claimed by Randomized: always resolve through the closure
	memoPending uint64 = 2 // classified deterministic, successors not yet resolved
	memoWide    uint64 = 3 // deterministic, but successors exceed memoCodeBound: resolve through the closure

	// memoDetBit marks a resolved deterministic entry packing the
	// successor pair as a<<31 | b. A cell's tag sets it too, above the
	// key qu<<32 | qv, so a tag is never zero and an empty cell matches
	// no pair.
	memoDetBit uint64 = 1 << 63

	// memoCodeBound bounds memoizable codes: two codes must pack into
	// the low 62 bits of a det entry. Interner codes are first-sight
	// dense, so real trajectories sit far below it; shard-provisional
	// codes (bit 63 set) are far above it and bypass the memo, which is
	// exactly the InternView contract.
	memoCodeBound uint64 = 1 << 31
)

// The window is a memoWinSide × memoWinSide direct-mapped table: pair
// (qu, qv) lives in cell (qu mod memoWinSide)·memoWinSide +
// qv mod memoWinSide, tagged with the full key, so pairs whose codes
// lie within any memoWinSide-wide range never evict each other. At 16
// bytes a cell it is 64 KiB, L2-resident.
const (
	memoWinBits = 6
	memoWinSide = 1 << memoWinBits
	memoWinMask = memoWinSide - 1
)

// DeltaMemo caches the deterministic fragment of a transition function
// over interned state codes, keyed by the (initiator, responder) code
// pair. Construct with NewDeltaMemo or Spec.MemoizeDelta. Not safe for
// concurrent use — like the Interner it shadows, it is only ever called
// from the engines' serial phases.
type DeltaMemo struct {
	delta func(qu, qv uint64, r *rng.Rand) (uint64, uint64)
	rand  func(qu, qv uint64) bool

	// win is the direct-mapped window (see memoWinBits): each cell holds
	// one entry of any kind under the tag memoDetBit|qu<<32|qv. Nil
	// until the first classification, so constructing a spec allocates
	// nothing here.
	win []memoEnt

	// pairs counts classifications: window misses of in-range pairs.
	pairs int
}

// NewDeltaMemo wraps the deterministic fragment of delta in a
// code-indexed memo. randomized is the spec's claim predicate (nil means
// fully deterministic); it must be a pure function of the code pair and
// must not intern or otherwise mutate spec state — the core specs'
// pairDrawsCoins dry runs qualify.
func NewDeltaMemo(
	delta func(qu, qv uint64, r *rng.Rand) (uint64, uint64),
	randomized func(qu, qv uint64) bool,
) *DeltaMemo {
	if randomized == nil {
		randomized = func(qu, qv uint64) bool { return false }
	}
	return &DeltaMemo{delta: delta, rand: randomized}
}

// memoEnt is one window cell: tag and entry adjacent, 16 bytes, so a
// cell never straddles a cache line.
type memoEnt struct{ tag, val uint64 }

// winCell returns the pair's window cell.
func winCell(qu, qv uint64) uint64 {
	return (qu&memoWinMask)<<memoWinBits | qv&memoWinMask
}

// lookup returns the pair's cell and the entry it holds for the pair,
// or memoUnknown on a window miss. The pair must be in range. Callers
// classify a miss themselves, so lookup stays small enough to inline
// into the hit path.
func (m *DeltaMemo) lookup(qu, qv uint64) (c, e uint64) {
	c = winCell(qu, qv)
	if w := m.win; c < uint64(len(w)) && w[c].tag == memoDetBit|qu<<32|qv {
		e = w[c].val
	}
	return c, e
}

// classify runs the claim predicate on a window miss and parks its
// verdict in the pair's cell, as memoRand or memoPending, evicting
// whatever the cell held.
func (m *DeltaMemo) classify(qu, qv, c uint64) uint64 {
	if m.win == nil {
		m.win = make([]memoEnt, memoWinSide*memoWinSide)
	}
	m.pairs++
	e := memoPending
	if m.rand(qu, qv) {
		e = memoRand
	}
	m.win[c] = memoEnt{memoDetBit | qu<<32 | qv, e}
	return e
}

// resolve runs the closure on a pending pair and stores the successors
// in its cell: packed, or marked wide when they do not pack.
func (m *DeltaMemo) resolve(qu, qv, c uint64, r *rng.Rand) (uint64, uint64) {
	a, b := m.delta(qu, qv, r)
	e := memoWide
	if (a | b) < memoCodeBound {
		e = memoDetBit | a<<31 | b
	}
	m.win[c].val = e
	return a, b
}

// Delta resolves the pair through the memo: cached deterministic pairs
// return in O(1) with no rule evaluation; window misses, randomized
// pairs, and out-of-range (shard-provisional) codes run the underlying
// closure. Bit-for-bit equivalent to the raw closure in outputs,
// interner side effects, and generator consumption.
func (m *DeltaMemo) Delta(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
	if (qu | qv) >= memoCodeBound {
		return m.delta(qu, qv, r)
	}
	c, e := m.lookup(qu, qv)
	if e == memoUnknown {
		e = m.classify(qu, qv, c)
	}
	switch {
	case e&memoDetBit != 0:
		return e >> 31 & (memoCodeBound - 1), e & (memoCodeBound - 1)
	case e == memoPending:
		return m.resolve(qu, qv, c, r)
	}
	return m.delta(qu, qv, r) // randomized or wide
}

// Randomized reports the claim predicate through the window. A
// deterministic verdict parks the pair as pending without resolving
// successors, so classification alone never interns.
func (m *DeltaMemo) Randomized(qu, qv uint64) bool {
	if (qu | qv) >= memoCodeBound {
		return m.rand(qu, qv)
	}
	c, e := m.lookup(qu, qv)
	if e == memoUnknown {
		e = m.classify(qu, qv, c)
	}
	return e == memoRand
}

// DeltaDet exposes the deterministic fragment in the batch planner's
// shape — one lookup answers both the classification and the successor
// pair, replacing the adapter's separate Randomized + Delta(nil) calls.
func (m *DeltaMemo) DeltaDet(qu, qv uint64) (uint64, uint64, bool) {
	if (qu | qv) >= memoCodeBound {
		if m.rand(qu, qv) {
			return 0, 0, false
		}
		a, b := m.delta(qu, qv, nil)
		return a, b, true
	}
	c, e := m.lookup(qu, qv)
	if e == memoUnknown {
		e = m.classify(qu, qv, c)
	}
	switch {
	case e&memoDetBit != 0:
		return e >> 31 & (memoCodeBound - 1), e & (memoCodeBound - 1), true
	case e == memoRand:
		return 0, 0, false
	case e == memoPending:
		a, b := m.resolve(qu, qv, c, nil)
		return a, b, true
	}
	a, b := m.delta(qu, qv, nil) // wide
	return a, b, true
}

// Pairs returns the number of classifications the memo has made — its
// window misses on in-range pairs, each of which ran the claim
// predicate. A pair evicted from the window and met again counts again.
func (m *DeltaMemo) Pairs() int { return m.pairs }
