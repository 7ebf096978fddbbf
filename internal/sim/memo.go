// Code-indexed successor memoization for interned-product specs.
//
// The interned core specs (Approximate, CountExact, the stable hybrids)
// resolve every Delta call by decoding two product states, running the
// full rule, canonicalizing, and re-encoding both successors through
// Interner.Code — two hash-map lookups over ~100-byte structs per
// interaction. But interner codes are first-sight-dense over a small
// reachable fragment, and the deterministic part of the rule is a pure
// function of the code pair: once (qu, qv) has been resolved once, every
// later resolution is a repeat. A DeltaMemo caches that deterministic
// fragment keyed by the packed code pair, turning the hot path into an
// open-addressed integer-table probe — no struct hashing, no rule
// evaluation. In front of the probe sits a small direct-mapped window
// of recently used resolved pairs: the states a synchronized protocol
// occupies at once are a narrow band of codes at its moving front, so
// most repeats hit the window without touching the table, which for
// CountExact's Õ(n) alphabet outgrows the L2 cache.
//
// Correctness hinges on three invariants, each load-bearing for the
// engines' bit-for-bit determinism contract:
//
//   - First resolution runs the underlying closure. Interned specs
//     assign codes on first sight inside Delta, so the memo must not
//     reorder or suppress any first resolution: a pair's initial Delta
//     call reaches the closure exactly as it would unmemoized (interning
//     fresh successors at exactly that point of the trajectory), and
//     only repeats are answered from the table. Classifying a pair
//     (Randomized) never resolves successors — an unresolved
//     deterministic pair is parked in a "pending" state — so probing
//     the claim predicate cannot perturb code-assignment order either.
//   - Randomized pairs always call through. A claimed pair's transition
//     consumes synthetic coins, so only its classification (a pure
//     function of the code pair) is memoized; resolution keeps reading
//     the caller's generator exactly like the raw closure.
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

// Memo entry states. A deterministic resolved pair packs both successor
// codes into one entry with the high bit set; every other state is a
// small sentinel, so an entry is never ambiguous and a zero value always
// means "empty slot".
const (
	memoUnknown uint64 = 0 // empty slot: pair never classified
	memoRand    uint64 = 1 // claimed by Randomized: always resolve through the closure
	memoPending uint64 = 2 // classified deterministic, successors not yet resolved
	memoWide    uint64 = 3 // deterministic, but successors exceed memoCodeBound: resolve through the closure

	// memoDetBit marks a resolved deterministic entry packing the
	// successor pair as a<<31 | b.
	memoDetBit uint64 = 1 << 63

	// memoCodeBound bounds memoizable codes: two codes must pack into
	// the low 62 bits of a det entry. Interner codes are first-sight
	// dense, so real trajectories sit far below it; shard-provisional
	// codes (bit 63 set) are far above it and bypass the memo, which is
	// exactly the InternView contract.
	memoCodeBound uint64 = 1 << 31
)

// memoInitialTableCap is the probe table's starting capacity.
const memoInitialTableCap = 1 << 8

// The window is a memoWinSide × memoWinSide direct-mapped table of
// resolved deterministic entries: pair (qu, qv) lives in cell
// (qu mod memoWinSide)·memoWinSide + qv mod memoWinSide, tagged with the
// full key, so pairs whose codes lie within any memoWinSide-wide range
// never evict each other. At 16 bytes a cell it is 64 KiB, L2-resident.
const (
	memoWinBits = 6
	memoWinSide = 1 << memoWinBits
	memoWinMask = memoWinSide - 1
)

// DeltaMemo caches the deterministic fragment of a transition function
// over interned state codes, keyed by the packed (initiator, responder)
// code pair. Construct with NewDeltaMemo or Spec.MemoizeDelta. Not safe
// for concurrent use — like the Interner it shadows, it is only ever
// called from the engines' serial phases.
type DeltaMemo struct {
	delta func(qu, qv uint64, r *rng.Rand) (uint64, uint64)
	rand  func(qu, qv uint64) bool

	// Open-addressed table: each slot packs the key (qu<<32|qv) next to
	// its entry so a repeat resolution touches one cache line — at the
	// table sizes CountExact's Õ(n) alphabet reaches, every probe is a
	// memory miss and the split-array layout would pay it twice. A slot
	// is empty iff its val is memoUnknown. Linear probing, power-of-two
	// capacity, grown at 3/4 load.
	ents []memoEnt
	mask uint64
	used int

	// win is the direct-mapped window in front of the table (see
	// memoWinBits): each cell holds a resolved deterministic entry
	// under the tag memoDetBit|key, which is never zero, so an empty
	// cell matches nothing. Entries are immutable facts about the rule,
	// so an evicted pair just goes back to the table. Nil until the
	// first resolution.
	win []memoEnt
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
	return &DeltaMemo{
		delta: delta,
		rand:  randomized,
		ents:  make([]memoEnt, memoInitialTableCap),
		mask:  memoInitialTableCap - 1,
	}
}

// memoEnt is one open-addressed slot: key and entry adjacent, 16 bytes,
// so slot i never straddles a cache line.
type memoEnt struct{ key, val uint64 }

// memoHash mixes a packed code pair into a table index (splitmix64
// finalizer) — integer mixing, never struct hashing.
func memoHash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0x9E3779B97F4A7C15
	k ^= k >> 29
	return k
}

// probe returns the slot holding key, or the empty slot where it would
// be inserted.
func (m *DeltaMemo) probe(key uint64) uint64 {
	i := memoHash(key) & m.mask
	for m.ents[i].val != memoUnknown && m.ents[i].key != key {
		i = (i + 1) & m.mask
	}
	return i
}

// store inserts or overwrites the pair's entry, growing the table as
// needed.
func (m *DeltaMemo) store(qu, qv, val uint64) {
	if 4*(m.used+1) > 3*len(m.ents) {
		m.grow()
	}
	key := qu<<32 | qv
	i := m.probe(key)
	if m.ents[i].val == memoUnknown {
		m.ents[i].key = key
		m.used++
	}
	m.ents[i].val = val
}

func (m *DeltaMemo) grow() {
	old := m.ents
	m.ents = make([]memoEnt, 2*len(old))
	m.mask = uint64(len(m.ents) - 1)
	for _, e := range old {
		if e.val == memoUnknown {
			continue
		}
		m.ents[m.probe(e.key)] = e
	}
}

// winCell returns the pair's window cell.
func winCell(qu, qv uint64) uint64 {
	return (qu&memoWinMask)<<memoWinBits | qv&memoWinMask
}

// resolve runs the closure on a deterministic pair's first resolution
// and stores the successors: packed into the table and the window, or
// marked wide when they do not pack.
func (m *DeltaMemo) resolve(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
	a, b := m.delta(qu, qv, r)
	if (a | b) >= memoCodeBound {
		m.store(qu, qv, memoWide)
		return a, b
	}
	e := memoDetBit | a<<31 | b
	m.store(qu, qv, e)
	if m.win == nil {
		m.win = make([]memoEnt, memoWinSide*memoWinSide)
	}
	m.win[winCell(qu, qv)] = memoEnt{memoDetBit | qu<<32 | qv, e}
	return a, b
}

// Delta resolves the pair through the memo: cached deterministic pairs
// return in O(1) with no rule evaluation; first sights, randomized
// pairs, and out-of-range (shard-provisional) codes run the underlying
// closure. Bit-for-bit equivalent to the raw closure in outputs,
// interner side effects, and generator consumption.
func (m *DeltaMemo) Delta(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
	if (qu | qv) >= memoCodeBound {
		return m.delta(qu, qv, r)
	}
	key := qu<<32 | qv
	c := winCell(qu, qv)
	if c < uint64(len(m.win)) && m.win[c].key == memoDetBit|key {
		e := m.win[c].val
		return e >> 31 & (memoCodeBound - 1), e & (memoCodeBound - 1)
	}
	i := m.probe(key)
	switch e := m.ents[i].val; {
	case e&memoDetBit != 0:
		m.win[c] = memoEnt{memoDetBit | key, e}
		return e >> 31 & (memoCodeBound - 1), e & (memoCodeBound - 1)
	case e == memoRand || e == memoWide:
		return m.delta(qu, qv, r)
	case e == memoUnknown && m.rand(qu, qv):
		m.store(qu, qv, memoRand)
		return m.delta(qu, qv, r)
	}
	// First resolution of a deterministic pair (unknown or pending):
	// run the closure — interning fresh successors exactly as the
	// unmemoized spec would at this point — and cache the code pair.
	return m.resolve(qu, qv, r)
}

// Randomized reports the memoized claim predicate. A deterministic
// verdict parks the pair as pending without resolving successors, so
// classification alone never interns.
func (m *DeltaMemo) Randomized(qu, qv uint64) bool {
	if (qu | qv) >= memoCodeBound {
		return m.rand(qu, qv)
	}
	i := m.probe(qu<<32 | qv)
	switch m.ents[i].val {
	case memoUnknown:
		if m.rand(qu, qv) {
			m.store(qu, qv, memoRand)
			return true
		}
		m.store(qu, qv, memoPending)
		return false
	case memoRand:
		return true
	default: // pending, wide, or resolved det: known deterministic
		return false
	}
}

// DeltaDet exposes the deterministic fragment in the batch planner's
// shape — one probe answers both the classification and the successor
// pair, replacing the adapter's separate Randomized + Delta(nil) calls.
func (m *DeltaMemo) DeltaDet(qu, qv uint64) (uint64, uint64, bool) {
	if (qu | qv) >= memoCodeBound {
		if m.rand(qu, qv) {
			return 0, 0, false
		}
		a, b := m.delta(qu, qv, nil)
		return a, b, true
	}
	key := qu<<32 | qv
	c := winCell(qu, qv)
	if c < uint64(len(m.win)) && m.win[c].key == memoDetBit|key {
		e := m.win[c].val
		return e >> 31 & (memoCodeBound - 1), e & (memoCodeBound - 1), true
	}
	i := m.probe(key)
	switch e := m.ents[i].val; {
	case e&memoDetBit != 0:
		m.win[c] = memoEnt{memoDetBit | key, e}
		return e >> 31 & (memoCodeBound - 1), e & (memoCodeBound - 1), true
	case e == memoRand:
		return 0, 0, false
	case e == memoWide:
		a, b := m.delta(qu, qv, nil)
		return a, b, true
	case e == memoUnknown && m.rand(qu, qv):
		m.store(qu, qv, memoRand)
		return 0, 0, false
	}
	a, b := m.resolve(qu, qv, nil)
	return a, b, true
}

// Pairs returns the number of code pairs the memo has classified or
// resolved — the discovered fragment's size.
func (m *DeltaMemo) Pairs() int { return m.used }
