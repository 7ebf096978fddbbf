// State-code interning for product-state specs.
//
// The small building-block specs (junta, epidemic, clock) pack their
// agent state into a uint64 code arithmetically: the state tuple is
// small enough for a mixed-radix encoding, and the whole code domain is
// dense. The paper's composed counting protocols are different: their
// per-agent state is a product of a phase clock, a junta triplet, an
// election record and counting variables whose ranges (classical loads,
// sampled election values) do not fit any fixed-width packing — the
// product domain is astronomically large and almost entirely
// unreachable. What stays small is the set of states actually occupied
// along a trajectory: agents synchronize, so a run visits thousands of
// distinct states, not 2⁶⁴.
//
// An Interner assigns codes lazily in first-sight order: the code of a
// state is its index in the discovery sequence. Codes are dense over
// the reachable fragment (good for the engines' maps and dense-pair
// caches) and the mapping is injective by construction, so the count
// view stays exact: agents are exchangeable given the full state tuple,
// and equal tuples get equal codes.
//
// Determinism: codes depend on discovery order, which is a
// deterministic function of the trajectory — equal seeds yield equal
// code assignments. Codes from different engine instances (or different
// seeds) are not comparable; everything that interprets codes
// (Converged, Output, tests) must go through the same Interner that
// produced them, which is why each spec constructor owns one.
//
// An Interner is not safe for concurrent use. Spec constructors are
// called once per trial (every trial builds a fresh spec), so engine
// parallelism never shares one. Intra-run sharding (countshard.go) gets
// structured concurrency through ShardViews: concurrent views read the
// frozen base and park fresh states in per-shard provisional
// namespaces, which a serial Reconcile folds back in deterministic
// order.
package sim

// Interner assigns dense uint64 codes to product states in first-sight
// order. The zero value is not ready for use; call NewInterner.
type Interner[S comparable] struct {
	// codes stores code+1 so the zero value of a map read means "not
	// interned": the hit path of Code is a single one-return map access
	// (mapaccess1) instead of the comma-ok form, and the miss path is
	// one access plus one insert — hashing the (large) product struct
	// once per path where the comma-ok + insert sequence hashed it
	// twice on miss.
	codes  map[S]uint64
	states []S
}

// NewInterner returns an empty interner.
func NewInterner[S comparable]() *Interner[S] {
	return &Interner[S]{codes: make(map[S]uint64)}
}

// Code returns the state's code, assigning the next free one on first
// sight.
func (in *Interner[S]) Code(s S) uint64 {
	if c := in.codes[s]; c != 0 {
		return c - 1
	}
	in.states = append(in.states, s)
	in.codes[s] = uint64(len(in.states)) // code+1; see the field comment
	return uint64(len(in.states)) - 1
}

// Recode returns Code(s) for a successor s of the state coded was,
// skipping the hash when s is that state: the interner holds each state
// once, so states[was] == s means Code(s) would return was, and a hit
// has no side effect. Interned rules leave most agents' states
// unchanged, so this is one struct compare where Code hashes.
func (in *Interner[S]) Recode(s S, was uint64) uint64 {
	if in.states[was] == s {
		return was
	}
	return in.Code(s)
}

// State returns the state a code was assigned to. It panics on a code
// this interner never issued — such a code cannot come from the same
// trajectory and indicates mixed-up spec instances.
func (in *Interner[S]) State(c uint64) S {
	return in.states[c]
}

// Len returns the number of interned states — the size of the reachable
// alphabet fragment discovered so far.
func (in *Interner[S]) Len() int { return len(in.states) }

// Shard-provisional code namespace. During a sharded epoch's parallel
// round (countshard.go) the base interner is frozen: concurrent shard
// views may read it but not assign. A view that encounters a fresh
// product state assigns a provisional code — the tag bit, the view's
// shard number, and the view-local discovery index — private to that
// view. Reconcile folds provisional states into the base namespace
// serially, in ascending shard order then view-local discovery order,
// so canonical code assignment is a deterministic function of the
// epoch's content, never of goroutine scheduling.
const (
	internProvisionalBit   = uint64(1) << 63
	internProvisionalShift = 48
	internProvisionalMask  = (uint64(1) << internProvisionalShift) - 1
)

// InternGroup is one parallel round's set of shard views over a base
// interner. The group is long-lived: the engine creates it once and
// calls Reconcile after every round, which resets the views for reuse.
type InternGroup[S comparable] struct {
	base  *Interner[S]
	views []InternView[S]
	// remap is the provisional → canonical map Reconcile returns,
	// allocated once with the group and cleared per round instead of
	// reallocated inside the per-view fold loop.
	remap map[uint64]uint64
}

// InternView is one shard's interning view: reads resolve against the
// frozen base first, misses are assigned provisional codes private to
// the view. A view must only be used by one goroutine per round.
type InternView[S comparable] struct {
	base  *Interner[S]
	tag   uint64
	codes map[S]uint64
	order []S
}

// ShardViews returns a group of k concurrent views over the base
// interner. While any view is in use the base must be quiescent: no
// Code calls on it, and no Reconcile.
func ShardViews[S comparable](in *Interner[S], k int) *InternGroup[S] {
	g := &InternGroup[S]{
		base:  in,
		views: make([]InternView[S], k),
		remap: make(map[uint64]uint64),
	}
	for i := range g.views {
		g.views[i] = InternView[S]{
			base:  in,
			tag:   internProvisionalBit | uint64(i)<<internProvisionalShift,
			codes: make(map[S]uint64),
		}
	}
	return g
}

// View returns shard i's view.
func (g *InternGroup[S]) View(i int) *InternView[S] { return &g.views[i] }

// Code returns the state's code: the canonical one when the base
// already interned it, the view's provisional one otherwise (assigning
// on first sight within the view). Both map reads use the zero-means-
// missing trick: base codes are stored +1, and provisional codes always
// carry the tag bit, so neither is ever zero.
func (v *InternView[S]) Code(s S) uint64 {
	if c := v.base.codes[s]; c != 0 {
		return c - 1
	}
	if c := v.codes[s]; c != 0 {
		return c
	}
	c := v.tag | uint64(len(v.order))
	v.codes[s] = c
	v.order = append(v.order, s)
	return c
}

// Recode is Interner.Recode on the view: was may be a base code or one
// of this view's provisional codes. Either way State(was) == s means
// Code(s) would return was — the frozen base never holds a state the
// view coded provisionally.
func (v *InternView[S]) Recode(s S, was uint64) uint64 {
	if v.State(was) == s {
		return was
	}
	return v.Code(s)
}

// State resolves a code issued by the base or by this view. Codes from
// other views cannot reach a view by construction (shard results only
// mix at the serial merge, after Reconcile has rewritten them).
func (v *InternView[S]) State(c uint64) S {
	if c&internProvisionalBit != 0 {
		return v.order[c&internProvisionalMask]
	}
	return v.base.State(c)
}

// Reconcile folds every view's provisional states into the base
// interner — ascending shard order, then view-local discovery order —
// resets the views for the next round, and returns the
// provisional → canonical code remap (nil when no view assigned any).
// The returned map is owned by the group and reused: it is valid until
// the next Reconcile call, which the engine's use-immediately merge
// respects.
func (g *InternGroup[S]) Reconcile() map[uint64]uint64 {
	if len(g.remap) > 0 {
		clear(g.remap)
	}
	any := false
	for i := range g.views {
		v := &g.views[i]
		for k, s := range v.order {
			g.remap[v.tag|uint64(k)] = g.base.Code(s)
			any = true
		}
		if len(v.order) > 0 {
			clear(v.codes)
			v.order = v.order[:0]
		}
	}
	if !any {
		return nil
	}
	return g.remap
}
