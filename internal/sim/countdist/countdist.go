// Package countdist provides an incrementally repaired categorical
// sampler over non-negative integer weights — the count-vector analogue
// of drawing a uniformly random agent. The count-based simulation engine
// keeps one Sampler32 over the per-state agent counts and one Sampler
// over per-state productive pair weights: drawing a state with
// probability proportional to its weight is then a single Find call, and
// a transition that moves one agent between states repairs the cached
// cumulative structure with two Add calls instead of rebuilding a prefix
// table.
//
// The implementation is a Fenwick (binary indexed) tree, so Add, Prefix
// and Find all cost O(log k) for k slots, and Total is O(1). Slots are
// append-only: the engine discovers protocol states lazily and never
// removes one (a vacated state simply keeps weight zero).
package countdist

// fenwick is a Fenwick-tree cumulative sampler whose node and weight
// storage is W; the API is int64 either way, so its instantiations are
// drop-in interchangeable. Narrow storage halves the tree's cache
// footprint on the per-interaction Find/Prefix descents. Arithmetic on
// uint32 nodes wraps two's-complement under negative Add deltas, which
// is exact as long as every true node value stays in [0, 2³¹] — the
// caller's bound, not checked here.
//
// The zero value is an empty sampler ready for Append.
type fenwick[W uint32 | int64] struct {
	tree  []W // 1-based Fenwick tree over cap slots
	w     []W // plain weights, for O(1) Weight queries
	total int64
	cap   int // power-of-two capacity of tree (len(tree) == cap+1)
}

// Sampler is the int64 sampler: the count engine's productive pair
// weights c[i]·elig(i) reach n·(n−1) ≈ 2⁶², far past 32 bits.
type Sampler = fenwick[int64]

// Sampler32 is the sampler whose weights and total are bounded by 2³¹ —
// the count engine's agent-count distribution qualifies (total = n,
// capped by the engine at 2³¹).
type Sampler32 = fenwick[uint32]

// NewSampler returns an empty sampler sized for about hint slots.
func NewSampler(hint int) *Sampler { return newFenwick[int64](hint) }

// NewSampler32 returns an empty bounded sampler sized for about hint
// slots.
func NewSampler32(hint int) *Sampler32 { return newFenwick[uint32](hint) }

func newFenwick[W uint32 | int64](hint int) *fenwick[W] {
	s := &fenwick[W]{}
	if hint > 0 {
		s.grow(hint)
	}
	return s
}

// Len returns the number of slots.
func (s *fenwick[W]) Len() int { return len(s.w) }

// Total returns the sum of all weights.
func (s *fenwick[W]) Total() int64 { return s.total }

// Weight returns the weight of slot i.
func (s *fenwick[W]) Weight(i int) int64 { return int64(s.w[i]) }

// Append adds a new slot with weight w and returns its index.
func (s *fenwick[W]) Append(w int64) int {
	i := len(s.w)
	if i >= s.cap {
		s.grow(i + 1)
	}
	s.w = append(s.w, 0)
	if w != 0 {
		s.Add(i, w)
	}
	return i
}

// Add adjusts slot i's weight by d. The resulting weight must stay
// non-negative (and within the storage bound); the sampler does not
// check.
func (s *fenwick[W]) Add(i int, d int64) {
	if d == 0 {
		return
	}
	s.w[i] += W(d)
	s.total += d
	for j := i + 1; j <= s.cap; j += j & -j {
		s.tree[j] += W(d)
	}
}

// Prefix returns the sum of the weights of slots 0..i-1.
func (s *fenwick[W]) Prefix(i int) int64 {
	var sum int64
	for j := i; j > 0; j -= j & -j {
		sum += int64(s.tree[j])
	}
	return sum
}

// Find returns the slot i holding cumulative position x, i.e. the unique
// i with Prefix(i) <= x < Prefix(i)+Weight(i). x must be in [0, Total());
// out-of-range x yields an arbitrary slot.
func (s *fenwick[W]) Find(x int64) int {
	pos := 0
	for step := s.cap; step > 0; step >>= 1 {
		next := pos + step
		if next <= s.cap && int64(s.tree[next]) <= x {
			x -= int64(s.tree[next])
			pos = next
		}
	}
	// pos is the count of slots whose cumulative weight is <= x, i.e.
	// the 0-based index of the slot containing x.
	if pos >= len(s.w) {
		pos = len(s.w) - 1
	}
	return pos
}

// grow rebuilds the tree with capacity at least need (rounded up to a
// power of two).
func (s *fenwick[W]) grow(need int) {
	c := 1
	for c < need {
		c <<= 1
	}
	s.cap = c
	s.tree = make([]W, c+1)
	for i, w := range s.w {
		for j := i + 1; j <= c; j += j & -j {
			s.tree[j] += w
		}
	}
}
