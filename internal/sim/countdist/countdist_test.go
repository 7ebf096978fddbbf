package countdist

import (
	"testing"

	"popcount/internal/rng"
)

// brute is a reference implementation over a plain slice.
type brute struct{ w []int64 }

func (b *brute) total() int64 {
	var s int64
	for _, w := range b.w {
		s += w
	}
	return s
}

func (b *brute) prefix(i int) int64 {
	var s int64
	for j := 0; j < i; j++ {
		s += b.w[j]
	}
	return s
}

func (b *brute) find(x int64) int {
	for i, w := range b.w {
		if x < w {
			return i
		}
		x -= w
	}
	return len(b.w) - 1
}

// TestSamplerAgainstBruteForce drives a random sequence of Append/Add
// operations and checks every query against the reference, on both
// instantiations: Sampler at small totals and near 2⁶², Sampler32 at
// small totals and near its 2³¹ bound, where its uint32 nodes wrap on
// every negative delta.
func TestSamplerAgainstBruteForce(t *testing.T) {
	t.Run("Sampler", func(t *testing.T) { checkAgainstBruteForce(t, NewSampler(0), 0, 1, 1<<62) })
	t.Run("Sampler/near2^62", func(t *testing.T) { checkAgainstBruteForce(t, NewSampler(0), 3<<60, 1<<44, 1<<62) })
	t.Run("Sampler32", func(t *testing.T) { checkAgainstBruteForce(t, NewSampler32(0), 0, 1, 1<<31) })
	t.Run("Sampler32/near2^31", func(t *testing.T) { checkAgainstBruteForce(t, NewSampler32(0), 3<<29, 1<<15, 1<<31) })
}

// checkAgainstBruteForce runs the random operation sequence on s. With
// base > 0 the first slot holds base; every random weight and delta is
// scaled by unit, and the run fails if the total ever exceeds limit
// (the sampler's storage bound, which the sequence must respect).
func checkAgainstBruteForce[W uint32 | int64](t *testing.T, s *fenwick[W], base, unit, limit int64) {
	r := rng.New(42)
	var ref brute
	if base > 0 {
		s.Append(base)
		ref.w = append(ref.w, base)
	}
	var peak int64
	for op := 0; op < 5000; op++ {
		switch {
		case len(ref.w) == 0 || r.Intn(10) == 0:
			w := int64(r.Intn(20)) * unit
			i := s.Append(w)
			ref.w = append(ref.w, w)
			if i != len(ref.w)-1 {
				t.Fatalf("Append returned %d, want %d", i, len(ref.w)-1)
			}
		default:
			i := r.Intn(len(ref.w))
			d := (int64(r.Intn(7)) - ref.w[i]/unit%3) * unit // mixed signs, stays >= 0
			if ref.w[i]+d < 0 {
				d = -ref.w[i]
			}
			s.Add(i, d)
			ref.w[i] += d
		}
		tot := ref.total()
		if tot > limit {
			t.Fatalf("op %d: reference total %d exceeds the sampler bound %d", op, tot, limit)
		}
		peak = max(peak, tot)
		if s.Total() != tot {
			t.Fatalf("op %d: Total=%d want %d", op, s.Total(), tot)
		}
		if op%37 != 0 {
			continue
		}
		for i := range ref.w {
			if s.Weight(i) != ref.w[i] {
				t.Fatalf("op %d: Weight(%d)=%d want %d", op, i, s.Weight(i), ref.w[i])
			}
			if s.Prefix(i) != ref.prefix(i) {
				t.Fatalf("op %d: Prefix(%d)=%d want %d", op, i, s.Prefix(i), ref.prefix(i))
			}
		}
		if tot > 0 {
			for probe := 0; probe < 20; probe++ {
				x := r.Int64n(tot)
				if got, want := s.Find(x), ref.find(x); got != want {
					t.Fatalf("op %d: Find(%d)=%d want %d (weights %v)", op, x, got, want, ref.w)
				}
			}
			// Boundary positions.
			if got, want := s.Find(0), ref.find(0); got != want {
				t.Fatalf("op %d: Find(0)=%d want %d", op, got, want)
			}
			if got, want := s.Find(tot-1), ref.find(tot-1); got != want {
				t.Fatalf("op %d: Find(total-1)=%d want %d", op, got, want)
			}
		}
	}
	t.Logf("peak total %d (bound %d)", peak, limit)
}

// TestSamplerFindSkipsEmptySlots pins the zero-weight boundary behavior
// on both instantiations: a position on the boundary of an empty slot
// resolves to the next occupied slot.
func TestSamplerFindSkipsEmptySlots(t *testing.T) {
	t.Run("Sampler", func(t *testing.T) { checkFindSkipsEmptySlots(t, NewSampler(4)) })
	t.Run("Sampler32", func(t *testing.T) { checkFindSkipsEmptySlots(t, NewSampler32(4)) })
}

func checkFindSkipsEmptySlots[W uint32 | int64](t *testing.T, s *fenwick[W]) {
	s.Append(5)
	s.Append(0)
	s.Append(3)
	if got := s.Find(4); got != 0 {
		t.Fatalf("Find(4)=%d want 0", got)
	}
	if got := s.Find(5); got != 2 {
		t.Fatalf("Find(5)=%d want 2", got)
	}
	if got := s.Find(7); got != 2 {
		t.Fatalf("Find(7)=%d want 2", got)
	}
}
