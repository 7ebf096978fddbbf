package sim_test

import (
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// benchProduct approximates a core-spec product state: several machine
// words, so the map-hash cost the interner pays per lookup is realistic.
type benchProduct struct {
	a, b, c, d uint64
}

func benchStates(n int) []benchProduct {
	out := make([]benchProduct, n)
	for i := range out {
		x := uint64(i) * scatterMul
		out[i] = benchProduct{a: x, b: x >> 7, c: x ^ 0xfeed, d: uint64(i)}
	}
	return out
}

// BenchmarkInternerCodeHit measures the repeat-lookup path — the one
// every interned Delta call used to pay twice per interaction before
// the successor memo.
func BenchmarkInternerCodeHit(b *testing.B) {
	in := sim.NewInterner[benchProduct]()
	states := benchStates(1024)
	for _, s := range states {
		in.Code(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Code(states[i&1023])
	}
}

// BenchmarkInternerCodeMiss measures the first-sight insert path (one
// hash + one insert since the single-lookup rewrite, not two hashes).
func BenchmarkInternerCodeMiss(b *testing.B) {
	states := benchStates(b.N)
	in := sim.NewInterner[benchProduct]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Code(states[i])
	}
}

// BenchmarkInternViewCodeHit measures a shard view resolving a state
// the frozen base already interned — the dominant read of a sharded
// epoch's parallel round.
func BenchmarkInternViewCodeHit(b *testing.B) {
	in := sim.NewInterner[benchProduct]()
	states := benchStates(1024)
	for _, s := range states {
		in.Code(s)
	}
	g := sim.ShardViews(in, 1)
	v := g.View(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Code(states[i&1023])
	}
}

// BenchmarkInternGroupReconcile measures a round's provisional fold:
// two views each discover two fresh states, then Reconcile folds them.
// The remap is group-owned and reused, so steady-state allocs/op stay
// at the base interner's own inserts.
func BenchmarkInternGroupReconcile(b *testing.B) {
	in := sim.NewInterner[benchProduct]()
	g := sim.ShardViews(in, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := uint64(i) * scatterMul
		g.View(0).Code(benchProduct{a: x, d: 1})
		g.View(0).Code(benchProduct{a: x, d: 2})
		g.View(1).Code(benchProduct{a: x, d: 3})
		g.View(1).Code(benchProduct{a: x, d: 4})
		if remap := g.Reconcile(); len(remap) != 4 {
			b.Fatalf("remap has %d entries, want 4", len(remap))
		}
	}
}

// BenchmarkDeltaMemoHit measures the memo's repeat-resolution path over
// a small stable fragment: its 16 codes fit one 64-code window, so after
// the 256 first resolutions every call is answered by the window in
// front of the probe table.
func BenchmarkDeltaMemoHit(b *testing.B) {
	in := sim.NewInterner[benchProduct]()
	states := benchStates(16)
	codes := make([]uint64, len(states))
	for i, s := range states {
		codes[i] = in.Code(s)
	}
	m := sim.NewDeltaMemo(func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
		// The underlying closure pays the interned round trip the memo
		// is there to skip.
		a := in.State(qu)
		bb := in.State(qv)
		a.d, bb.d = bb.d, a.d
		return in.Code(a), in.Code(bb)
	}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Delta(codes[i&15], codes[(i>>4)&15], nil)
	}
}

// TestInternerRecode checks that Recode returns what Code returns — on
// the base interner and on a shard view, for base and provisional
// codes — and that the unchanged-successor short-circuit assigns
// nothing.
func TestInternerRecode(t *testing.T) {
	in := sim.NewInterner[benchProduct]()
	s := benchStates(3)
	a, b := in.Code(s[0]), in.Code(s[1])

	if got := in.Recode(s[0], a); got != a {
		t.Fatalf("unchanged successor: Recode = %d, want %d", got, a)
	}
	if got := in.Recode(s[1], a); got != b {
		t.Fatalf("successor interned earlier: Recode = %d, want %d", got, b)
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d after recoding known states, want 2", in.Len())
	}
	if got := in.Recode(s[2], b); got != 2 || in.Len() != 3 {
		t.Fatalf("fresh successor: Recode = %d with Len %d, want code 2 and Len 3", got, in.Len())
	}

	g := sim.ShardViews(in, 2)
	v := g.View(1)
	if got := v.Recode(s[1], b); got != b {
		t.Fatalf("view, unchanged base state: Recode = %d, want %d", got, b)
	}
	fresh := benchProduct{a: 7}
	p := v.Recode(fresh, a)
	if p == a || p < 3 {
		t.Fatalf("view, fresh successor: Recode = %#x, want a provisional code", p)
	}
	if got := v.Recode(fresh, p); got != p {
		t.Fatalf("view, unchanged provisional state: Recode = %#x, want %#x", got, p)
	}
	if got := v.Recode(s[0], p); got != a {
		t.Fatalf("view, base successor of a provisional state: Recode = %d, want %d", got, a)
	}
	remap := g.Reconcile()
	if len(remap) != 1 || remap[p] != 3 || in.Len() != 4 {
		t.Fatalf("Reconcile remap %v with Len %d, want {%#x: 3} and Len 4", remap, in.Len(), p)
	}
}
