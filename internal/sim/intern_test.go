package sim_test

import (
	"sync"
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// benchProduct approximates a core-spec product state: several machine
// words, so the hash and compare costs the interner pays per lookup are
// realistic.
type benchProduct struct {
	a, b, c, d uint64
}

// hashWords folds words into an interner hash, the way the core specs'
// hashes fold their packed fields.
func hashWords(ws ...uint64) uint64 {
	h := uint64(0)
	for _, w := range ws {
		h = (h ^ w) * scatterMul
		h ^= h >> 32
	}
	return h
}

func hashBench(p benchProduct) uint64 { return hashWords(p.a, p.b, p.c, p.d) }

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
	in := sim.NewInterner(hashBench)
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

// BenchmarkInternerCodeMiss measures the first-sight insert path: one
// hash, a probe to the empty slot, and the append and index write.
func BenchmarkInternerCodeMiss(b *testing.B) {
	states := benchStates(b.N)
	in := sim.NewInterner(hashBench)
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
	in := sim.NewInterner(hashBench)
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
	in := sim.NewInterner(hashBench)
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
// the 256 first resolutions every call is a window hit.
func BenchmarkDeltaMemoHit(b *testing.B) {
	in := sim.NewInterner(hashBench)
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
	in := sim.NewInterner(hashBench)
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

// refInterner is a map-backed interner, the form the indexed Interner
// replaced: FuzzInternerReference's reference for the base namespace
// and, one per shard view, for the provisional ones.
type refInterner struct {
	codes  map[fuzzProduct]uint64
	states []fuzzProduct
}

func newRefInterner() *refInterner {
	return &refInterner{codes: make(map[fuzzProduct]uint64)}
}

func (r *refInterner) code(s fuzzProduct) uint64 {
	if c, ok := r.codes[s]; ok {
		return c
	}
	r.codes[s] = uint64(len(r.states))
	r.states = append(r.states, s)
	return uint64(len(r.states)) - 1
}

// refProvisional is shard i's provisional tag: bit 63 above the shard
// number at bit 48, the format intern.go documents.
func refProvisional(i int) uint64 { return 1<<63 | uint64(i)<<48 }

// refGroup is ShardViews + Reconcile over a refInterner.
type refGroup struct {
	base  *refInterner
	views []*refInterner
}

func (g *refGroup) code(i int, s fuzzProduct) uint64 {
	if c, ok := g.base.codes[s]; ok {
		return c
	}
	return refProvisional(i) | g.views[i].code(s)
}

func (g *refGroup) state(i int, c uint64) fuzzProduct {
	if c>>63 != 0 {
		return g.views[i].states[c&(1<<48-1)]
	}
	return g.base.states[c]
}

func (g *refGroup) reconcile() map[uint64]uint64 {
	var remap map[uint64]uint64
	for i, v := range g.views {
		for k, s := range v.states {
			if remap == nil {
				remap = make(map[uint64]uint64)
			}
			remap[refProvisional(i)|uint64(k)] = g.base.code(s)
		}
		g.views[i] = newRefInterner()
	}
	return remap
}

// fuzzBytes reads a fuzz input byte by byte, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// state draws one of 512 states.
func (b *fuzzBytes) state() fuzzProduct {
	return fuzzProduct{q: uint64(b.next()&1)<<8 | uint64(b.next())}
}

// viewOp is one call on a shard view: Code (kind 0), Recode (1) or
// State (2).
type viewOp struct {
	kind, pick int
	s          fuzzProduct
}

// runViewOps applies one view's ops in order and returns each op's
// result: the code for Code and Recode, the state's q for State.
// Recode's was and State's code are a code the view returned earlier,
// indexed by pick, or base code pick when it has returned none; with
// neither, the op is a Code.
func runViewOps(ops []viewOp, baseLen int, code func(s fuzzProduct, was uint64, recode bool) uint64, state func(c uint64) fuzzProduct) []uint64 {
	var out, issued []uint64
	for _, op := range ops {
		var known uint64
		ok := true
		switch {
		case len(issued) > 0:
			known = issued[op.pick%len(issued)]
		case baseLen > 0:
			known = uint64(op.pick % baseLen)
		default:
			ok = false
		}
		if op.kind == 2 && ok {
			out = append(out, state(known).q)
			continue
		}
		c := code(op.s, known, op.kind == 1 && ok)
		issued = append(issued, c)
		out = append(out, c)
	}
	return out
}

// FuzzInternerReference drives the indexed Interner through random
// Code, Recode and State calls and ShardViews + Reconcile rounds beside
// refInterner: codes, Len, State and remaps must match. The hash keeps
// four bits, two for the slot and two for the tag, so probe chains are
// long, wrap around the index and cross its growth, and most probes
// compare states under equal tags. Each round runs its views on their
// own goroutines, as the sharded planner does, so under -race the test
// also checks that views only read the base index.
func FuzzInternerReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{5, 3, 40, 1, 7, 9, 2, 0, 3, 1, 5, 250, 1, 2, 6, 7, 7})
	seq := make([]byte, 0, 1200)
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i%5), byte(i), byte(i*7), byte(i>>2))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, raw []byte) {
		hash := func(p fuzzProduct) uint64 {
			x := p.q * scatterMul >> 60
			return x&3 | x>>2<<32
		}
		in := sim.NewInterner(hash)
		ref := newRefInterner()
		var g *sim.InternGroup[fuzzProduct]
		var rg *refGroup
		b := fuzzBytes(raw)
		for len(b) > 0 {
			switch op := b.next(); op % 5 {
			case 0, 1:
				s := b.state()
				if got, want := in.Code(s), ref.code(s); got != want {
					t.Fatalf("Code(%v) = %d, want %d", s, got, want)
				}
			case 2:
				s, pick := b.state(), b.next()
				if in.Len() == 0 {
					continue
				}
				was := uint64(pick % in.Len())
				if got, want := in.Recode(s, was), ref.code(s); got != want {
					t.Fatalf("Recode(%v, %d) = %d, want %d", s, was, got, want)
				}
			case 3:
				if in.Len() == 0 {
					continue
				}
				c := uint64(b.next() % in.Len())
				if got, want := in.State(c), ref.states[c]; got != want {
					t.Fatalf("State(%d) = %v, want %v", c, got, want)
				}
			case 4:
				k := 1 + op/5%4
				if g == nil || len(rg.views) != k {
					g = sim.ShardViews(in, k)
					rg = &refGroup{base: ref, views: make([]*refInterner, k)}
					for i := range rg.views {
						rg.views[i] = newRefInterner()
					}
				}
				ops := make([][]viewOp, k)
				for n := b.next() % 48; n > 0; n-- {
					i := b.next() % k
					ops[i] = append(ops[i], viewOp{kind: b.next() % 3, pick: b.next(), s: b.state()})
				}
				baseLen := in.Len()
				got := make([][]uint64, k)
				var wg sync.WaitGroup
				for i := range ops {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						v := g.View(i)
						got[i] = runViewOps(ops[i], baseLen, func(s fuzzProduct, was uint64, recode bool) uint64 {
							if recode {
								return v.Recode(s, was)
							}
							return v.Code(s)
						}, v.State)
					}(i)
				}
				wg.Wait()
				for i := range ops {
					want := runViewOps(ops[i], baseLen, func(s fuzzProduct, _ uint64, _ bool) uint64 {
						return rg.code(i, s)
					}, func(c uint64) fuzzProduct { return rg.state(i, c) })
					for x := range want {
						if got[i][x] != want[x] {
							t.Fatalf("view %d of %d, op %d (%+v): got %#x, want %#x", i, k, x, ops[i][x], got[i][x], want[x])
						}
					}
				}
				remap, want := g.Reconcile(), rg.reconcile()
				if len(remap) != len(want) {
					t.Fatalf("Reconcile remapped %d codes, want %d", len(remap), len(want))
				}
				for p, c := range want {
					if got, ok := remap[p]; !ok || got != c {
						t.Fatalf("Reconcile remap[%#x] = %d (present %v), want %d", p, got, ok, c)
					}
				}
			}
			if in.Len() != len(ref.states) {
				t.Fatalf("Len() = %d, want %d", in.Len(), len(ref.states))
			}
		}
		for c, s := range ref.states {
			if got := in.State(uint64(c)); got != s {
				t.Fatalf("State(%d) = %v, want %v", c, got, s)
			}
		}
	})
}
