package sim_test

import (
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// TestDeltaMemoCachesDeterministic pins the memo's core promise: a
// deterministic pair's closure runs exactly once, every repeat is a
// window hit with identical successors.
func TestDeltaMemoCachesDeterministic(t *testing.T) {
	calls := 0
	m := sim.NewDeltaMemo(func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
		calls++
		return qu + 1, qv + 2
	}, nil)
	for i := 0; i < 100; i++ {
		a, b := m.Delta(3, 5, nil)
		if a != 4 || b != 7 {
			t.Fatalf("Delta(3,5) = (%d,%d), want (4,7)", a, b)
		}
	}
	if calls != 1 {
		t.Fatalf("closure ran %d times for one pair, want 1", calls)
	}
	if m.Pairs() != 1 {
		t.Fatalf("Pairs() = %d, want 1", m.Pairs())
	}
}

// TestDeltaMemoRandomizedPassThrough pins that claimed pairs always
// resolve through the closure (they consume coins), while their
// classification is memoized: the predicate runs once per pair.
func TestDeltaMemoRandomizedPassThrough(t *testing.T) {
	deltas, classifies := 0, 0
	m := sim.NewDeltaMemo(
		func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			deltas++
			return qu, qv
		},
		func(qu, qv uint64) bool {
			classifies++
			return true
		})
	for i := 0; i < 50; i++ {
		m.Delta(1, 2, nil)
	}
	if deltas != 50 {
		t.Fatalf("randomized pair resolved %d times through the closure, want 50", deltas)
	}
	if classifies != 1 {
		t.Fatalf("claim predicate ran %d times, want 1", classifies)
	}
	if got, _, ok := m.DeltaDet(1, 2); ok || got != 0 {
		t.Fatalf("DeltaDet on a randomized pair reported deterministic")
	}
}

// TestDeltaMemoClassifyDoesNotResolve pins the pending state: asking
// Randomized about a deterministic pair must not run Delta — for
// interned specs a premature resolution would intern successors out of
// trajectory order.
func TestDeltaMemoClassifyDoesNotResolve(t *testing.T) {
	deltas := 0
	m := sim.NewDeltaMemo(
		func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			deltas++
			return qu, qv
		},
		func(qu, qv uint64) bool { return false })
	for i := 0; i < 10; i++ {
		if m.Randomized(7, 9) {
			t.Fatal("Randomized(7,9) = true, want false")
		}
	}
	if deltas != 0 {
		t.Fatalf("classification resolved the pair %d times, want 0", deltas)
	}
	if a, b := m.Delta(7, 9, nil); a != 7 || b != 9 {
		t.Fatalf("Delta after classification = (%d,%d), want (7,9)", a, b)
	}
	if deltas != 1 {
		t.Fatalf("first resolution ran the closure %d times, want 1", deltas)
	}
}

// TestDeltaMemoBypassHighCodes pins the shard-view bypass rule: codes
// outside the packable bound — which includes every provisional code,
// whose tag bit 63 is set — always call through and are never stored.
func TestDeltaMemoBypassHighCodes(t *testing.T) {
	calls := 0
	m := sim.NewDeltaMemo(func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
		calls++
		return qu, qv
	}, nil)
	provisional := uint64(1)<<63 | 5
	for i := 0; i < 4; i++ {
		if a, b := m.Delta(provisional, 1, nil); a != provisional || b != 1 {
			t.Fatalf("bypass Delta = (%#x,%d)", a, b)
		}
		m.Delta(1, provisional, nil)
	}
	if calls != 8 {
		t.Fatalf("out-of-range pairs resolved %d times through the closure, want 8", calls)
	}
	if m.Pairs() != 0 {
		t.Fatalf("out-of-range pairs stored %d entries, want 0", m.Pairs())
	}
}

// TestDeltaMemoWideSuccessors: a deterministic pair whose successors do
// not fit the packed entry stays correct (resolved through the closure
// every time) without corrupting the classification.
func TestDeltaMemoWideSuccessors(t *testing.T) {
	wide := uint64(1) << 40
	m := sim.NewDeltaMemo(func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
		return wide, qv
	}, nil)
	for i := 0; i < 3; i++ {
		if a, _ := m.Delta(1, 2, nil); a != wide {
			t.Fatalf("wide Delta = %#x, want %#x", a, wide)
		}
	}
	if m.Randomized(1, 2) {
		t.Fatal("wide deterministic pair classified randomized")
	}
	if a, _, ok := m.DeltaDet(1, 2); !ok || a != wide {
		t.Fatalf("wide DeltaDet = (%#x, ok=%v), want (%#x, true)", a, ok, wide)
	}
}

// TestDeltaMemoWindow pins the window's rule: a window miss classifies
// the pair again, and a deterministic pair evicted from its cell is
// resolved again through the closure, with the same successors and no
// new interner code. Initiators 5, 69 and 133 and responders 9, 73 and
// 137 agree mod 64, so all nine deterministic pairs share one cell and
// cycling through them, via Delta and DeltaDet alike, misses on every
// call. A randomized pair's classification stays cached in its cell
// while the cell holds it; a pair with wide successors and a
// shard-provisional initiator — whose key, with its tag bit shifted
// out, would alias (5, 9) — call through every time.
func TestDeltaMemoWindow(t *testing.T) {
	in := sim.NewInterner(func(p fuzzProduct) uint64 { return hashWords(p.q, p.salt) })
	for q := uint64(0); q < 200; q++ {
		in.Code(fuzzProduct{q: q})
	}
	const wideCode = 197 // 197 mod 64 = 5: the cell row of 5, 69 and 133
	wide := uint64(1) << 40
	provisional := uint64(1)<<63 | 5
	calls := make(map[[2]uint64]int)
	classified := make(map[[2]uint64]int)
	m := sim.NewDeltaMemo(func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
		calls[[2]uint64{qu, qv}]++
		switch qu {
		case provisional:
			return qu, qv
		case wideCode:
			return wide, qv
		}
		return in.Code(fuzzProduct{q: in.State(qv).q + 1000}), in.Code(fuzzProduct{q: in.State(qu).q + 2000})
	}, func(qu, qv uint64) bool {
		classified[[2]uint64{qu, qv}]++
		return qv%64 == 10
	})

	var det [][2]uint64
	for _, qu := range []uint64{5, 69, 133} {
		for _, qv := range []uint64{9, 73, 137} {
			det = append(det, [2]uint64{qu, qv})
		}
	}
	want := make(map[[2]uint64][2]uint64)
	for _, pr := range det {
		a, b := m.Delta(pr[0], pr[1], rng.New(1))
		want[pr] = [2]uint64{a, b}
	}
	states := in.Len()
	if states != 200+3+3 {
		t.Fatalf("first resolutions interned %d states, want %d", states-200, 6)
	}

	const rounds = 20
	for round := 0; round < rounds; round++ {
		for k, pr := range det {
			qu, qv := pr[0], pr[1]
			w := want[pr]
			if (round+k)%2 == 0 {
				if a, b := m.Delta(qu, qv, rng.New(1)); a != w[0] || b != w[1] {
					t.Fatalf("round %d: Delta(%d, %d) = (%d, %d), want %v", round, qu, qv, a, b, w)
				}
			} else if a, b, ok := m.DeltaDet(qu, qv); !ok || a != w[0] || b != w[1] {
				t.Fatalf("round %d: DeltaDet(%d, %d) = (%d, %d, %v), want %v", round, qu, qv, a, b, ok, w)
			}
			if in.Len() != states {
				t.Fatalf("round %d: re-resolving (%d, %d) interned %d new states", round, qu, qv, in.Len()-states)
			}
		}
	}
	for _, pr := range det {
		if c := calls[pr]; c != 1+rounds {
			t.Fatalf("evicted pair %v reached the closure %d times, want %d (a miss on every call)", pr, c, 1+rounds)
		}
	}

	// A pair met twice in a row is answered by its cell the second time.
	hit := det[0]
	before := calls[hit]
	for i := 0; i < 3; i++ {
		m.Delta(hit[0], hit[1], nil)
	}
	if got := calls[hit] - before; got != 1 {
		t.Fatalf("three consecutive calls of %v reached the closure %d times, want 1", hit, got)
	}

	// Randomized pairs: classified once per stay in the cell, resolved
	// through the closure on every call. (5, 10) and (69, 74) share a
	// cell, so alternating them reclassifies.
	rnd, rival := [2]uint64{5, 10}, [2]uint64{69, 74}
	for i := 0; i < 5; i++ {
		m.Delta(rnd[0], rnd[1], rng.New(1))
	}
	if !m.Randomized(rnd[0], rnd[1]) {
		t.Fatal("Randomized(5, 10) = false, want true")
	}
	if _, _, ok := m.DeltaDet(rnd[0], rnd[1]); ok {
		t.Fatal("DeltaDet on a randomized pair reported deterministic")
	}
	if calls[rnd] != 5 || classified[rnd] != 1 {
		t.Fatalf("randomized pair in its cell: %d closure calls and %d classifications, want 5 and 1", calls[rnd], classified[rnd])
	}
	m.Delta(rival[0], rival[1], rng.New(1))
	m.Delta(rnd[0], rnd[1], rng.New(1))
	if classified[rnd] != 2 {
		t.Fatalf("randomized pair classified %d times after an eviction, want 2", classified[rnd])
	}
	states = in.Len() // randomized call-throughs intern their successors

	// Wide successors and provisional codes call through every time.
	wp := [2]uint64{wideCode, 9}
	for i := 0; i < 3; i++ {
		if a, b := m.Delta(wp[0], wp[1], nil); a != wide || b != 9 {
			t.Fatalf("wide Delta = (%#x, %d), want (%#x, 9)", a, b, wide)
		}
		if a, _, ok := m.DeltaDet(wp[0], wp[1]); !ok || a != wide {
			t.Fatalf("wide DeltaDet = (%#x, ok=%v), want (%#x, true)", a, ok, wide)
		}
	}
	if m.Randomized(wp[0], wp[1]) {
		t.Fatal("wide deterministic pair classified randomized")
	}
	if calls[wp] != 6 || classified[wp] != 1 {
		t.Fatalf("wide pair: %d closure calls and %d classifications, want 6 and 1", calls[wp], classified[wp])
	}
	m.Delta(hit[0], hit[1], nil) // evicts the wide pair, refills (5, 9)
	before = calls[hit]
	for i := 0; i < 3; i++ {
		if a, b := m.Delta(provisional, 9, nil); a != provisional || b != 9 {
			t.Fatalf("provisional Delta = (%#x, %d)", a, b)
		}
	}
	if a, b := m.Delta(hit[0], hit[1], nil); a != want[hit][0] || b != want[hit][1] || calls[hit] != before {
		t.Fatalf("(5, 9) after provisional calls: (%d, %d) with %d closure calls, want %v from its cell", a, b, calls[hit]-before, want[hit])
	}
	if c := calls[[2]uint64{provisional, 9}]; c != 3 {
		t.Fatalf("provisional pair reached the closure %d times, want 3", c)
	}
	runs := 0
	for _, c := range classified {
		runs += c
	}
	if m.Pairs() != runs {
		t.Fatalf("Pairs() = %d, want %d (one per window miss, each running the predicate)", m.Pairs(), runs)
	}
	if in.Len() != states {
		t.Fatalf("wide and provisional call-throughs grew the interner from %d to %d states", states, in.Len())
	}
}

// fuzzProduct is the interned "product state" of the memo fuzz: the
// logical state plus a scattered salt, so codes carry no arithmetic
// structure and every resolution must go through the interner — the
// shape of the core specs' product structs.
type fuzzProduct struct {
	q    uint64
	salt uint64
}

// internedFuzzSpec wraps fuzzSpec's random logical rule behind a real
// interner, the way the core specs wrap stepPair: Delta decodes both
// codes, steps the logical rule, and re-interns the successors;
// ShardDelta backs the shard closures with ShardViews. The returned
// interner lets the fuzz compare discovery order across runs.
func internedFuzzSpec(n int, k uint64, raw []byte, flags uint8) (*sim.Spec, *sim.Interner[fuzzProduct]) {
	at := func(i int) uint8 {
		if len(raw) == 0 {
			return 0
		}
		return raw[i%len(raw)]
	}
	size := int(k * k)
	table := make([]uint8, size)
	alt := make([]uint8, size)
	randMask := make([]bool, size)
	withRand := flags&1 != 0
	for i := 0; i < size; i++ {
		table[i] = uint8(uint64(at(i)) % (k * k))
		alt[i] = uint8(uint64(at(i+size)) % (k * k))
		randMask[i] = withRand && at(2*size+i)%4 == 0
	}
	step := func(lu, lv uint64, r *rng.Rand) (uint64, uint64) {
		idx := lu*k + lv
		packed := uint64(table[idx])
		if randMask[idx] && r.Bool() {
			packed = uint64(alt[idx])
		}
		return packed / k, packed % k
	}
	enc := func(q uint64) fuzzProduct { return fuzzProduct{q: q, salt: q * scatterMul} }

	// Filler states interned ahead of each initially occupied state
	// space its code 32 or 64 past the previous one, so the codes the
	// rule reaches straddle several 64-code windows and share residues
	// mod 64: the memo's window cells collide and evict. A state the
	// initial configuration leaves empty is interned later, on first
	// sight.
	in := sim.NewInterner(func(p fuzzProduct) uint64 { return hashWords(p.q, p.salt) })
	filler := uint64(0)
	fill := func(q uint64) {
		for i := 31 + 32*int(at(3*size+int(q))&1); i > 0; i-- {
			in.Code(fuzzProduct{q: k + filler})
			filler++
		}
	}
	counts := make(map[uint64]int64, k)
	per := int64(n) / int64(k)
	rem := int64(n) - per*int64(k)
	for q := uint64(0); q < k; q++ {
		c := per
		if q == 0 {
			c += rem
		}
		if c > 0 {
			fill(q)
			counts[in.Code(enc(q))] = c
		}
	}
	spec := &sim.Spec{
		Name: "fuzz-interned",
		N:    n,
		Init: func() map[uint64]int64 {
			out := make(map[uint64]int64, len(counts))
			for c, v := range counts {
				out[c] = v
			}
			return out
		},
		Delta: func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			a, b := step(in.State(qu).q, in.State(qv).q, r)
			return in.Code(enc(a)), in.Code(enc(b))
		},
		ShardDelta: func(sk int) ([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), func() map[uint64]uint64) {
			g := sim.ShardViews(in, sk)
			ds := make([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), sk)
			for i := range ds {
				v := g.View(i)
				ds[i] = func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
					a, b := step(v.State(qu).q, v.State(qv).q, r)
					return v.Code(enc(a)), v.Code(enc(b))
				}
			}
			return ds, g.Reconcile
		},
		Skip:   flags&2 != 0,
		Output: func(q uint64) int64 { return int64(in.State(q).q) },
	}
	if withRand {
		spec.Randomized = func(qu, qv uint64) bool {
			return randMask[in.State(qu).q*k+in.State(qv).q]
		}
	}
	return spec, in
}

// FuzzMemoDeltaEquivalence pins the tentpole's determinism contract on
// random interned specs: a memoized run must be bit-for-bit identical
// to a direct run — same final configuration (same codes, meaning the
// same interner discovery order, and same decoded states), same
// deterministic engine counters — on the sequential, batched and
// sharded (Shards ∈ {1, 2, 4}) count-engine paths alike.
func FuzzMemoDeltaEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(500), uint8(0), []byte{0x5a})
	f.Add(uint64(42), uint16(2), uint16(1), uint8(1), []byte{})
	f.Add(uint64(7), uint16(300), uint16(9999), uint8(3), []byte{1, 2, 3, 4})
	f.Add(uint64(9), uint16(33), uint16(256), uint8(9), []byte{0xff, 0x00})
	f.Add(uint64(3), uint16(800), uint16(4096), uint8(11), []byte{0x10, 0x9c, 0x33})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, stepsRaw uint16, flags uint8, raw []byte) {
		n := int(nRaw)%1022 + 2
		steps := int64(stepsRaw)%5000 + 1
		k := uint64(len(raw))%5 + 2
		for _, shards := range []int{1, 2, 4} {
			batched := shards > 1 || flags&8 != 0
			cfg := sim.Config{Seed: seed, BatchSteps: batched, Shards: shards}

			directSpec, directIn := internedFuzzSpec(n, k, raw, flags)
			memoSpec, memoIn := internedFuzzSpec(n, k, raw, flags)
			memoSpec.MemoizeDelta()

			ed, err := sim.NewCountEngine(sim.NewSpecCount(directSpec), cfg)
			if err != nil {
				t.Fatalf("shards=%d: direct engine: %v", shards, err)
			}
			em, err := sim.NewCountEngine(sim.NewSpecCount(memoSpec), cfg)
			if err != nil {
				t.Fatalf("shards=%d: memo engine: %v", shards, err)
			}
			var done int64
			for batch := int64(1); done < steps; batch = batch*3 + 1 {
				if batch > steps-done {
					batch = steps - done
				}
				ed.Step(batch)
				em.Step(batch)
				done += batch
			}

			want := make(map[uint64]int64)
			ed.Counts().ForEach(func(code uint64, cnt int64) { want[code] = cnt })
			got := make(map[uint64]int64)
			em.Counts().ForEach(func(code uint64, cnt int64) { got[code] = cnt })
			if len(got) != len(want) {
				t.Fatalf("shards=%d: %d occupied states memoized, %d direct", shards, len(got), len(want))
			}
			for code, cnt := range want {
				if got[code] != cnt {
					t.Fatalf("shards=%d: count[%d] = %d memoized, %d direct (code-assignment order perturbed)",
						shards, code, got[code], cnt)
				}
				if directIn.State(code) != memoIn.State(code) {
					t.Fatalf("shards=%d: code %d decodes to %+v memoized, %+v direct",
						shards, code, memoIn.State(code), directIn.State(code))
				}
			}
			if directIn.Len() != memoIn.Len() {
				t.Fatalf("shards=%d: interner discovered %d states memoized, %d direct",
					shards, memoIn.Len(), directIn.Len())
			}
			if ds, ms := ed.Stats(), em.Stats(); ds != ms {
				t.Fatalf("shards=%d: engine stats diverge: memoized %+v, direct %+v", shards, ms, ds)
			}
		}
	})
}
