package sim_test

import (
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// TestDeltaMemoCachesDeterministic pins the memo's core promise: a
// deterministic pair's closure runs exactly once, every repeat is a
// table hit with identical successors.
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

// TestDeltaMemoWindow drives the direct-mapped window in front of the
// probe table. Initiators 5, 69 and 133 and responders 9, 73 and 137
// agree mod 64, so all nine pairs share one window cell: alternating
// them evicts and refills it on every call, through Delta and DeltaDet
// alike. Every answer must equal the closure's, and each deterministic
// pair must reach the closure exactly once. Randomized pairs in the
// same cell call through every time, as do a pair with wide successors
// and a shard-provisional initiator — whose key, with its tag bit
// shifted out, would alias (5, 9) if it reached the window.
func TestDeltaMemoWindow(t *testing.T) {
	const wideCode = 197 // 197 mod 64 = 5: the same window row
	wide := uint64(1) << 40
	closure := func(qu, qv uint64) (uint64, uint64) {
		if qu == wideCode {
			return wide, qv
		}
		return qv + 1, qu + 2
	}
	calls := make(map[[2]uint64]int)
	m := sim.NewDeltaMemo(func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
		calls[[2]uint64{qu, qv}]++
		return closure(qu, qv)
	}, func(qu, qv uint64) bool { return qv == 10 })
	provisional := uint64(1)<<63 | 5
	det := [][2]uint64{}
	for _, qu := range []uint64{5, 69, 133} {
		for _, qv := range []uint64{9, 73, 137} {
			det = append(det, [2]uint64{qu, qv})
		}
	}
	through := [][2]uint64{{5, 10}, {69, 10}, {wideCode, 9}, {provisional, 9}}
	const rounds = 20
	for round := 0; round < rounds; round++ {
		for k, pr := range append(det, through...) {
			qu, qv := pr[0], pr[1]
			wa, wb := closure(qu, qv)
			if (round+k)%2 == 0 || qv == 10 {
				if a, b := m.Delta(qu, qv, rng.New(1)); a != wa || b != wb {
					t.Fatalf("round %d: Delta(%#x, %d) = (%#x, %#x), want (%#x, %#x)", round, qu, qv, a, b, wa, wb)
				}
				continue
			}
			if a, b, ok := m.DeltaDet(qu, qv); !ok || a != wa || b != wb {
				t.Fatalf("round %d: DeltaDet(%#x, %d) = (%#x, %#x, %v), want (%#x, %#x, true)", round, qu, qv, a, b, ok, wa, wb)
			}
		}
	}
	for _, pr := range det {
		if c := calls[pr]; c != 1 {
			t.Fatalf("deterministic pair %v reached the closure %d times, want 1", pr, c)
		}
	}
	for _, pr := range through {
		if c := calls[pr]; c != rounds {
			t.Fatalf("pair (%#x, %d) reached the closure %d times, want %d", pr[0], pr[1], c, rounds)
		}
	}
	if _, _, ok := m.DeltaDet(5, 10); ok {
		t.Fatal("DeltaDet on a randomized pair reported deterministic")
	}
	// The nine window pairs, two randomized ones and the wide one; the
	// provisional pair is never stored.
	if got, want := m.Pairs(), len(det)+3; got != want {
		t.Fatalf("Pairs() = %d, want %d", got, want)
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
	in := sim.NewInterner[fuzzProduct]()
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
