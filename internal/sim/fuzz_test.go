package sim_test

import (
	"runtime"
	"testing"

	"popcount/internal/baseline"
	"popcount/internal/epidemic"
	"popcount/internal/junta"
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// fuzzTable is a CountProtocol with an arbitrary deterministic
// transition table over a tiny alphabet, derived from fuzz input. It
// exercises the engine's bookkeeping — state discovery, sampler repair,
// no-op adjacency — on transition structures no hand-written protocol
// has.
type fuzzTable struct {
	n     int
	k     uint64
	table []uint8 // table[qu*k+qv] packs (qu2, qv2) as qu2*k+qv2
}

func newFuzzTable(n int, k uint64, raw []byte) *fuzzTable {
	t := &fuzzTable{n: n, k: k, table: make([]uint8, k*k)}
	for i := range t.table {
		var b uint8
		if len(raw) > 0 {
			b = raw[i%len(raw)]
		}
		t.table[i] = uint8(uint64(b) % (k * k))
	}
	return t
}

func (t *fuzzTable) N() int { return t.n }

func (t *fuzzTable) InitCounts() map[uint64]int64 {
	// Spread the population over the alphabet, all states occupied.
	init := make(map[uint64]int64, t.k)
	per := int64(t.n) / int64(t.k)
	rem := int64(t.n) - per*int64(t.k)
	for q := uint64(0); q < t.k; q++ {
		c := per
		if q == 0 {
			c += rem
		}
		if c > 0 {
			init[q] = c
		}
	}
	return init
}

func (t *fuzzTable) Delta(qu, qv uint64, _ *rng.Rand) (uint64, uint64) {
	packed := uint64(t.table[qu*t.k+qv])
	return packed / t.k, packed % t.k
}

func (t *fuzzTable) SelfLoop(qu, qv uint64) bool {
	a, b := t.Delta(qu, qv, nil)
	return a == qu && b == qv
}

// DeltaDet exposes the fuzz table's (deterministic) transition matrix
// so the batched path exercises the bulk-apply route, not just the
// per-interaction fallback.
func (t *fuzzTable) DeltaDet(qu, qv uint64) (uint64, uint64, bool) {
	a, b := t.Delta(qu, qv, nil)
	return a, b, true
}

// fuzzProto builds the count protocol selected by a fuzz input byte.
func fuzzProto(sel uint8, n int, raw []byte) sim.CountProtocol {
	switch sel % 5 {
	case 0:
		return sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, true))
	case 1:
		return sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, false))
	case 2:
		return sim.NewSpecCount(junta.NewSpec(n))
	case 3:
		return sim.NewSpecCount(baseline.NewGeometricSpec(n))
	default:
		k := uint64(len(raw))%5 + 2 // alphabet size [2, 6]
		return newFuzzTable(n, k, raw)
	}
}

// FuzzCountConservation asserts the agent-conservation invariant
// Σ counts == n after every batch, across the hand-written count
// protocols and random transition tables, on both engine paths.
func FuzzCountConservation(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(500), uint8(0), []byte{0x5a})
	f.Add(uint64(42), uint16(2), uint16(1), uint8(1), []byte{})
	f.Add(uint64(7), uint16(300), uint16(9999), uint8(2), []byte{1, 2, 3, 4})
	f.Add(uint64(9), uint16(33), uint16(256), uint8(3), []byte{0xff, 0x00})
	f.Add(uint64(3), uint16(17), uint16(77), uint8(4), []byte{0x10, 0x9c, 0x33})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, stepsRaw uint16, sel uint8, raw []byte) {
		n := int(nRaw)%1022 + 2 // [2, 1023]
		steps := int64(stepsRaw)%5000 + 1
		p := fuzzProto(sel, n, raw)
		for _, disable := range []bool{false, true} {
			e, err := sim.NewCountEngine(p, sim.Config{Seed: seed, DisableBatch: disable})
			if err != nil {
				t.Fatalf("NewCountEngine: %v", err)
			}
			var done int64
			for batch := int64(1); done < steps; batch = batch*3 + 1 {
				if batch > steps-done {
					batch = steps - done
				}
				e.Step(batch)
				done += batch
				if got := e.Counts().Sum(); got != int64(n) {
					t.Fatalf("Σ counts = %d after %d interactions (disableSkip=%v), want %d",
						got, done, disable, n)
				}
				e.Counts().ForEach(func(code uint64, cnt int64) {
					if cnt < 0 {
						t.Fatalf("negative count %d for state %#x", cnt, code)
					}
				})
				if e.Interactions() != done {
					t.Fatalf("Interactions = %d, want %d", e.Interactions(), done)
				}
			}
		}
	})
}

// FuzzCountBatchEquivalence fuzzes the multinomial batch-stepping mode:
// arbitrary interleavings of batch sizes must conserve Σ counts == n
// with non-negative counts and an exact interaction counter, keep the
// planner's occupied-slot matrix consistent with its transition-matrix
// map, and — the exact-fallback contract — a batch-mode engine stepped
// only below the batching threshold must stay bit-for-bit equal to a
// seed-matched sequential count engine.
func FuzzCountBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint16(1000), uint8(0), []byte{0x5a})
	f.Add(uint64(42), uint16(2), uint16(1), uint8(1), []byte{})
	f.Add(uint64(7), uint16(800), uint16(60000), uint8(2), []byte{1, 2, 3, 4})
	f.Add(uint64(9), uint16(64), uint16(256), uint8(3), []byte{0xff, 0x00})
	f.Add(uint64(3), uint16(17), uint16(77), uint8(4), []byte{0x10, 0x9c, 0x33})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, stepsRaw uint16, sel uint8, raw []byte) {
		n := int(nRaw)%1022 + 2 // [2, 1023]
		steps := int64(stepsRaw)%60000 + 1
		e, err := sim.NewCountEngine(fuzzProto(sel, n, raw),
			sim.Config{Seed: seed, BatchSteps: true})
		if err != nil {
			t.Fatalf("NewCountEngine: %v", err)
		}
		// Uneven interleaving of batch sizes straddling the batching
		// threshold, derived from the raw bytes.
		var done int64
		for i := 0; done < steps; i++ {
			batch := int64(1)
			if len(raw) > 0 {
				batch += int64(raw[i%len(raw)]) * (1 + int64(i)%97)
			} else {
				batch += int64(i) % 257
			}
			if batch > steps-done {
				batch = steps - done
			}
			e.Step(batch)
			done += batch
			if err := sim.CheckSlotMatrix(e); err != nil {
				t.Fatalf("slot matrix after %d interactions: %v", done, err)
			}
			if got := e.Counts().Sum(); got != int64(n) {
				t.Fatalf("Σ counts = %d after %d interactions, want %d", got, done, n)
			}
			e.Counts().ForEach(func(code uint64, cnt int64) {
				if cnt < 0 {
					t.Fatalf("negative count %d for state %#x", cnt, code)
				}
			})
			if e.Interactions() != done {
				t.Fatalf("Interactions = %d, want %d", e.Interactions(), done)
			}
		}

		// Exact-fallback contract: below-threshold stepping is bit-for-bit
		// the sequential engine.
		batched, err := sim.NewCountEngine(fuzzProto(sel, n, raw),
			sim.Config{Seed: seed, BatchSteps: true})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := sim.NewCountEngine(fuzzProto(sel, n, raw), sim.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var small int64
		for i := 0; small < 500; i++ {
			// Unsigned arithmetic: a seed >= 2^63 must not flip the
			// modulo negative. step stays in [1, 63] < batchMinTau.
			step := int64(1 + (seed+uint64(i)*7)%63)
			batched.Step(step)
			seq.Step(step)
			small += step
		}
		want := map[uint64]int64{}
		seq.Counts().ForEach(func(code uint64, cnt int64) { want[code] = cnt })
		states := 0
		batched.Counts().ForEach(func(code uint64, cnt int64) {
			states++
			if want[code] != cnt {
				t.Fatalf("state %#x: batched count %d, sequential %d", code, cnt, want[code])
			}
		})
		if states != len(want) {
			t.Fatalf("occupied states differ: batched %d vs sequential %d", states, len(want))
		}
	})
}

// FuzzShardMergeEquivalence fuzzes the sharded batch planner
// (sim.Config.Shards, countshard.go) across random protocols, shard
// counts and batch interleavings. Three contracts: Σ counts == n with
// non-negative counts, an exact interaction counter and a slot matrix
// consistent with the transition-matrix map after every batch at any
// shard count; Shards ≤ 1 is the compatibility stream,
// bit-for-bit identical to the plain serial batched planner; and at a
// fixed shard count ≥ 2 the run — configuration and every engine
// counter — is identical on one core and many.
func FuzzShardMergeEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint16(5000), uint8(0), uint8(0), []byte{0x5a})
	f.Add(uint64(42), uint16(2), uint16(1), uint8(1), uint8(3), []byte{})
	f.Add(uint64(7), uint16(800), uint16(60000), uint8(2), uint8(6), []byte{1, 2, 3, 4})
	f.Add(uint64(9), uint16(64), uint16(256), uint8(3), uint8(1), []byte{0xff, 0x00})
	f.Add(uint64(3), uint16(17), uint16(77), uint8(4), uint8(7), []byte{0x10, 0x9c, 0x33})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, stepsRaw uint16, sel, shardsRaw uint8, raw []byte) {
		n := int(nRaw)%1022 + 2 // [2, 1023]
		steps := int64(stepsRaw)%30000 + 1
		shards := int(shardsRaw)%7 + 2 // [2, 8]

		// run steps a fresh engine through the shared uneven batch
		// interleaving, checking the conservation invariants after every
		// batch, and returns the final configuration and stats.
		run := func(shards int) (map[uint64]int64, sim.EngineStats) {
			e, err := sim.NewCountEngine(fuzzProto(sel, n, raw),
				sim.Config{Seed: seed, BatchSteps: true, Shards: shards})
			if err != nil {
				t.Fatalf("NewCountEngine(shards=%d): %v", shards, err)
			}
			var done int64
			for i := 0; done < steps; i++ {
				batch := int64(1)
				if len(raw) > 0 {
					batch += int64(raw[i%len(raw)]) * (1 + int64(i)%97)
				} else {
					batch += int64(i) % 257
				}
				if batch > steps-done {
					batch = steps - done
				}
				e.Step(batch)
				done += batch
				if err := sim.CheckSlotMatrix(e); err != nil {
					t.Fatalf("shards=%d: slot matrix after %d interactions: %v", shards, done, err)
				}
				if got := e.Counts().Sum(); got != int64(n) {
					t.Fatalf("shards=%d: Σ counts = %d after %d interactions, want %d", shards, got, done, n)
				}
				e.Counts().ForEach(func(code uint64, cnt int64) {
					if cnt < 0 {
						t.Fatalf("shards=%d: negative count %d for state %#x", shards, cnt, code)
					}
				})
				if e.Interactions() != done {
					t.Fatalf("shards=%d: Interactions = %d, want %d", shards, e.Interactions(), done)
				}
			}
			counts := map[uint64]int64{}
			e.Counts().ForEach(func(code uint64, cnt int64) { counts[code] = cnt })
			return counts, e.Stats()
		}
		same := func(label string, a, b map[uint64]int64) {
			if len(a) != len(b) {
				t.Fatalf("%s: occupied states differ: %d vs %d", label, len(a), len(b))
			}
			for code, cnt := range a {
				if b[code] != cnt {
					t.Fatalf("%s: state %#x count %d vs %d", label, code, cnt, b[code])
				}
			}
		}

		// Compatibility stream: Shards values ≤ 1 keep the serial planner
		// bit for bit.
		serialCounts, serialStats := run(0)
		compatCounts, compatStats := run(1)
		if compatStats != serialStats {
			t.Fatalf("Shards=1 stats %+v differ from serial %+v", compatStats, serialStats)
		}
		if compatStats.ShardEpochs != 0 {
			t.Fatalf("compatibility mode planned %d sharded epochs", compatStats.ShardEpochs)
		}
		same("Shards=1 vs serial", serialCounts, compatCounts)

		// GOMAXPROCS invariance: the sharded run's trajectory is a
		// function of (protocol, seed, shards), never of the core count.
		prev := runtime.GOMAXPROCS(1)
		c1, s1 := run(shards)
		runtime.GOMAXPROCS(4)
		c4, s4 := run(shards)
		runtime.GOMAXPROCS(prev)
		if s1 != s4 {
			t.Fatalf("shards=%d: stats differ across GOMAXPROCS: 1 core %+v, 4 cores %+v", shards, s1, s4)
		}
		same("GOMAXPROCS 1 vs 4", c1, c4)
	})
}
