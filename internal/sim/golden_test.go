package sim_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"popcount/internal/core"
	"popcount/internal/junta"
	"popcount/internal/sim"
)

// goldenPin is what one pinned batched run must reproduce: every
// engine counter and a digest of the final configuration.
type goldenPin struct {
	stats  sim.EngineStats
	digest uint64
}

// configDigest hashes the occupied configuration as (code, count)
// pairs in ascending code order.
func configDigest(e *sim.CountEngine) uint64 {
	type cell struct {
		code uint64
		cnt  int64
	}
	var cells []cell
	e.Counts().ForEach(func(code uint64, cnt int64) { cells = append(cells, cell{code, cnt}) })
	sort.Slice(cells, func(a, b int) bool { return cells[a].code < cells[b].code })
	h := fnv.New64a()
	var buf [16]byte
	for _, c := range cells {
		binary.LittleEndian.PutUint64(buf[:8], c.code)
		binary.LittleEndian.PutUint64(buf[8:], uint64(c.cnt))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenPins are the trajectories of the map-only planner: the
// occupied-slot matrix is a cache in front of the transition-matrix map,
// so every batched trajectory must reproduce them bit for bit.
var goldenPins = map[string]goldenPin{
	"approximate-4096/shards=1": {
		stats:  sim.EngineStats{DeltaCalls: 135676, Epochs: 32244, Violations: 68, HalfDiscards: 44},
		digest: 0x58f0c185e5654f6c,
	},
	"approximate-4096/shards=2": {
		stats: sim.EngineStats{DeltaCalls: 157983, Epochs: 31959, Violations: 67, HalfReuses: 1, HalfDiscards: 46,
			ShardEpochs: 31977, ShardBlocks: 170224, MergeConflicts: 40},
		digest: 0x96826735f510530d,
	},
	"approximate-16384/shards=1": {
		stats:  sim.EngineStats{DeltaCalls: 197162, Epochs: 19460, Violations: 60, HalfDiscards: 34},
		digest: 0x9079d3063870c8e5,
	},
	"approximate-16384/shards=2": {
		stats: sim.EngineStats{DeltaCalls: 194399, Epochs: 19406, Violations: 41, HalfDiscards: 24,
			ShardEpochs: 19408, ShardBlocks: 123027, MergeConflicts: 19},
		digest: 0xeff728eb3f80383c,
	},
	"exact-4096/shards=1": {
		stats:  sim.EngineStats{DeltaCalls: 113582, Epochs: 5257, Violations: 10, HalfDiscards: 8},
		digest: 0x17452631a69685e2,
	},
	"exact-4096/shards=2": {
		stats: sim.EngineStats{DeltaCalls: 120071, Epochs: 5275, Violations: 3, HalfReuses: 1, HalfDiscards: 2,
			ShardEpochs: 5276, ShardBlocks: 14132, MergeConflicts: 3, StealEvents: 12},
		digest: 0x5d9a24a6b8e7ca7f,
	},
	"junta-65536/shards=1": {
		stats:  sim.EngineStats{DeltaCalls: 3840, Epochs: 483, Violations: 2, HalfDiscards: 1},
		digest: 0x93a0b9b9644bf5fc,
	},
	"junta-65536/shards=2": {
		stats:  sim.EngineStats{DeltaCalls: 3840, Epochs: 444, ShardEpochs: 444, ShardBlocks: 1872},
		digest: 0x47473261a06171dc,
	},
	"approximate-4096-faulted/shards=1": {
		stats:  sim.EngineStats{DeltaCalls: 1687116, Epochs: 3465, Violations: 18, HalfDiscards: 13},
		digest: 0x83964bc88f1d9d90,
	},
	"approximate-4096-faulted/shards=2": {
		stats: sim.EngineStats{DeltaCalls: 1763265, Epochs: 2849, Violations: 7, HalfDiscards: 4,
			ShardEpochs: 2850, ShardBlocks: 13210, MergeConflicts: 4},
		digest: 0xf2feca2ce02d0c2,
	},
}

// TestBatchPlannerGoldenCounters pins the batch planners' trajectories
// — serial (Shards 1) and sharded (Shards 2) — on Approximate, on
// CountExact with an epoch cap loose enough that planning sees more
// occupied states than the slot matrix holds, on the junta process and
// on a faulted run. It also checks the slot matrix against the map
// after every Step.
func TestBatchPlannerGoldenCounters(t *testing.T) {
	approx := func(n int) func() sim.CountProtocol {
		return func() sim.CountProtocol { return sim.NewSpecCount(core.NewApproximateSpec(core.Config{N: n}).Spec) }
	}
	faults := &sim.FaultPlan{
		Seed:          5,
		Bursts:        []sim.FaultBurst{{At: 1 << 19, Agents: 64}, {At: 3 << 19, Agents: 16, Random: true}},
		CorruptRate:   0.1,
		CorruptAgents: 2,
		CorruptRandom: true,
		ChurnRate:     0.1,
	}
	cases := []struct {
		name  string
		proto func() sim.CountProtocol
		cfg   sim.Config
		steps int64
	}{
		{"approximate-4096", approx(1 << 12), sim.Config{Seed: 1}, 1 << 22},
		{"approximate-16384", approx(1 << 14), sim.Config{Seed: 2}, 1 << 23},
		// Planning runs only while occupied² < BatchMaxRounds·n, so
		// this cap lets one pass see over 500 occupied states, past the
		// slot matrix's 256, before the run settles into slot churn.
		{"exact-4096", func() sim.CountProtocol {
			return sim.NewSpecCount(core.NewCountExactSpec(core.Config{N: 1 << 12}).Spec)
		}, sim.Config{Seed: 1, BatchMaxRounds: 160}, 3 << 18},
		{"junta-65536", func() sim.CountProtocol { return sim.NewSpecCount(junta.NewSpec(1 << 16)) }, sim.Config{Seed: 3}, 1 << 20},
		{"approximate-4096-faulted", approx(1 << 12), sim.Config{Seed: 4, Faults: faults}, 1 << 21},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("%s/shards=%d", tc.name, shards)
			t.Run(name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.BatchSteps, cfg.Shards = true, shards
				e, err := sim.NewCountEngine(tc.proto(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				chunk := tc.steps / 8
				for done := int64(0); done < tc.steps; done += chunk {
					e.Step(chunk)
					if err := sim.CheckSlotMatrix(e); err != nil {
						t.Fatalf("after %d interactions: %v", done+chunk, err)
					}
				}
				got := goldenPin{e.Stats(), configDigest(e)}
				want, ok := goldenPins[name]
				if !ok {
					t.Fatalf("no pin recorded; got %#v", got)
				}
				if got != want {
					t.Fatalf("trajectory drifted:\n got %+v digest %#x\nwant %+v digest %#x",
						got.stats, got.digest, want.stats, want.digest)
				}
			})
		}
	}
}
