package sim_test

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"

	"popcount/internal/clock"
	"popcount/internal/core"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/sim"
)

// goldenPin is what one pinned run must reproduce: every engine
// counter and a digest of the final configuration.
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

// goldenPins are the trajectories of the map-only planner and of the
// Fenwick-only sampler: the occupied-slot matrix is a cache in front of
// the transition-matrix map, and the occupied window's linear scan
// returns the index the Fenwick descent returns, so every trajectory
// must reproduce them bit for bit.
var goldenPins = map[string]goldenPin{
	"approximate-4096/unbatched": {
		stats:  sim.EngineStats{DeltaCalls: 4194304},
		digest: 0xfa048f991dd30227,
	},
	"approximate-16384/unbatched": {
		stats:  sim.EngineStats{DeltaCalls: 8388608},
		digest: 0x70c3b0e7a982a0be,
	},
	"exact-4096/unbatched": {
		stats:  sim.EngineStats{DeltaCalls: 786432},
		digest: 0x6c6db4155a666a80,
	},
	"junta-65536/unbatched": {
		stats:  sim.EngineStats{DeltaCalls: 180258},
		digest: 0x16beb94f53a8fbcc,
	},
	"approximate-4096-faulted/unbatched": {
		stats:  sim.EngineStats{DeltaCalls: 2097152},
		digest: 0xf8a85a99f56e2b18,
	},
	"leader-4096/unbatched": {
		stats:  sim.EngineStats{DeltaCalls: 4194304},
		digest: 0x103710b54d622140,
	},
	// 3,749,888 interactions to convergence, 71,736 states discovered.
	"exact-2048-converged/unbatched": {
		stats:  sim.EngineStats{DeltaCalls: 3749888},
		digest: 0x76882b8bb3634cb8,
	},
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
	"leader-4096/shards=1": {
		stats:  sim.EngineStats{DeltaCalls: 1396784, Epochs: 25232, Violations: 48, HalfDiscards: 32},
		digest: 0x2be8084558bc1b13,
	},
	"leader-4096/shards=2": {
		stats: sim.EngineStats{DeltaCalls: 1516237, Epochs: 24088, Violations: 33, HalfDiscards: 28,
			ShardEpochs: 24108, ShardBlocks: 124850, MergeConflicts: 25},
		digest: 0x1be0d76594b363ce,
	},
}

// goldenFaults is the fault plan of the pinned faulted runs: two
// bursts, random corruption and churn.
func goldenFaults() *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed:          5,
		Bursts:        []sim.FaultBurst{{At: 1 << 19, Agents: 64}, {At: 3 << 19, Agents: 16, Random: true}},
		CorruptRate:   0.1,
		CorruptAgents: 2,
		CorruptRandom: true,
		ChurnRate:     0.1,
	}
}

// TestBatchPlannerGoldenCounters pins the count engine's trajectories
// — unbatched, and through the batch planners serial (Shards 1) and
// sharded (Shards 2) — on Approximate, on CountExact with an epoch cap
// loose enough that planning sees more occupied states than the slot
// matrix holds, on the junta process (the unbatched self-loop skip
// path), on a faulted run and on the leader spec. One more row runs
// CountExact n = 2¹¹ unbatched to convergence, through both of the
// sampler's lookup paths. After every Step (every poll, for the run to
// convergence) it checks the occupied window and the slot matrix
// against the map.
func TestBatchPlannerGoldenCounters(t *testing.T) {
	approx := func(n int) func() sim.CountProtocol {
		return func() sim.CountProtocol { return sim.NewSpecCount(core.NewApproximateSpec(core.Config{N: n}).Spec) }
	}
	exact := func(n int) func() sim.CountProtocol {
		return func() sim.CountProtocol { return sim.NewSpecCount(core.NewCountExactSpec(core.Config{N: n}).Spec) }
	}
	faults := goldenFaults()
	cases := []struct {
		name  string
		proto func() sim.CountProtocol
		cfg   sim.Config
		steps int64 // zero: run unbatched to convergence
	}{
		{"approximate-4096", approx(1 << 12), sim.Config{Seed: 1}, 1 << 22},
		{"approximate-16384", approx(1 << 14), sim.Config{Seed: 2}, 1 << 23},
		// Planning runs only while occupied² < BatchMaxRounds·n, so
		// this cap lets one pass see over 500 occupied states, past the
		// slot matrix's 256, before the run settles into slot churn.
		{"exact-4096", exact(1 << 12), sim.Config{Seed: 1, BatchMaxRounds: 160}, 3 << 18},
		{"junta-65536", func() sim.CountProtocol { return sim.NewSpecCount(junta.NewSpec(1 << 16)) }, sim.Config{Seed: 3}, 1 << 20},
		{"approximate-4096-faulted", approx(1 << 12), sim.Config{Seed: 4, Faults: faults}, 1 << 21},
		// The leader spec has randomized pairs and no shard closures, so
		// its sharded run resolves them on the deferred serial path.
		{"leader-4096", func() sim.CountProtocol {
			return sim.NewSpecCount(leader.NewSpec(1<<12, clock.DefaultM, 24))
		}, sim.Config{Seed: 1}, 1 << 22},
		{"exact-2048-converged", exact(1 << 11), sim.Config{Seed: 1}, 0},
	}
	type mode struct {
		name   string
		batch  bool
		shards int
	}
	for _, tc := range cases {
		modes := []mode{{"unbatched", false, 0}, {"shards=1", true, 1}, {"shards=2", true, 2}}
		if tc.steps == 0 {
			modes = modes[:1]
		}
		for _, m := range modes {
			name := tc.name + "/" + m.name
			t.Run(name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.BatchSteps, cfg.Shards = m.batch, m.shards
				var e *sim.CountEngine
				check := func(done int64) {
					if err := sim.CheckWindow(e); err != nil {
						t.Fatalf("after %d interactions: %v", done, err)
					}
					if err := sim.CheckSlotMatrix(e); err != nil {
						t.Fatalf("after %d interactions: %v", done, err)
					}
				}
				if tc.steps == 0 {
					cfg.Observe = func(obs sim.Observation) { check(obs.Interactions) }
				}
				e, err := sim.NewCountEngine(tc.proto(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.steps == 0 {
					if res, err := e.RunToConvergence(); err != nil || !res.Converged {
						t.Fatalf("run to convergence: %+v, %v", res, err)
					}
				}
				chunk := tc.steps / 8
				for done := int64(0); done < tc.steps; done += chunk {
					e.Step(chunk)
					check(done + chunk)
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

// agentPin is what one pinned agent-engine run must reproduce: its
// interaction count and a digest of the final code array.
type agentPin struct {
	interactions int64
	digest       uint64
}

// codeDigest hashes the agent array's codes in agent order.
func codeDigest(p *sim.SpecAgent) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < p.N(); i++ {
		binary.LittleEndian.PutUint64(buf[:], p.Code(i))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// agentPins are agent-engine trajectories recorded with the map-backed
// count mirror and a memo without its window. The mirror is read by the
// convergence poll and by the fault plane's victim and plurality
// draws, and the window answers resolutions the table answered before,
// so every trajectory must reproduce them bit for bit.
var agentPins = map[string]agentPin{
	"exact-2048-converged":     {4917248, 0xb0822ac2ec5c0603},
	"approximate-4096":         {4194304, 0x76c2a7653a36b816},
	"approximate-4096-faulted": {2097152, 0x20d68eeb00d5add4},
	"approximate-4096-replay":  {2097152, 0x68ca7b8158927e80},
	"approximate-4096-bias":    {2097152, 0x9cefb3974d5a3c5d},
}

// TestAgentGoldenPins pins the agent engine on CountExact n = 2¹¹ run
// to convergence, on Approximate n = 2¹² and on the faulted Approximate
// run of TestBatchPlannerGoldenCounters, alone and with each adversary
// that picks its agents through the mirror (stale replay and initiator
// bias). It checks the count mirror against the code array after every
// poll, and after every eighth of a stepped run.
func TestAgentGoldenPins(t *testing.T) {
	exact := func() *sim.Spec { return core.NewCountExactSpec(core.Config{N: 1 << 11}).Spec }
	approx := func() *sim.Spec { return core.NewApproximateSpec(core.Config{N: 1 << 12}).Spec }
	adversary := func(kind sim.AdversaryKind) *sim.FaultPlan {
		plan := goldenFaults()
		plan.Adversary, plan.AdversaryRate = kind, 0.5
		return plan
	}
	cases := []struct {
		name  string
		spec  func() *sim.Spec
		cfg   sim.Config
		steps int64 // zero: run to convergence
	}{
		{"exact-2048-converged", exact, sim.Config{Seed: 1}, 0},
		{"approximate-4096", approx, sim.Config{Seed: 1}, 1 << 22},
		{"approximate-4096-faulted", approx, sim.Config{Seed: 4, Faults: goldenFaults()}, 1 << 21},
		{"approximate-4096-replay", approx, sim.Config{Seed: 4, Faults: adversary(sim.AdversaryStaleReplay)}, 1 << 21},
		{"approximate-4096-bias", approx, sim.Config{Seed: 4, Faults: adversary(sim.AdversaryInitiatorBias)}, 1 << 21},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := sim.NewSpecAgent(tc.spec())
			check := func(done int64) {
				if err := sim.CheckMirror(p); err != nil {
					t.Fatalf("after %d interactions: %v", done, err)
				}
			}
			cfg := tc.cfg
			if tc.steps == 0 {
				cfg.Observe = func(obs sim.Observation) { check(obs.Interactions) }
			}
			e, err := sim.NewEngine(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.steps == 0 {
				if res, err := e.RunToConvergence(); err != nil || !res.Converged {
					t.Fatalf("run to convergence: %+v, %v", res, err)
				}
			}
			chunk := tc.steps / 8
			for done := int64(0); done < tc.steps; done += chunk {
				e.Step(chunk)
				check(done + chunk)
			}
			got := agentPin{e.Interactions(), codeDigest(p)}
			if want := agentPins[tc.name]; got != want {
				t.Fatalf("trajectory drifted: got %d interactions, digest %#x; want %d, %#x",
					got.interactions, got.digest, want.interactions, want.digest)
			}
		})
	}
}
