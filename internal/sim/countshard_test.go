package sim_test

import (
	"math"
	"runtime"
	"testing"

	"popcount/internal/baseline"
	"popcount/internal/clock"
	"popcount/internal/core"
	"popcount/internal/epidemic"
	"popcount/internal/junta"
	"popcount/internal/sim"
)

// shardProtos are the protocols the sharded-path tests sweep: the pure
// building blocks (shard closures synthesized from PureDelta) and the
// interned composed protocols (shard closures over provisional interner
// views).
func shardProtos(n int) map[string]func() sim.CountProtocol {
	return map[string]func() sim.CountProtocol{
		"epidemic":  func() sim.CountProtocol { return sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, true)) },
		"junta":     func() sim.CountProtocol { return sim.NewSpecCount(junta.NewSpec(n)) },
		"clock":     func() sim.CountProtocol { return sim.NewSpecCount(clock.NewSpec(n, clock.DefaultM, 16, 3)) },
		"geometric": func() sim.CountProtocol { return sim.NewSpecCount(baseline.NewGeometricSpec(n)) },
		"approximate": func() sim.CountProtocol {
			return sim.NewSpecCount(core.NewApproximateSpec(core.Config{N: n}).Spec)
		},
	}
}

// shardedCfg returns a sharded batch config.
func shardedCfg(seed uint64, shards int) sim.Config {
	return sim.Config{Seed: seed, BatchSteps: true, Shards: shards}
}

// snapshotCounts copies an engine's configuration into a map.
func snapshotCounts(e *sim.CountEngine) map[uint64]int64 {
	m := map[uint64]int64{}
	e.Counts().ForEach(func(code uint64, cnt int64) { m[code] = cnt })
	return m
}

// TestCountShardConservation steps sharded engines in uneven batch
// sizes across the protocol sweep and asserts Σ counts == n,
// non-negativity and an exact interaction counter after every Step.
func TestCountShardConservation(t *testing.T) {
	const n = 4096
	for name, mk := range shardProtos(n) {
		for _, shards := range []int{2, 3, 8} {
			e, err := sim.NewCountEngine(mk(), shardedCfg(7, shards))
			if err != nil {
				t.Fatalf("%s/S=%d: NewCountEngine: %v", name, shards, err)
			}
			var done int64
			for _, batch := range []int64{1, 63, 1000, 100000, n * n / 4} {
				e.Step(batch)
				done += batch
				if got := e.Counts().Sum(); got != int64(n) {
					t.Fatalf("%s/S=%d: Σ counts = %d after Step(%d), want %d", name, shards, got, batch, n)
				}
				e.Counts().ForEach(func(code uint64, cnt int64) {
					if cnt < 0 {
						t.Fatalf("%s/S=%d: negative count %d for state %#x", name, shards, cnt, code)
					}
				})
				if e.Interactions() != done {
					t.Fatalf("%s/S=%d: Interactions = %d, want %d", name, shards, e.Interactions(), done)
				}
			}
		}
	}
}

// TestCountShardGOMAXPROCSInvariance pins the determinism contract of
// the sharded planner: at a fixed shard count, the final configuration
// and every engine counter are bit-for-bit equal whether the run
// executes on one core or many. This is the property the multicore CI
// gate checks across differently-pinned hosts.
func TestCountShardGOMAXPROCSInvariance(t *testing.T) {
	const n = 4096
	run := func(mk func() sim.CountProtocol, procs int) (map[uint64]int64, sim.EngineStats) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		e, err := sim.NewCountEngine(mk(), shardedCfg(99, 4))
		if err != nil {
			t.Fatal(err)
		}
		e.Step(n * n / 2)
		return snapshotCounts(e), e.Stats()
	}
	for name, mk := range shardProtos(n) {
		c1, s1 := run(mk, 1)
		c8, s8 := run(mk, 8)
		if s1 != s8 {
			t.Fatalf("%s: stats differ across GOMAXPROCS: 1 core %+v, 8 cores %+v", name, s1, s8)
		}
		if len(c1) != len(c8) {
			t.Fatalf("%s: occupied states differ across GOMAXPROCS: %d vs %d", name, len(c1), len(c8))
		}
		for code, cnt := range c1 {
			if c8[code] != cnt {
				t.Fatalf("%s: state %#x count %d on 1 core, %d on 8", name, code, cnt, c8[code])
			}
		}
		if s1.ShardEpochs == 0 {
			t.Fatalf("%s: sharded run planned no sharded epochs", name)
		}
	}
}

// TestCountShardSerialCompat pins the compatibility mode: Shards values
// ≤ 1 keep the serial planner, so the run is bit-for-bit identical to a
// plain batched engine under the same seed — every conformance pin and
// committed baseline counter survives the config knob existing.
func TestCountShardSerialCompat(t *testing.T) {
	const n = 2048
	for name, mk := range shardProtos(n) {
		var ref map[uint64]int64
		var refStats sim.EngineStats
		for i, shards := range []int{0, 1} {
			e, err := sim.NewCountEngine(mk(), shardedCfg(21, shards))
			if err != nil {
				t.Fatal(err)
			}
			e.Step(n * n / 4)
			if i == 0 {
				ref, refStats = snapshotCounts(e), e.Stats()
				continue
			}
			got, gotStats := snapshotCounts(e), e.Stats()
			if gotStats != refStats {
				t.Fatalf("%s: Shards=%d stats %+v differ from serial %+v", name, shards, gotStats, refStats)
			}
			for code, cnt := range ref {
				if got[code] != cnt {
					t.Fatalf("%s: Shards=%d state %#x count %d, serial %d", name, shards, code, got[code], cnt)
				}
			}
			if gotStats.ShardEpochs != 0 {
				t.Fatalf("%s: Shards=%d planned sharded epochs in compatibility mode", name, shards)
			}
		}
	}
}

// TestCountShardEquivalence compares sharded and serial batched engines
// distributionally: mean convergence times over paired trials must
// agree within the pinned tolerance (the modes consume randomness
// differently, so runs are not bit-for-bit comparable).
func TestCountShardEquivalence(t *testing.T) {
	const (
		n      = 1024
		trials = 48
		tol    = 0.10
	)
	protos := map[string]func() sim.CountProtocol{
		"epidemic": func() sim.CountProtocol { return sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, true)) },
		"junta":    func() sim.CountProtocol { return sim.NewSpecCount(junta.NewSpec(n)) },
	}
	for name, mk := range protos {
		mean := func(shards int) float64 {
			var sum float64
			for i := 0; i < trials; i++ {
				cfg := sim.Config{Seed: sim.TrialSeed(17, i), CheckEvery: n / 2, BatchSteps: true, Shards: shards}
				res, err := sim.RunCount(mk(), cfg)
				if err != nil {
					t.Fatalf("%s: RunCount: %v", name, err)
				}
				if !res.Converged {
					t.Fatalf("%s: trial %d did not converge", name, i)
				}
				sum += float64(res.Interactions)
			}
			return sum / trials
		}
		serial, sharded := mean(0), mean(4)
		if diff := math.Abs(sharded-serial) / serial; diff > tol {
			t.Fatalf("%s: sharded mean %.0f vs serial %.0f (%.1f%% > %.0f%%)",
				name, sharded, serial, 100*diff, 100*tol)
		}
	}
}

// TestCountShardSnapshotRoundTrip pins checkpointing of a sharded run:
// the epoch counter the block streams derive from survives the
// snapshot, so the resumed run continues the exact trajectory of the
// uninterrupted one.
func TestCountShardSnapshotRoundTrip(t *testing.T) {
	const n = 4096
	for name, mk := range shardProtos(n) {
		a, err := sim.NewCountEngine(mk(), shardedCfg(5, 4))
		if err != nil {
			t.Fatal(err)
		}
		a.Step(n * n / 4)
		blob, err := a.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		b, err := sim.NewCountEngine(mk(), shardedCfg(5, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Restore(blob); err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		a.Step(n * n / 4)
		b.Step(n * n / 4)
		if sa, sb := a.Stats(), b.Stats(); sa != sb {
			t.Fatalf("%s: stats diverge after restore: %+v vs %+v", name, sa, sb)
		}
		ca, cb := snapshotCounts(a), snapshotCounts(b)
		if len(ca) != len(cb) {
			t.Fatalf("%s: occupied states diverge after restore: %d vs %d", name, len(ca), len(cb))
		}
		for code, cnt := range ca {
			// Codes are interner-relative, but discovery replays in
			// snapshot order, so equal trajectories give equal codes.
			if cb[code] != cnt {
				t.Fatalf("%s: state %#x count %d vs %d after restore", name, code, cnt, cb[code])
			}
		}
	}
}

// TestCountShardConfigRejections pins the configuration contract:
// sharding requires batch stepping, the agent engine supports no
// sharding at all, and the count engine refuses more than MaxShards
// shards before allocating their blocks.
func TestCountShardConfigRejections(t *testing.T) {
	const n = 64
	if _, err := sim.NewCountEngine(sim.NewSpecCount(junta.NewSpec(n)), sim.Config{Seed: 1, Shards: 2}); err == nil {
		t.Fatal("count engine accepted Shards=2 without BatchSteps")
	}
	if _, err := sim.NewEngine(sim.NewSpecAgent(junta.NewSpec(n)), sim.Config{Seed: 1, Shards: 2}); err == nil {
		t.Fatal("agent engine accepted Shards=2")
	}
	p := sim.NewSpecCount(junta.NewSpec(n))
	if _, err := sim.NewCountEngine(p, sim.Config{Seed: 1, BatchSteps: true, Shards: sim.MaxShards}); err != nil {
		t.Fatalf("count engine rejected Shards=MaxShards: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := sim.NewCountEngine(p, sim.Config{Seed: 1, BatchSteps: true, Shards: sim.MaxShards + 1})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("count engine accepted Shards=%d", sim.MaxShards+1)
	}
	// Building MaxShards+1 shards' blocks would cost about 0.5 MB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("rejecting Shards=%d allocated %d bytes", sim.MaxShards+1, got)
	}
}
