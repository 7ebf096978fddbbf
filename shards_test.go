package popcount

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"popcount/internal/sim"
)

// oversizedShardSnapshot returns a genuine snapshot of a 2-shard
// batched simulation whose header is patched to claim 2¹⁸ shards, whose
// planner blocks alone would take about 0.5 GB.
func oversizedShardSnapshot(tb testing.TB) []byte {
	tb.Helper()
	s, err := NewSimulation(Approximate, 1024, WithSeed(3), WithEngine(EngineCountBatched), WithIntraRunParallelism(2))
	if err != nil {
		tb.Fatal(err)
	}
	s.Step(4096)
	snap, err := s.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	// The shard count precedes the scheduler, fault-plan and blob
	// lengths, the header's last three fields.
	binary.LittleEndian.PutUint32(snap[rootSnapHeaderLen-4*4:], 1<<18)
	return snap
}

// TestShardCountBound pins the cap on WithIntraRunParallelism: counts
// up to sim.MaxShards validate, larger ones fail with ErrInvalidN from
// Validate and NewSimulation, before the engine exists.
func TestShardCountBound(t *testing.T) {
	opts := func(shards int) []Option {
		return []Option{WithEngine(EngineCountBatched), WithIntraRunParallelism(shards)}
	}
	if err := Validate(Approximate, 4096, opts(sim.MaxShards)...); err != nil {
		t.Fatalf("Validate rejected %d shards: %v", sim.MaxShards, err)
	}
	for _, shards := range []int{sim.MaxShards + 1, 1 << 18, 1_000_000_000} {
		if err := Validate(Approximate, 4096, opts(shards)...); !errors.Is(err, ErrInvalidN) {
			t.Fatalf("Validate with %d shards: err = %v, want ErrInvalidN", shards, err)
		}
		if _, err := NewSimulation(Approximate, 4096, opts(shards)...); !errors.Is(err, ErrInvalidN) {
			t.Fatalf("NewSimulation with %d shards: err = %v, want ErrInvalidN", shards, err)
		}
	}
}

// TestRestoreRejectsOversizedShards pins that a snapshot header
// claiming more than sim.MaxShards shards is a bad snapshot, refused
// before the planner's blocks are allocated.
func TestRestoreRejectsOversizedShards(t *testing.T) {
	snap := oversizedShardSnapshot(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := RestoreSimulation(snap)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v, want ErrBadSnapshot", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting the snapshot allocated %d bytes", got)
	}
}
