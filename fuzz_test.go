package popcount

import (
	"encoding/binary"
	"testing"
	"time"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// FuzzSchedulerPairs drives every built-in scheduler — uniform, biased,
// matching, and the three graph families — over fuzzed (n, seed) inputs
// and asserts the Scheduler contract: both indices in [0, n), initiator
// distinct from responder, and bit-for-bit determinism when the same
// scheduler is rebuilt and replayed on an equal random stream.
func FuzzSchedulerPairs(f *testing.F) {
	f.Add(uint64(1), 8, 64)
	f.Add(uint64(42), 33, 256)
	f.Add(uint64(7), 1024, 128)
	f.Fuzz(func(t *testing.T, seed uint64, n, draws int) {
		// Keep graph construction cheap: small-to-moderate populations,
		// composite so the torus accepts them, bounded draw counts.
		if n < 4 || n > 1<<14 {
			t.Skip()
		}
		n &^= 1 // even ⇒ composite ⇒ every scheduler accepts n
		if draws < 1 || draws > 512 {
			draws = 64
		}
		mks := map[string]func() Scheduler{
			"uniform":  UniformPairs,
			"biased":   func() Scheduler { return BiasedPairs(n/2, 0.3) },
			"matching": RandomMatching,
			"ring":     GraphRing,
			"torus":    GraphTorus,
			"kron":     func() Scheduler { return GraphKronecker(sim.DefaultKronInitiator, 14, seed|1) },
			"kron0": func() Scheduler {
				return GraphKronecker([4]float64{0.4, 0.25, 0.25, 0.1}, 14, 0)
			},
		}
		for name, mk := range mks {
			r1, r2 := rng.New(seed), rng.New(seed)
			s1, s2 := mk(), mk()
			for i := 0; i < draws; i++ {
				u, v := s1.Next(n, r1)
				if u < 0 || u >= n || v < 0 || v >= n {
					t.Fatalf("%s: pair (%d, %d) outside [0, %d)", name, u, v, n)
				}
				if u == v {
					t.Fatalf("%s: self-pair %d at draw %d", name, u, i)
				}
				u2, v2 := s2.Next(n, r2)
				if u != u2 || v != v2 {
					t.Fatalf("%s: draw %d diverged under equal seeds: (%d,%d) vs (%d,%d)", name, i, u, v, u2, v2)
				}
			}
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoders —
// the PCSS envelope directly, and the PSNA/PSNC engine decoders through
// forged envelopes around the fuzz input — asserting they error cleanly:
// no panics, and no attacker-controlled allocations (a forged header
// cannot buy memory the input bytes did not pay for; the restored
// simulation is bounded by the header's validated population).
func FuzzSnapshotDecode(f *testing.F) {
	// Seed the corpus with genuine snapshots of both engine families so
	// the fuzzer starts at the format's happy path.
	for _, kind := range []EngineKind{EngineAgent, EngineCount} {
		s, err := NewSimulation(Approximate, 32, WithSeed(3), WithEngine(kind),
			WithFaults(FaultPlan{Seed: 1, Bursts: []FaultBurst{{At: 40, Agents: 4}}}))
		if err != nil {
			f.Fatal(err)
		}
		s.Step(128)
		snap, err := s.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap)
	}
	f.Add([]byte("PCSS"))
	f.Add(oversizedShardSnapshot(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Latency tripwire: a decode (or the bounded 16-step resume) of
		// arbitrary bytes must stay far under interactive time — a slow
		// input means a forged header bought unbounded work.
		start := time.Now()
		defer func() {
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("slow input: %v", d)
			}
		}()
		// PCSS decoder on the raw input.
		if s, err := RestoreSimulation(data); err == nil {
			// A decodable blob must yield a working simulation.
			s.Step(16)
			_ = s.Stats()
		}

		// PSNA/PSNC decoders: wrap the input as the engine blob of an
		// otherwise-valid envelope, so the inner parsers see arbitrary
		// bytes behind a header that passes the envelope checks.
		for _, kind := range []EngineKind{EngineAgent, EngineCount, EngineCountBatched} {
			hdr := make([]byte, 0, rootSnapHeaderLen+len(data))
			hdr = binary.LittleEndian.AppendUint32(hdr, rootSnapMagic)
			hdr = binary.LittleEndian.AppendUint16(hdr, rootSnapVersion)
			hdr = binary.LittleEndian.AppendUint16(hdr, uint16(Approximate))
			hdr = append(hdr, byte(kind), 0)
			hdr = binary.LittleEndian.AppendUint64(hdr, 16) // n
			hdr = binary.LittleEndian.AppendUint64(hdr, 1)  // seed
			hdr = binary.LittleEndian.AppendUint64(hdr, 0)  // maxI
			hdr = binary.LittleEndian.AppendUint64(hdr, 0)  // checkEvery
			hdr = binary.LittleEndian.AppendUint64(hdr, 0)  // confirmWindow
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)  // clockM
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)  // fastRounds
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)  // shift
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)  // batchRounds
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)  // shards
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)  // schedLen
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)  // faultLen
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(data)))
			hdr = append(hdr, data...)
			if s, err := RestoreSimulation(hdr); err == nil {
				s.Step(16)
			}
		}
	})
}
