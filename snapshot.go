package popcount

// Root-level snapshot envelope. A Simulation snapshot is the engine
// blob produced by internal/sim wrapped in a header that records
// everything NewSimulation needs to rebuild an equivalent engine:
// the algorithm, the engine kind, the population size, and the
// dynamics settings (seed, budgets, protocol parameters) the original
// simulation was constructed with. RestoreSimulation rebuilds the
// simulation from the header alone — callers supply only
// non-dynamics options (observers, parallelism) — then hands the
// inner blob to the engine's Restore, so a resumed run continues the
// exact trajectory of the snapshotted one.
//
// Functional options that affect dynamics (seed, interaction budgets,
// clock sizes, fault injection, the scheduler) are taken from the
// header, not from the opts argument: a snapshot pins the dynamics of
// the run it came from. Schedulers travel as their canonical text
// form (ParseSchedulerSpec grammar): the uniform default — explicit
// or absent — is the empty spec, and the graph schedulers (ring,
// torus, Kronecker) serialize their parameters plus any drawn graph
// seed, so graph-restricted runs checkpoint and resume bit-for-bit.
// Schedulers with no text form (BiasedPairs, RandomMatching,
// user-defined closures) make the simulation non-snapshottable in
// the first place (the engine layer rejects them), so restore never
// needs to reproduce one.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"popcount/internal/sim"
)

const (
	rootSnapMagic = 0x50435353 // "PCSS"
	// rootSnapVersion 4 appended the scheduler spec to the header and
	// version 3 the intra-run shard count; only version 4 restores.
	rootSnapVersion = 4
)

// Snapshot serializes the simulation's full dynamic state — engine
// configuration or agent states, RNG stream position, interaction
// clock, convergence record — together with its construction
// parameters. The blob restores with RestoreSimulation, and the
// resumed run is bit-for-bit identical to the uninterrupted one.
//
// It fails with ErrNotSnapshottable for simulations whose state has
// no serialized form: any WithScheduler simulation other than the
// explicit uniform default and the graph schedulers (GraphRing,
// GraphTorus, GraphKronecker), whose state is a spec string plus a
// drawn graph seed.
func (s *Simulation) Snapshot() ([]byte, error) {
	var blob []byte
	var err error
	if s.ceng != nil {
		blob, err = s.ceng.Snapshot()
	} else {
		blob, err = s.eng.Snapshot()
	}
	if err != nil {
		return nil, mapSimSnapErr(err)
	}

	set := &s.set
	// The scheduler travels as its canonical text form
	// (ParseSchedulerSpec grammar; empty for the uniform default). The
	// engine snapshot above already rejected schedulers with no
	// serialized form, so this cannot fail after it succeeded.
	schedSpec, err := set.schedSpec()
	if err != nil {
		return nil, err
	}
	// The fault plan travels as its canonical text form (ParseFaultPlan
	// grammar), with the CorruptSearch knob carried by the header flag
	// byte it has occupied since v1.
	dyn := set.faults
	dyn.CorruptSearch = false
	faultSpec := dyn.String()
	buf := make([]byte, 0, rootSnapHeaderLen+len(schedSpec)+len(faultSpec)+len(blob))
	buf = binary.LittleEndian.AppendUint32(buf, rootSnapMagic)
	buf = binary.LittleEndian.AppendUint16(buf, rootSnapVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(s.alg))
	buf = append(buf, byte(s.kind))
	if set.faults.CorruptSearch {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.n))
	buf = binary.LittleEndian.AppendUint64(buf, set.seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(set.maxI))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(set.checkEvery))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(set.confirmWindow))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(set.clockM))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(set.fastRounds))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(set.shift))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(set.batchRounds))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(set.shards))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(schedSpec)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(faultSpec)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
	buf = append(buf, schedSpec...)
	buf = append(buf, faultSpec...)
	buf = append(buf, blob...)
	return buf, nil
}

// rootSnapHeaderLen is the fixed byte length of the envelope header, up
// to and including the engine-blob length field.
const rootSnapHeaderLen = 4 + 2 + 2 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 4 + 4 + 4

// RestoreSimulation rebuilds a Simulation from a Snapshot blob and
// resumes it at the exact point the snapshot was taken. Dynamics
// settings (algorithm, engine, population, seed, budgets, protocol
// parameters) come from the snapshot; opts supplies only
// non-dynamics options such as WithObserver. It fails with
// ErrBadSnapshot if data is malformed, truncated, of an unknown
// version, or internally inconsistent.
func RestoreSimulation(data []byte, opts ...Option) (*Simulation, error) {
	if len(data) < rootSnapHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrBadSnapshot, len(data), rootSnapHeaderLen)
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != rootSnapMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadSnapshot, m)
	}
	if version := binary.LittleEndian.Uint16(data[4:]); version != rootSnapVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrBadSnapshot, version)
	}
	alg := Algorithm(binary.LittleEndian.Uint16(data[6:]))
	kind := EngineKind(data[8])
	if data[9] > 1 {
		return nil, fmt.Errorf("%w: bad fault-injection flag %d", ErrBadSnapshot, data[9])
	}
	corruptSearch := data[9] != 0
	n := binary.LittleEndian.Uint64(data[10:])
	if n > 1<<40 {
		return nil, fmt.Errorf("%w: implausible population %d", ErrBadSnapshot, n)
	}

	set := newSettings(opts)
	set.seed = binary.LittleEndian.Uint64(data[18:])
	set.maxI = int64(binary.LittleEndian.Uint64(data[26:]))
	set.checkEvery = int64(binary.LittleEndian.Uint64(data[34:]))
	set.confirmWindow = int64(binary.LittleEndian.Uint64(data[42:]))
	set.clockM = int(binary.LittleEndian.Uint32(data[50:]))
	// The clock package panics on out-of-range hour counts; a forged
	// header must fail cleanly instead (zero selects the default).
	if m := set.clockM; m != 0 && (m < 4 || m > 128 || m%2 != 0) {
		return nil, fmt.Errorf("%w: clock hour count %d outside the even [4, 128] range", ErrBadSnapshot, m)
	}
	set.fastRounds = int(binary.LittleEndian.Uint32(data[54:]))
	set.shift = int(binary.LittleEndian.Uint32(data[58:]))
	set.batchRounds = int(binary.LittleEndian.Uint32(data[62:]))
	set.engine = kind
	set.shards = int(binary.LittleEndian.Uint32(data[66:]))

	schedLen := int(binary.LittleEndian.Uint32(data[70:]))
	faultLen := int(binary.LittleEndian.Uint32(data[74:]))
	blobLen := int(binary.LittleEndian.Uint32(data[78:]))
	rest := data[rootSnapHeaderLen:]
	if schedLen < 0 || schedLen > len(rest) {
		return nil, fmt.Errorf("%w: scheduler spec is %d bytes, header says %d", ErrBadSnapshot, len(rest), schedLen)
	}
	mkSched, _, err := ParseSchedulerSpec(string(rest[:schedLen]))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	set.mkSched = mkSched
	rest = rest[schedLen:]
	if faultLen < 0 || faultLen > len(rest) {
		return nil, fmt.Errorf("%w: fault plan is %d bytes, header says %d", ErrBadSnapshot, len(rest), faultLen)
	}
	plan, err := ParseFaultPlan(string(rest[:faultLen]))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	plan.CorruptSearch = corruptSearch
	set.faults = plan
	blob := rest[faultLen:]
	if len(blob) != blobLen {
		return nil, fmt.Errorf("%w: engine blob is %d bytes, header says %d", ErrBadSnapshot, len(blob), blobLen)
	}
	if kind == EngineAgent && blobLen < int(n) {
		// Each agent costs at least one blob byte: a forged header
		// cannot buy an O(n) protocol allocation with a short blob.
		return nil, fmt.Errorf("%w: %d-byte engine blob cannot hold %d agents", ErrBadSnapshot, blobLen, n)
	}

	s, err := newSimulationFrom(alg, int(n), set)
	if err != nil {
		// The header named an algorithm/engine/size combination the
		// library rejects — the blob is inconsistent, not the caller.
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if s.ceng != nil {
		err = s.ceng.Restore(blob)
	} else {
		err = s.eng.Restore(blob)
	}
	if err != nil {
		return nil, mapSimSnapErr(err)
	}
	return s, nil
}

// mapSimSnapErr lifts engine-layer snapshot sentinels to the root
// package's, preserving the detail message.
func mapSimSnapErr(err error) error {
	switch {
	case errors.Is(err, sim.ErrNotSnapshottable):
		return fmt.Errorf("%w: %v", ErrNotSnapshottable, err)
	case errors.Is(err, sim.ErrSnapshotFormat):
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return err
}
