// Engine-state serialization: versioned binary snapshots of a running
// Engine or CountEngine, restorable bit-for-bit.
//
// A snapshot captures everything the trajectory depends on — the
// configuration (agent codes or per-state counts), the RNG stream
// state, the interaction counter, the deterministic run counters, and
// the batch planner's cross-epoch backoff — so that a restored engine
// continues exactly the interaction sequence the snapshotted one would
// have executed. Derived structures (cumulative samplers, no-op
// adjacency, the planner's transition-matrix cache) are rebuilt rather
// than stored: they are pure functions of the configuration and the
// protocol's rule.
//
// Interned state codes (internal/core's product-state specs) are
// trajectory-local: code 17 of one spec instance names whatever state
// that instance discovered seventeenth, so raw codes are meaningless to
// the fresh protocol a restored engine runs. Snapshots therefore store
// portable state encodings (StateCodec) and restore by re-interning the
// decoded states in snapshot order. The restored instance's codes are
// an injective renaming of the originals, which is invisible to the
// dynamics: engines compare codes only for equality, cache transition
// entries under dense indices (preserved by replaying discovery in
// snapshot order), and iterate occupied states in dense order — no code
// magnitude ever reaches a sampling decision after initialization.
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"popcount/internal/sim/countdist"
)

// Snapshot format constants. The magic words distinguish the two engine
// forms so a blob restored into the wrong engine kind fails loudly; the
// version gates format evolution.
const (
	snapMagicAgent uint32 = 0x50534E41 // "PSNA"
	snapMagicCount uint32 = 0x50534E43 // "PSNC"
	snapVersion    uint16 = 1

	snapFlagSkip    uint8 = 1 << 0 // engine had the self-loop skip path
	snapFlagPlanner uint8 = 1 << 1 // engine had the batch planner
	snapFlagFaults  uint8 = 1 << 2 // engine carried a fault plan (count form)
	snapFlagSharded uint8 = 1 << 3 // engine had the sharded batch planner
	snapFlagRing    uint8 = 1 << 4 // engine ran the ring-restricted count path
)

// ErrNotSnapshottable is returned when an engine's protocol or
// configuration has no serializable form: the protocol does not
// implement the snapshot hooks, or a non-uniform (potentially stateful)
// scheduler drives the run.
var ErrNotSnapshottable = errors.New("sim: engine state is not snapshottable")

// ErrSnapshotFormat is returned when a snapshot blob is malformed,
// carries an unknown version, or does not match the engine it is being
// restored into.
var ErrSnapshotFormat = errors.New("sim: invalid snapshot")

// StateCodec is an optional protocol hook: a portable encoding of state
// codes. Protocols whose codes are trajectory-local (interned product
// states) implement it so snapshots survive into fresh protocol
// instances; protocols with arithmetic codes omit it and get the
// identity encoding (the 8-byte little-endian code itself).
//
// EncodeState must be injective and DecodeState its inverse: decoding
// an encoded state in a fresh protocol instance must yield a code that
// names the same state there.
type StateCodec interface {
	EncodeState(q uint64) []byte
	DecodeState(b []byte) (uint64, error)
}

// ProtocolSnapshotter is an optional Protocol hook: full serialization
// of the protocol's own state (the agent array, for the spec adapter).
// SnapshotState must capture everything Interact reads; RestoreState,
// called on a freshly constructed instance of the same protocol, must
// leave it indistinguishable from the snapshotted one.
type ProtocolSnapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState(b []byte) error
}

// identityEncode is the default StateCodec encoding: the code itself.
func identityEncode(q uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], q)
	return b[:]
}

// identityDecode inverts identityEncode.
func identityDecode(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("%w: identity-coded state blob has %d bytes, want 8", ErrSnapshotFormat, len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// stateCodecFor resolves a protocol's state codec, defaulting to the
// identity encoding.
func stateCodecFor(p any) (enc func(uint64) []byte, dec func([]byte) (uint64, error)) {
	if c, ok := p.(StateCodec); ok {
		return c.EncodeState, c.DecodeState
	}
	return identityEncode, identityDecode
}

// snapWriter accumulates a snapshot blob. All integers are fixed-width
// little-endian: snapshot blobs are small next to the engines' state,
// and fixed widths keep the reader trivially robust.
type snapWriter struct {
	buf []byte
}

func (w *snapWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *snapWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *snapWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *snapWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *snapWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *snapWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// snapReader decodes a snapshot blob, latching the first error so a
// sequence of reads needs only one check at the end. Reads after an
// error return zero values.
type snapReader struct {
	buf []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrSnapshotFormat}, args...)...)
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated at offset %d (want %d more bytes of %d)", r.off, n, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *snapReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) i64() int64 { return int64(r.u64()) }

func (r *snapReader) bytes() []byte {
	n := int(r.u32())
	if r.err == nil && n > len(r.buf)-r.off {
		r.fail("blob length %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return nil
	}
	return r.take(n)
}

// done checks that the blob was consumed exactly.
func (r *snapReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrSnapshotFormat, len(r.buf)-r.off)
	}
	return nil
}

// EncodeState implements StateCodec for the count form: the spec's
// declared codec, or the identity encoding for arithmetic codes.
func (p *specCount) EncodeState(q uint64) []byte {
	if p.spec.EncodeState != nil {
		return p.spec.EncodeState(q)
	}
	return identityEncode(q)
}

// DecodeState implements StateCodec for the count form.
func (p *specCount) DecodeState(b []byte) (uint64, error) {
	if p.spec.DecodeState != nil {
		return p.spec.DecodeState(b)
	}
	return identityDecode(b)
}

// SnapshotState implements ProtocolSnapshotter for the agent form: the
// per-agent code array, stored as a dictionary of distinct portable
// state encodings (in first-occurrence order over the agent array) plus
// one dictionary index per agent. The count mirror is derived state:
// restore recounts it from the array, registering states in
// first-occurrence order, so its slots may be ordered differently from
// the snapshotted run's. Nothing reads that order — the agent engine
// draws agents, not slots, and every ForEach consumer is order-free.
func (p *SpecAgent) SnapshotState() ([]byte, error) {
	if p.code == nil {
		return nil, fmt.Errorf("%w: Spec %q agent form not yet initialized", ErrNotSnapshottable, p.spec.Name)
	}
	enc := p.spec.EncodeState
	if enc == nil {
		enc = identityEncode
	}
	k := p.view.States()
	dictIdx := make(map[uint64]uint32, k)
	dict := make([]uint64, 0, k)
	idxs := make([]uint32, len(p.code))
	for i, c := range p.code {
		di, ok := dictIdx[c]
		if !ok {
			di = uint32(len(dict))
			dictIdx[c] = di
			dict = append(dict, c)
		}
		idxs[i] = di
	}
	w := &snapWriter{}
	w.u32(uint32(len(dict)))
	for _, c := range dict {
		w.bytes(enc(c))
	}
	w.u32(uint32(len(idxs)))
	for _, di := range idxs {
		w.u32(di)
	}
	return w.buf, nil
}

// RestoreState implements ProtocolSnapshotter for the agent form,
// decoding the dictionary in stored order (so interned specs re-intern
// states deterministically) and recounting the count mirror.
func (p *SpecAgent) RestoreState(b []byte) error {
	dec := p.spec.DecodeState
	if dec == nil {
		dec = identityDecode
	}
	r := &snapReader{buf: b}
	dl := int(r.u32())
	// The declared length is untrusted input: cap the pre-allocation by
	// what the remaining bytes could possibly hold (each entry is at
	// least a u32 length prefix) so a forged header cannot force a
	// gigantic allocation before the parse fails.
	capHint := dl
	if max := len(b) / 4; capHint > max {
		capHint = max
	}
	dict := make([]uint64, 0, capHint)
	for i := 0; i < dl && r.err == nil; i++ {
		blob := r.bytes()
		if r.err != nil {
			break
		}
		c, err := dec(blob)
		if err != nil {
			return err
		}
		dict = append(dict, c)
	}
	n := int(r.u32())
	if r.err == nil && n != p.spec.N {
		r.fail("agent array has %d agents, Spec %q wants %d", n, p.spec.Name, p.spec.N)
	}
	code := make([]uint64, 0, p.spec.N)
	for i := 0; i < n && r.err == nil; i++ {
		di := int(r.u32())
		if r.err != nil {
			break
		}
		if di >= len(dict) {
			r.fail("agent %d references dictionary entry %d of %d", i, di, len(dict))
			break
		}
		code = append(code, dict[di])
	}
	if err := r.done(); err != nil {
		return err
	}
	p.code = code
	p.recount()
	return nil
}

// header writes the shared snapshot prefix of both engine forms.
func (c *engineCore) header(w *snapWriter, magic uint32, n int64, rngState [4]uint64) {
	w.u32(magic)
	w.u16(snapVersion)
	w.u64(uint64(n))
	w.i64(c.t)
	w.i64(c.convAt)
	for _, s := range rngState {
		w.u64(s)
	}
}

// readHeader parses and validates the shared snapshot prefix.
func (c *engineCore) readHeader(r *snapReader, magic uint32, n int64) (t, convAt int64, rngState [4]uint64, err error) {
	if m := r.u32(); r.err == nil && m != magic {
		r.fail("magic %#x, want %#x (wrong engine kind?)", m, magic)
	}
	if v := r.u16(); r.err == nil && v != snapVersion {
		r.fail("version %d, want %d", v, snapVersion)
	}
	if sn := r.u64(); r.err == nil && sn != uint64(n) {
		r.fail("population %d, engine has %d", sn, n)
	}
	t = r.i64()
	convAt = r.i64()
	for i := range rngState {
		rngState[i] = r.u64()
	}
	return t, convAt, rngState, r.err
}

// Snapshot serializes the engine's full dynamic state. The protocol
// must implement ProtocolSnapshotter, and the run must use either the
// uniform scheduler or a scheduler with a deterministic serialized
// form (SchedulerSnapshotter — the graph schedulers); arbitrary
// stateful schedulers get ErrNotSnapshottable.
func (e *Engine) Snapshot() ([]byte, error) {
	ps, ok := e.p.(ProtocolSnapshotter)
	if !ok {
		return nil, fmt.Errorf("%w: protocol %T has no state codec", ErrNotSnapshottable, e.p)
	}
	ss, snapSched := e.sched.(SchedulerSnapshotter)
	if !e.uniform && !snapSched {
		return nil, fmt.Errorf("%w: non-uniform scheduler %T has no serialized form", ErrNotSnapshottable, e.sched)
	}
	blob, err := ps.SnapshotState()
	if err != nil {
		return nil, err
	}
	w := &snapWriter{}
	e.header(w, snapMagicAgent, int64(e.n), e.r.State())
	w.bytes(blob)
	// The fault section travels only for faulted runs, so fault-free
	// snapshots stay byte-identical to the pre-fault-plane format.
	if e.fs != nil {
		enc := e.fsa.spec.EncodeState
		if enc == nil {
			enc = identityEncode
		}
		e.fs.snapshot(w, enc)
	}
	// The scheduler section travels only for non-uniform runs (faults
	// require the uniform scheduler, so the two sections never
	// coexist); uniform snapshots stay byte-identical to the
	// pre-graph-scheduler format.
	if !e.uniform && snapSched {
		w.bytes(ss.SchedulerState())
	}
	return w.buf, nil
}

// Restore overwrites the engine's dynamic state from a snapshot taken
// from an engine over the same protocol and configuration. The engine
// must be freshly constructed (NewEngine with the same arguments);
// restoring resumes the snapshotted trajectory bit-for-bit.
func (e *Engine) Restore(data []byte) error {
	ps, ok := e.p.(ProtocolSnapshotter)
	if !ok {
		return fmt.Errorf("%w: protocol %T has no state codec", ErrNotSnapshottable, e.p)
	}
	ss, snapSched := e.sched.(SchedulerSnapshotter)
	if !e.uniform && !snapSched {
		return fmt.Errorf("%w: non-uniform scheduler %T has no serialized form", ErrNotSnapshottable, e.sched)
	}
	r := &snapReader{buf: data}
	t, convAt, rngState, err := e.readHeader(r, snapMagicAgent, int64(e.n))
	if err != nil {
		return err
	}
	blob := r.bytes()
	var fsn faultSnap
	if e.fs != nil {
		dec := e.fsa.spec.DecodeState
		if dec == nil {
			dec = identityDecode
		}
		fsn = e.fs.readSnapshot(r, dec)
	}
	var sblob []byte
	if !e.uniform && snapSched {
		sblob = r.bytes()
	}
	if err := r.done(); err != nil {
		return err
	}
	if err := ps.RestoreState(blob); err != nil {
		return err
	}
	if !e.uniform && snapSched {
		if err := ss.RestoreSchedulerState(sblob); err != nil {
			return err
		}
	}
	e.t, e.convAt = t, convAt
	e.r.SetState(rngState)
	if e.fs != nil {
		e.fs.restoreSnap(fsn)
	}
	return nil
}

// Snapshot serializes the count engine's full dynamic state: the dense
// state list in discovery order (portable encodings plus counts, so the
// restored engine rebuilds identical dense indices), the RNG stream,
// the interaction counter, the deterministic run counters, and the
// planner's cross-epoch backoff. Derived structures — cumulative
// samplers, no-op adjacency, the cached transition matrix — are rebuilt
// on restore.
func (e *CountEngine) Snapshot() ([]byte, error) {
	enc, _ := stateCodecFor(e.p)
	w := &snapWriter{}
	e.header(w, snapMagicCount, e.n, e.r.State())
	w.i64(e.stats.DeltaCalls)
	w.i64(e.stats.Epochs)
	w.i64(e.stats.Violations)
	w.i64(e.stats.HalfReuses)
	w.i64(e.stats.HalfDiscards)
	var flags uint8
	if e.sl != nil {
		flags |= snapFlagSkip
	}
	if e.bp != nil {
		flags |= snapFlagPlanner
	}
	if e.fs != nil {
		flags |= snapFlagFaults
	}
	if e.sr != nil {
		flags |= snapFlagSharded
	}
	if e.ring != nil {
		flags |= snapFlagRing
	}
	w.u8(flags)
	if e.bp != nil {
		w.i64(e.bp.cool)
		w.i64(e.bp.coolLen)
	}
	// The sharded planner's block streams derive from (seed, epoch
	// counter, block), so the epoch counter must survive a checkpoint
	// for the resumed run to continue the exact stream layout.
	if e.sr != nil {
		w.i64(e.stats.ShardEpochs)
		w.i64(e.stats.ShardBlocks)
		w.i64(e.stats.MergeConflicts)
		w.i64(e.stats.StealEvents)
		w.u64(e.sr.epochSeq)
	}
	// The full discovery history, zero-count states included: dense
	// indices index the planner's pair cache and the sampling prefix
	// sums, so the restored engine must re-discover every state — even
	// ones the trajectory only probed — in the same order.
	w.u32(uint32(len(e.c.codes)))
	for i, code := range e.c.codes {
		w.bytes(enc(code))
		w.i64(e.c.counts[i])
	}
	if e.fs != nil {
		e.fs.snapshot(w, enc)
	}
	return w.buf, nil
}

// Restore overwrites the count engine's dynamic state from a snapshot
// taken from an engine over the same protocol and configuration. The
// engine must be freshly constructed (NewCountEngine with the same
// arguments); restoring resumes the snapshotted trajectory bit-for-bit
// — the restored protocol instance's codes may be a renaming of the
// originals, which the dynamics cannot observe (see the package
// comment).
func (e *CountEngine) Restore(data []byte) error {
	_, dec := stateCodecFor(e.p)
	r := &snapReader{buf: data}
	t, convAt, rngState, err := e.readHeader(r, snapMagicCount, e.n)
	if err != nil {
		return err
	}
	var stats EngineStats
	stats.DeltaCalls = r.i64()
	stats.Epochs = r.i64()
	stats.Violations = r.i64()
	stats.HalfReuses = r.i64()
	stats.HalfDiscards = r.i64()
	flags := r.u8()
	if r.err == nil {
		var want uint8
		if e.sl != nil {
			want |= snapFlagSkip
		}
		if e.bp != nil {
			want |= snapFlagPlanner
		}
		if e.fs != nil {
			want |= snapFlagFaults
		}
		if e.sr != nil {
			want |= snapFlagSharded
		}
		if e.ring != nil {
			want |= snapFlagRing
		}
		if flags != want {
			r.fail("engine feature flags %#x, engine has %#x (different Config?)", flags, want)
		}
	}
	var cool, coolLen int64
	if flags&snapFlagPlanner != 0 {
		cool = r.i64()
		coolLen = r.i64()
	}
	var epochSeq uint64
	if flags&snapFlagSharded != 0 {
		stats.ShardEpochs = r.i64()
		stats.ShardBlocks = r.i64()
		stats.MergeConflicts = r.i64()
		stats.StealEvents = r.i64()
		epochSeq = r.u64()
	}
	k := int(r.u32())
	type denseState struct {
		code  uint64
		count int64
	}
	// Untrusted length: cap the pre-allocation by what the remaining
	// bytes could hold (each state is at least a u32 length prefix plus
	// an i64 count).
	capHint := k
	if max := (len(data) - r.off) / 12; capHint > max {
		capHint = max
	}
	states := make([]denseState, 0, capHint)
	var sum int64
	for i := 0; i < k && r.err == nil; i++ {
		blob := r.bytes()
		cnt := r.i64()
		if r.err != nil {
			break
		}
		code, err := dec(blob)
		if err != nil {
			return err
		}
		if cnt < 0 {
			r.fail("negative count %d for dense state %d", cnt, i)
			break
		}
		states = append(states, denseState{code, cnt})
		sum += cnt
	}
	if r.err == nil && sum != e.n {
		r.fail("counts sum to %d, want n=%d", sum, e.n)
	}
	var fsn faultSnap
	if e.fs != nil {
		// Stale states decode after the full state list, so an interned
		// codec has already re-discovered them in snapshot order.
		fsn = e.fs.readSnapshot(r, dec)
	}
	if err := r.done(); err != nil {
		return err
	}

	// Rebuild the engine's derived structures from scratch and replay
	// state discovery in snapshot order, so dense indices — and with
	// them every sampling decision — line up with the snapshotted run.
	e.c = &CountConfig{n: e.n, s: countdist.NewSampler32(len(states))}
	e.occ = nil
	if e.sl != nil {
		e.rowW = countdist.NewSampler(len(states))
		e.noopRow, e.diag = nil, nil
		e.noopOut, e.noopIn = nil, nil
	}
	if e.bp != nil {
		e.bp = newBatchPlanner(e.p, e.cfg, e.n)
		e.bp.cool, e.bp.coolLen = cool, coolLen
	}
	if e.sr != nil {
		e.sr = newShardRunner(e, e.cfg)
		e.sr.epochSeq = epochSeq
	}
	for i, st := range states {
		idx := e.stateIndex(st.code)
		if idx != i {
			return fmt.Errorf("%w: dense state %d decoded to an already-registered state (non-injective codec?)", ErrSnapshotFormat, i)
		}
		if st.count > 0 {
			e.shift(idx, st.count)
		}
	}
	e.t, e.convAt = t, convAt
	e.stats = stats
	e.r.SetState(rngState)
	if e.fs != nil {
		e.fs.restoreSnap(fsn)
	}
	return nil
}
