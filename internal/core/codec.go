// Portable binary encodings of the composed protocols' product states,
// backing the spec layer's EncodeState/DecodeState snapshot hooks
// (sim.StateCodec).
//
// The interned state codes of the four headline protocols are
// trajectory-local — code 17 names whatever state that spec instance
// discovered seventeenth — so engine snapshots cannot store codes. They
// store these encodings instead: a fixed-layout little-endian dump of
// the decoded product state, which any fresh spec instance of the same
// protocol decodes and re-interns. The encodings are injective by
// construction (every field round-trips exactly), which is what lets
// the restored instance's code assignment be a faithful renaming of the
// original's.
//
// Layouts are versioned implicitly through the engine snapshot version
// (sim/snapshot.go): a field added to an agent struct must bump that
// version, because the decoder here rejects blobs of the wrong length.
package core

import (
	"encoding/binary"
	"fmt"

	"popcount/internal/backup"
	"popcount/internal/clock"
	"popcount/internal/junta"
	"popcount/internal/leader"
)

// stateEnc appends fixed-width little-endian fields to a buffer.
type stateEnc struct {
	buf []byte
}

func (e *stateEnc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *stateEnc) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *stateEnc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *stateEnc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *stateEnc) i16(v int16)  { e.u16(uint16(v)) }
func (e *stateEnc) i32(v int32)  { e.u32(uint32(v)) }
func (e *stateEnc) i64(v int64)  { e.u64(uint64(v)) }
func (e *stateEnc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// stateDec reads the same layout back, latching the first error.
// Booleans must be exactly 0 or 1 — anything else marks a blob that no
// encoder produced, and accepting it would break the injectivity the
// snapshot renaming argument rests on.
type stateDec struct {
	buf []byte
	off int
	err error
}

func (d *stateDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("core: state blob truncated at byte %d of %d", d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *stateDec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *stateDec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *stateDec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *stateDec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *stateDec) i16(v *int16) { *v = int16(d.u16()) }
func (d *stateDec) i32(v *int32) { *v = int32(d.u32()) }
func (d *stateDec) i64(v *int64) { *v = int64(d.u64()) }

func (d *stateDec) bool() bool {
	v := d.u8()
	if d.err == nil && v > 1 {
		d.err = fmt.Errorf("core: state blob boolean byte %#x at offset %d", v, d.off-1)
	}
	return v == 1
}

// done checks the blob was consumed exactly.
func (d *stateDec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("core: state blob has %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

// Sub-protocol state layouts.

func encJunta(e *stateEnc, s junta.State) {
	e.u8(s.Level)
	e.bool(s.Active)
	e.bool(s.Junta)
}

func decJunta(d *stateDec) (s junta.State) {
	s.Level = d.u8()
	s.Active = d.bool()
	s.Junta = d.bool()
	return s
}

func encClock(e *stateEnc, s clock.State) {
	e.u16(s.Val)
	e.u32(s.Phase)
	e.bool(s.FirstTick)
}

func decClock(d *stateDec) (s clock.State) {
	s.Val = d.u16()
	s.Phase = d.u32()
	s.FirstTick = d.bool()
	return s
}

func encSlowLed(e *stateEnc, s leader.State) {
	e.bool(s.IsLeader)
	e.bool(s.Done)
	e.u8(s.Bit)
	e.u8(s.SeenMax)
	e.u8(s.Tag)
	encClock(e, s.Outer)
}

func decSlowLed(d *stateDec) (s leader.State) {
	s.IsLeader = d.bool()
	s.Done = d.bool()
	s.Bit = d.u8()
	s.SeenMax = d.u8()
	s.Tag = d.u8()
	s.Outer = decClock(d)
	return s
}

func encFastLed(e *stateEnc, s leader.FastState) {
	e.bool(s.IsLeader)
	e.bool(s.Done)
	e.u64(s.Val)
	e.u8(s.Tag)
	e.u8(s.Phases)
}

func decFastLed(d *stateDec) (s leader.FastState) {
	s.IsLeader = d.bool()
	s.Done = d.bool()
	s.Val = d.u64()
	s.Tag = d.u8()
	s.Phases = d.u8()
	return s
}

func encBackupApprox(e *stateEnc, s backup.ApproxState) {
	e.i16(s.K)
	e.i16(s.KMax)
}

func decBackupApprox(d *stateDec) (s backup.ApproxState) {
	d.i16(&s.K)
	d.i16(&s.KMax)
	return s
}

func encBackupExact(e *stateEnc, s backup.ExactState) {
	e.bool(s.Counted)
	e.i64(s.Count)
}

func decBackupExact(d *stateDec) (s backup.ExactState) {
	s.Counted = d.bool()
	d.i64(&s.Count)
	return s
}

// Agent-state layouts, one per headline protocol.

func encodeApprox(w approxAgent) []byte {
	e := &stateEnc{}
	encJunta(e, w.jnt)
	encClock(e, w.clk)
	encSlowLed(e, w.led)
	e.i16(w.k)
	e.bool(w.searchDone)
	return e.buf
}

func decodeApprox(b []byte) (approxAgent, error) {
	d := &stateDec{buf: b}
	var w approxAgent
	w.jnt = decJunta(d)
	w.clk = decClock(d)
	w.led = decSlowLed(d)
	d.i16(&w.k)
	w.searchDone = d.bool()
	return w, d.done()
}

func encodeExact(w exactAgent) []byte {
	e := &stateEnc{}
	encJunta(e, w.jnt)
	encClock(e, w.clk)
	encFastLed(e, w.led)
	e.i32(w.i)
	e.i32(w.k)
	e.i64(w.l)
	e.bool(w.apxDone)
	e.u8(w.refAnchor)
	e.bool(w.refEntered)
	e.bool(w.refInjected)
	e.bool(w.refMultiplied)
	e.bool(w.overflow)
	return e.buf
}

func decodeExact(b []byte) (exactAgent, error) {
	d := &stateDec{buf: b}
	var w exactAgent
	w.jnt = decJunta(d)
	w.clk = decClock(d)
	w.led = decFastLed(d)
	d.i32(&w.i)
	d.i32(&w.k)
	d.i64(&w.l)
	w.apxDone = d.bool()
	w.refAnchor = d.u8()
	w.refEntered = d.bool()
	w.refInjected = d.bool()
	w.refMultiplied = d.bool()
	w.overflow = d.bool()
	return w, d.done()
}

func encodeStableApprox(w stableAgent) []byte {
	e := &stateEnc{}
	encJunta(e, w.jnt)
	encClock(e, w.clk)
	encSlowLed(e, w.led)
	e.i16(w.k)
	e.bool(w.searchDone)
	e.u8(w.edAnchor)
	e.u8(w.edPhase)
	e.i16(w.l)
	e.bool(w.frozen)
	e.bool(w.errFlag)
	encBackupApprox(e, w.bk)
	e.u8(w.bkInstance)
	return e.buf
}

func decodeStableApprox(b []byte) (stableAgent, error) {
	d := &stateDec{buf: b}
	var w stableAgent
	w.jnt = decJunta(d)
	w.clk = decClock(d)
	w.led = decSlowLed(d)
	d.i16(&w.k)
	w.searchDone = d.bool()
	w.edAnchor = d.u8()
	w.edPhase = d.u8()
	d.i16(&w.l)
	w.frozen = d.bool()
	w.errFlag = d.bool()
	w.bk = decBackupApprox(d)
	w.bkInstance = d.u8()
	return w, d.done()
}

func encodeStableExact(w stableExactAgent) []byte {
	e := &stateEnc{}
	encJunta(e, w.jnt)
	encClock(e, w.clk)
	encFastLed(e, w.led)
	e.i32(w.i)
	e.i32(w.k)
	e.i64(w.l)
	e.bool(w.apxDone)
	e.u8(w.refAnchor)
	e.bool(w.refEntered)
	e.bool(w.refInjected)
	e.bool(w.refMultiplied)
	e.bool(w.frozen)
	e.bool(w.errFlag)
	encBackupExact(e, w.bk)
	e.u8(w.bkInstance)
	return e.buf
}

func decodeStableExact(b []byte) (stableExactAgent, error) {
	d := &stateDec{buf: b}
	var w stableExactAgent
	w.jnt = decJunta(d)
	w.clk = decClock(d)
	w.led = decFastLed(d)
	d.i32(&w.i)
	d.i32(&w.k)
	d.i64(&w.l)
	w.apxDone = d.bool()
	w.refAnchor = d.u8()
	w.refEntered = d.bool()
	w.refInjected = d.bool()
	w.refMultiplied = d.bool()
	w.frozen = d.bool()
	w.errFlag = d.bool()
	w.bk = decBackupExact(d)
	w.bkInstance = d.u8()
	return w, d.done()
}

// Interner hashes (sim.NewInterner), one per agent layout. Each packs
// the fields its encoder above writes into a few words, injectively,
// and folds the words in with mixWord; a field added to an agent struct
// and its encoder must be added to its hash too, or
// TestStateHashCoverage fails.

// mixWord folds word v into hash h. A step is a bijection of h for a
// fixed v and of v for a fixed h, so states that differ in one word
// always hash apart, and the xor-shift carries the product's high bits
// down into the low bits the interner's index takes its slot from.
func mixWord(h, v uint64) uint64 {
	h = (h ^ v) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// juntaClockWord packs a junta and a clock state into one word.
func juntaClockWord(j junta.State, c clock.State) uint64 {
	return uint64(j.Level) | b2u(j.Active)<<8 | b2u(j.Junta)<<9 | b2u(c.FirstTick)<<10 |
		uint64(c.Val)<<16 | uint64(c.Phase)<<32
}

// slowLedWord packs a slow-election state but its outer clock's Val.
func slowLedWord(s leader.State) uint64 {
	return b2u(s.IsLeader) | b2u(s.Done)<<1 | b2u(s.Outer.FirstTick)<<2 |
		uint64(s.Bit)<<8 | uint64(s.SeenMax)<<16 | uint64(s.Tag)<<24 | uint64(s.Outer.Phase)<<32
}

// fastLedWord packs a fast-election state but its Val, leaving bits 2–7
// free for the caller's flags and bits 24–63 for its bytes and words.
func fastLedWord(s leader.FastState) uint64 {
	return b2u(s.IsLeader) | b2u(s.Done)<<1 | uint64(s.Tag)<<8 | uint64(s.Phases)<<16
}

func hashApprox(w approxAgent) uint64 {
	h := mixWord(0, juntaClockWord(w.jnt, w.clk))
	h = mixWord(h, slowLedWord(w.led))
	return mixWord(h, uint64(w.led.Outer.Val)|uint64(uint16(w.k))<<16|b2u(w.searchDone)<<32)
}

func hashExact(w exactAgent) uint64 {
	h := mixWord(0, juntaClockWord(w.jnt, w.clk))
	h = mixWord(h, w.led.Val)
	h = mixWord(h, fastLedWord(w.led)|b2u(w.apxDone)<<2|b2u(w.refEntered)<<3|b2u(w.refInjected)<<4|
		b2u(w.refMultiplied)<<5|b2u(w.overflow)<<6|uint64(w.refAnchor)<<24|uint64(uint32(w.i))<<32)
	h = mixWord(h, uint64(uint32(w.k)))
	return mixWord(h, uint64(w.l))
}

func hashStableApprox(w stableAgent) uint64 {
	h := mixWord(0, juntaClockWord(w.jnt, w.clk))
	h = mixWord(h, slowLedWord(w.led))
	h = mixWord(h, uint64(w.led.Outer.Val)|uint64(uint16(w.k))<<16|b2u(w.searchDone)<<32|
		b2u(w.frozen)<<33|b2u(w.errFlag)<<34|uint64(w.edAnchor)<<40|uint64(w.edPhase)<<48|uint64(w.bkInstance)<<56)
	return mixWord(h, uint64(uint16(w.l))|uint64(uint16(w.bk.K))<<16|uint64(uint16(w.bk.KMax))<<32)
}

func hashStableExact(w stableExactAgent) uint64 {
	h := mixWord(0, juntaClockWord(w.jnt, w.clk))
	h = mixWord(h, w.led.Val)
	h = mixWord(h, fastLedWord(w.led)|b2u(w.apxDone)<<2|b2u(w.refEntered)<<3|b2u(w.refInjected)<<4|
		b2u(w.refMultiplied)<<5|b2u(w.frozen)<<6|b2u(w.errFlag)<<7|uint64(w.refAnchor)<<24|uint64(uint32(w.i))<<32)
	h = mixWord(h, uint64(uint32(w.k))|uint64(w.bkInstance)<<32|b2u(w.bk.Counted)<<40)
	h = mixWord(h, uint64(w.l))
	return mixWord(h, uint64(w.bk.Count))
}
