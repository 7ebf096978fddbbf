// Multinomial batch stepping for the count engine: instead of drawing
// one ordered pair per interaction, the engine steps the configuration
// forward a whole epoch of τ interactions at once.
//
// Under the uniform scheduler, the τ interactions of an epoch project
// onto ordered (initiator-state, responder-state) pairs as a multinomial
// over the pair weights c[i]·(c[j]−[i=j]) — assuming the configuration
// stays frozen across the epoch. The planner samples that multinomial by
// a chain of conditional binomials (rows over initiator states, then
// responders within each row), resolves every sampled pair type through
// a transition matrix derived once per protocol (DeterministicDelta,
// falling back to per-interaction Delta calls for randomized pairs), and
// applies the net count deltas in bulk.
//
// Fidelity is controlled pre-leap, in the standard τ-leaping way: before
// sampling, the planner computes each state's expected count-change rate
// from the cached transition matrix and sizes τ so that the expected
// net change of every state stays within half the drift bound
// max(1, drift·count). Sized this way, a sampled epoch is applied
// essentially always, so the applied transition counts are unbiased
// draws at the frozen rates and the only systematic error is the
// frozen-rate (τ-leap) bias itself, of order drift/4 per epoch. A
// rejection test — any touched state driven negative, or past a hard
// bound several times the target — remains as a safety net for the
// regimes the rate estimate cannot see (randomized transitions
// concentrating mass on fresh states); a rejected epoch is split in
// half with conditional hypergeometrics (the τ slots are exchangeable,
// so the first half of an already-sampled batch is a multivariate
// hypergeometric of the sampled pair totals), the first half retried
// recursively, the second half re-planned from the updated
// configuration. Rejections must stay rare: a post-hoc accept/reject on
// the sampled content censors high-churn prefixes and drags the
// dynamics, which is measurable when rejection is the τ controller (a
// ~30% convergence-time inflation on the epidemic) and immeasurable at
// the safety net's trigger rates.
//
// Epochs that cannot reach the batching threshold — tiny populations,
// sampling-dominated phases, rejection cascades — fall back to exact
// sequential stepping with exponential backoff before batching is
// retried. The fallback runs the same code path, with the same
// randomness consumption, as a non-batched engine, so a batch-mode
// engine stepped only below the threshold stays bit-for-bit equal to a
// sequential one.
//
// The transition matrix is a map keyed by ordered dense pair (det),
// and det stays authoritative: every pair classification, and with it
// every state discovery, happens on a det miss. In front of it sits an
// occupied-slot matrix, because an epoch walks every occupied ordered
// pair (pre-leap sizing) and then every sampled pair type (resolution)
// and hashing each pair there costs more than the sampling. Each
// occupied state holds a slot, and a dense stride×stride array caches
// det's entries between slot owners, so those walks read array rows.
// Zero crossings only mark the slots dirty; they are resynced at the
// top of the next planning pass, after the occupied² gate, so the
// per-interaction churn of exact stepping never touches the matrix. A
// resync releases the slots of vacated states and clears a reused
// slot's row and column. The matrix is capped at slotCap slots;
// occupied states beyond the cap are served by det alone.
//
// This file's serial planner and the sharded one of countshard.go run
// one epoch loop (stepBatched) and share its parts: the sparseVec
// scratch, the sizing walk flowRows with sizeTau, the bound withinBound,
// the randomized-pair Delta loop resolveRandomized, and the rowShares
// and responders binomial chains. Only their random streams differ. The
// serial planner draws each row's share and then its responders on the
// engine stream; the sharded one draws every row share first, then each
// block's responders on the block's own stream, and it adds the flows of
// det misses after all block flows. A one-block sharded planner would
// therefore change every Shards ≤ 1 trajectory, which needs
// distributional conformance evidence first.
//
// The result is o(1) amortized cost per interaction where the
// configuration mixes slowly enough to batch: one epoch costs
// O(occupied² + sampled pair types) regardless of τ, so the
// Θ(n log n)-interaction skip-path protocols cost polylog(n) epochs end
// to end.
package sim

import (
	"iter"

	"popcount/internal/rng"
)

// DeterministicDelta is the optional transition-matrix fast path of the
// batch-stepping mode. DeltaDet reports the successor pair of δ(qu, qv)
// when the transition is deterministic and consumes no synthetic coins;
// ok=false marks randomized pairs, which the engine resolves with one
// Delta call per interaction instead of one table lookup per pair type.
// DeltaDet must agree exactly with Delta on every pair it claims (the
// engine derives and caches the per-pair transition matrix from it),
// and like SelfLoop it may be incomplete: returning ok=false for a
// deterministic pair only costs speed, never correctness.
type DeterministicDelta interface {
	DeltaDet(qu, qv uint64) (qu2, qv2 uint64, ok bool)
}

const (
	// batchMinTau is the epoch size below which batching cannot beat
	// sequential stepping: Step remainders, pre-leap τ estimates and
	// epochs split this fine run the exact per-interaction path.
	batchMinTau = 64
	// defaultBatchDrift is the default per-state relative drift bound.
	defaultBatchDrift = 0.125
	// batchCoolBase is the initial exact-stepping backoff after batching
	// fails to pay off (τ* below threshold or a rejection cascade); the
	// backoff doubles while failures repeat, so unbatchable regimes
	// degrade to exact stepping with vanishing planning overhead.
	batchCoolBase = 4 * batchMinTau
	// driftCheckStride bounds the work wasted on an epoch that will be
	// rejected: long randomized-Delta loops re-check the safety bound
	// every stride interactions and abort early on violation.
	driftCheckStride = 1024
)

// pairCount is one sampled pair type of an epoch plan: m of the epoch's
// interactions fall on initiator state i and responder state j (dense
// indices).
type pairCount struct {
	i, j int32
	m    int64
}

// pair-classification kinds cached per ordered dense state pair.
const (
	pairUnknown    = iota // slot-matrix cell not yet filled from det
	pairRandomized        // resolve with one Delta call per interaction
	pairDet               // deterministic: bulk-apply the cached net moves
	pairNoop              // identity on the configuration: no deltas
)

// slotCap bounds the occupied-slot matrix at slotCap² cells (1.75 MiB of
// detEntry); occupied states beyond it are served by det alone.
const slotCap = 256

// detEntry is the cached transition-matrix entry of one ordered dense
// pair: its kind and, for deterministic pairs, the netted count moves
// (at most four states change, by ±1 or ±2 agents each).
type detEntry struct {
	kind uint8
	nm   uint8 // number of netted moves
	idx  [4]int32
	d    [4]int16
}

// batchPlanner holds the batch-stepping state and scratch of one
// CountEngine.
type batchPlanner struct {
	maxTau int64   // epoch cap: BatchMaxRounds·n
	drift  float64 // relative per-state drift bound

	dd  DeterministicDelta  // nil: every pair is resolved via Delta
	det map[uint64]detEntry // ordered dense pair -> transition matrix

	slots *slotMatrix // cache in front of det; nil until the first planning pass

	cool    int64 // remaining exact-stepping backoff
	coolLen int64 // next backoff length (doubles on repeat failures)
	bottom  bool  // the last epoch cascaded into the exact fallback

	plan  []pairCount        // scratch: current epoch's sampled pair types
	delta sparseVec[int64]   // scratch: per dense state net count change
	flow  sparseVec[float64] // scratch: per dense state expected change rate
}

// sparseVec is a dense-state accumulator that remembers which indices it
// touched, so reset costs O(touched) rather than O(discovered states).
// The planners keep one per epoch quantity: expected change rates while
// sizing, net count deltas while resolving. add grows the vector on
// first sight of a freshly discovered state; the sizing walk instead
// fits its flow to the discovered alphabet up front and adds with
// addFitted, which has no growth check.
type sparseVec[T int64 | float64] struct {
	val     []T
	seen    []bool // val[idx] has been touched
	touched []int  // indices with seen set
}

// add accumulates d into dense state idx, growing the vector as needed.
func (v *sparseVec[T]) add(idx int, d T) {
	v.fit(idx + 1)
	v.addFitted(idx, d)
}

// fit grows the vector to cover dense states [0, n).
func (v *sparseVec[T]) fit(n int) {
	for len(v.val) < n {
		v.val = append(v.val, 0)
		v.seen = append(v.seen, false)
	}
}

// addFitted accumulates d into dense state idx, which the vector
// already covers.
func (v *sparseVec[T]) addFitted(idx int, d T) {
	if !v.seen[idx] {
		v.seen[idx] = true
		v.touched = append(v.touched, idx)
	}
	v.val[idx] += d
}

// reset clears every touched index.
func (v *sparseVec[T]) reset() {
	for _, idx := range v.touched {
		v.val[idx] = 0
		v.seen[idx] = false
	}
	v.touched = v.touched[:0]
}

// newBatchPlanner wires batch stepping for an engine over n agents.
func newBatchPlanner(p CountProtocol, cfg Config, n int64) *batchPlanner {
	rounds := cfg.BatchMaxRounds
	if rounds <= 0 {
		rounds = 1
	}
	drift := cfg.BatchDrift
	if drift <= 0 {
		drift = defaultBatchDrift
	}
	bp := &batchPlanner{
		maxTau:  int64(rounds) * n,
		drift:   drift,
		det:     make(map[uint64]detEntry),
		coolLen: batchCoolBase,
	}
	bp.dd, _ = p.(DeterministicDelta)
	return bp
}

// backoff schedules an exact-stepping cooloff, doubling on repeated
// failures up to one epoch cap.
func (bp *batchPlanner) backoff() {
	bp.cool = bp.coolLen
	bp.coolLen *= 2
	if bp.coolLen > bp.maxTau {
		bp.coolLen = bp.maxTau
	}
}

// stepBatched executes exactly count interactions in pre-leap-sized,
// drift-bounded epochs, falling back to exact sequential stepping for
// remainders too small to batch and for regimes where batching cannot
// pay off. Both planners run this loop: with a shard runner, epochs are
// sized and applied by the sharded passes of countshard.go, while the
// gates, backoff and exact fallbacks stay on the engine stream.
func (e *CountEngine) stepBatched(count int64) {
	bp := e.bp
	if bp.maxTau < batchMinTau {
		// The population is too small for any epoch to reach the
		// batching threshold: batch mode degenerates to the exact path.
		e.stepExact(count)
		return
	}
	rem := count
	for rem > 0 {
		if e.sl != nil && e.rowW.Total() <= 0 {
			// Every pair is a certain no-op: the configuration is
			// frozen, the remaining interactions pass in one jump.
			e.t += rem
			return
		}
		if bp.cool > 0 {
			// Exact-stepping backoff after a planning failure.
			run := bp.cool
			if run > rem {
				run = rem
			}
			e.stepExact(run)
			bp.cool -= run
			rem -= run
			continue
		}
		if rem < batchMinTau {
			e.stepExact(rem)
			return
		}
		// Epoch planning costs O(occupied²) regardless of τ — the
		// pre-leap rate accumulation and the multinomial decomposition
		// both walk every occupied ordered pair. Product-state protocols
		// in a scattered regime (CountExact mid-balancing holds ~n
		// distinct loads, one agent each) can square the occupied
		// alphabet past anything an epoch could amortize; planning there
		// costs more than exactly executing the epoch would. Gate on the
		// epoch cap before planning, and on the actual τ after: batching
		// pays only while occupied² stays well below the interactions an
		// epoch executes.
		occ2 := int64(len(e.occ)) * int64(len(e.occ))
		if occ2 >= bp.maxTau {
			bp.backoff()
			continue
		}
		var tau int64
		var frozen bool
		if e.sr != nil {
			tau, frozen = e.planTauSharded()
		} else {
			tau, frozen = e.planTau()
		}
		if frozen {
			e.t += rem
			return
		}
		if tau < batchMinTau || tau < occ2/2 {
			// The drift target allows only tiny epochs here (fast-mixing
			// or freshly-seeded states, or an alphabet too scattered to
			// amortize the planner): batching cannot pay off, step
			// exactly and retry later.
			bp.backoff()
			continue
		}
		if tau > rem {
			tau = rem
		}
		bp.bottom = false
		if e.sr != nil {
			rem -= e.applyEpochSharded(tau)
		} else {
			rem -= e.applyPlan(e.planPairs(tau), tau)
		}
		if bp.bottom {
			bp.backoff()
		} else {
			bp.coolLen = batchCoolBase
		}
	}
}

// stepExact runs the per-interaction path (with the self-loop skip when
// available) — the same code, and the same randomness consumption, as a
// non-batched engine.
func (e *CountEngine) stepExact(count int64) {
	if e.sl != nil {
		e.stepSkip(count)
	} else {
		e.stepEach(count)
	}
}

// planTau sizes the next epoch pre-leap: it accumulates every occupied
// ordered pair's expected change rates (flowRows over all rows, with
// det misses classified on the spot) and returns sizeTau's bound.
func (e *CountEngine) planTau() (tau int64, frozen bool) {
	e.syncSlots()
	e.flowRows(0, len(e.occ), &e.bp.flow, nil, nil)
	return e.sizeTau()
}

// flowRows is the pre-leap sizing walk over occupied rows [lo, hi): it
// accumulates every ordered pair's per-interaction rate
// λ = c[i]·(c[j]−[i=j])/(n·(n−1)) into flow at the states the pair's
// transition touches — the cached net moves for deterministic pairs,
// the two source states for randomized ones — and, when randRow is
// non-nil, records each row's randomized rate mass in randRow[pos].
// Entries come from the row's slot-matrix cells; an unfilled cell is
// read from det and copied into the row. (Copying the 28-byte entry out
// measured faster in BenchmarkPlanTau than reading the cell through a
// pointer.) A pair det has not classified is classified on the spot
// when misses is nil (the serial planner). Otherwise it is parked on
// misses as (pos<<32 | j) for the serial classify step and det is never
// written, so concurrent calls over disjoint row ranges — which own
// disjoint matrix rows, as no two occupied states share a slot — do not
// race. flow is fitted to the discovered alphabet once per call and
// again after a classification, which may discover states, so each
// move adds with no growth check. The per-pair update is written out,
// not factored into a helper: this is the planners' hottest loop and
// the compiler does not inline such a helper.
func (e *CountEngine) flowRows(lo, hi int, flow *sparseVec[float64], randRow []float64, misses *[]uint64) {
	sm, det := e.bp.slots, e.bp.det
	c := e.c
	occ, occSlot := e.occ, sm.occSlot
	totalW := float64(e.n) * float64(e.n-1)
	flow.fit(len(c.counts))
	for pos := lo; pos < hi; pos++ {
		i := occ[pos]
		ci := c.counts[i]
		row := sm.row(occSlot[pos])
		rr := 0.0
		for pj, j := range occ {
			w := c.counts[j]
			if j == i {
				w = ci - 1
			}
			if w == 0 {
				continue
			}
			sj := occSlot[pj]
			var ent detEntry
			if row != nil && sj >= 0 {
				ent = row[sj]
			}
			if ent.kind == pairUnknown {
				key := uint64(uint32(i))<<32 | uint64(uint32(j))
				var ok bool
				if ent, ok = det[key]; !ok {
					if misses != nil {
						*misses = append(*misses, uint64(uint32(pos))<<32|uint64(uint32(j)))
						continue
					}
					ent = e.classifyPair(i, j)
					det[key] = ent
					flow.fit(len(c.counts))
				}
				if row != nil && sj >= 0 {
					row[sj] = ent
				}
			}
			if ent.kind == pairNoop {
				continue
			}
			lam := float64(ci) * float64(w) / totalW
			if ent.kind == pairDet {
				for x := 0; x < int(ent.nm); x++ {
					d := float64(ent.d[x])
					if d < 0 {
						d = -d
					}
					flow.addFitted(int(ent.idx[x]), lam*d)
				}
			} else {
				flow.addFitted(i, lam)
				flow.addFitted(j, lam)
				rr += lam
			}
		}
		if randRow != nil {
			randRow[pos] = rr
		}
	}
}

// sizeTau returns the largest τ that keeps every state's expected net
// change, at the rates accumulated in the planner's flow, within half
// its drift bound max(1, drift·count), and clears the flow. frozen
// reports that no occupied pair can change the configuration at all —
// the chain is absorbed.
func (e *CountEngine) sizeTau() (tau int64, frozen bool) {
	bp := e.bp
	if len(bp.flow.touched) == 0 {
		return 0, true
	}
	best := float64(bp.maxTau)
	for _, idx := range bp.flow.touched {
		f := bp.flow.val[idx]
		if f <= 0 {
			continue
		}
		target := bp.drift * float64(e.c.counts[idx]) / 2
		if target < 0.5 {
			target = 0.5
		}
		if t := target / f; t < best {
			best = t
		}
	}
	bp.flow.reset()
	return int64(best), false
}

// pairEntry returns the cached transition-matrix entry for one ordered
// dense pair: the slot-matrix cell when both states hold slots and the
// cell is filled, else det's entry — derived on first sight — which then
// fills the cell. It runs only inside an epoch, after that epoch's
// syncSlots.
func (e *CountEngine) pairEntry(i, j int) detEntry {
	sm := e.bp.slots
	si, sj := sm.slot(i), sm.slot(j)
	if si < 0 || sj < 0 {
		return e.detPair(i, j)
	}
	cell := &sm.mat[si*sm.stride+sj]
	if cell.kind == pairUnknown {
		*cell = e.detPair(i, j)
	}
	return *cell
}

// detPair returns det's entry for one ordered dense pair, deriving it
// on first sight.
func (e *CountEngine) detPair(i, j int) detEntry {
	key := uint64(uint32(i))<<32 | uint64(uint32(j))
	ent, ok := e.bp.det[key]
	if !ok {
		ent = e.classifyPair(i, j)
		e.bp.det[key] = ent
	}
	return ent
}

// slotMatrix is the occupied-slot cache in front of a planner's det:
// an occupied state holds a slot, and mat[si·stride+sj] caches det's
// entry for the ordered pair of the two slots' owners (pairUnknown
// until filled). It is synced lazily at the top of each planning pass —
// dirty records a zero crossing since the last sync — so it never sees
// the per-interaction churn of the exact path.
type slotMatrix struct {
	mat     []detEntry
	stride  int     // row length: a power of two ≤ slotCap
	owner   []int32 // slot -> owning dense index (-1: released)
	free    []int32 // released slots, reused last-in first-out
	slotOf  []int32 // dense index -> slot+1 (0: no slot)
	occSlot []int32 // occ position -> slot (-1: none) as of the last sync
	dirty   bool
}

// slot returns dense state i's slot, or -1 when it holds none.
func (sm *slotMatrix) slot(i int) int {
	if i < len(sm.slotOf) {
		return int(sm.slotOf[i]) - 1
	}
	return -1
}

// row returns slot s's matrix row, nil for s < 0.
func (sm *slotMatrix) row(s int32) []detEntry {
	if s < 0 {
		return nil
	}
	lo := int(s) * sm.stride
	return sm.mat[lo : lo+sm.stride : lo+sm.stride]
}

// syncSlots returns the planner's slot matrix, first bringing it in step
// with the occupied list after zero crossings: vacated states release
// their slots, newly occupied states take free ones in ascending dense
// order, and occSlot is rebuilt for the current list.
func (e *CountEngine) syncSlots() *slotMatrix {
	sm := e.bp.slots
	if sm == nil {
		sm = &slotMatrix{dirty: true}
		e.bp.slots = sm
	}
	if !sm.dirty {
		return sm
	}
	sm.dirty = false
	counts := e.c.counts
	for s, o := range sm.owner {
		if o >= 0 && counts[o] == 0 {
			sm.slotOf[o] = 0
			sm.owner[s] = -1
			sm.free = append(sm.free, int32(s))
		}
	}
	for len(sm.slotOf) < len(counts) {
		sm.slotOf = append(sm.slotOf, 0)
	}
	sm.occSlot = sm.occSlot[:0]
	for _, i := range e.occ {
		s := sm.slotOf[i] - 1
		if s < 0 {
			s = sm.take(i)
		}
		sm.occSlot = append(sm.occSlot, s)
	}
	return sm
}

// take gives dense state i a slot and returns it, or -1 when all
// slotCap slots are held. A released slot is reused with its stale row
// and column cleared to pairUnknown; otherwise the next fresh slot is
// taken, doubling the matrix when it is full.
func (sm *slotMatrix) take(i int) int32 {
	var s int
	if k := len(sm.free); k > 0 {
		s = int(sm.free[k-1])
		sm.free = sm.free[:k-1]
		clear(sm.row(int32(s)))
		for x := s; x < len(sm.mat); x += sm.stride {
			sm.mat[x] = detEntry{}
		}
	} else {
		s = len(sm.owner)
		if s == slotCap {
			return -1
		}
		if s == sm.stride {
			sm.grow()
		}
		sm.owner = append(sm.owner, 0)
	}
	sm.owner[s] = int32(i)
	sm.slotOf[i] = int32(s) + 1
	return int32(s)
}

// grow doubles the matrix stride (the first matrix holds 16 slots),
// copying the filled rows to the new layout.
func (sm *slotMatrix) grow() {
	stride := min(slotCap, max(16, 2*sm.stride))
	mat := make([]detEntry, stride*stride)
	for r := 0; r < sm.stride; r++ {
		copy(mat[r*stride:], sm.row(int32(r)))
	}
	sm.mat, sm.stride = mat, stride
}

// classifyPair derives the transition-matrix entry for one ordered
// dense pair, preferring the cheap SelfLoop predicate, then the
// protocol's deterministic transition table. Deterministic transitions
// are netted into per-state moves; a pair whose net moves vanish (an
// identity, or a swap of the two states) is a configuration no-op.
func (e *CountEngine) classifyPair(i, j int) detEntry {
	qu, qv := e.c.codes[i], e.c.codes[j]
	if e.sl != nil && e.sl.SelfLoop(qu, qv) {
		return detEntry{kind: pairNoop}
	}
	if e.bp.dd != nil {
		if a, b, ok := e.bp.dd.DeltaDet(qu, qv); ok {
			ia, ib := e.lookup(a, i, j), e.lookup(b, i, j)
			ent := detEntry{kind: pairDet}
			net := func(idx int, d int16) {
				for x := 0; x < int(ent.nm); x++ {
					if ent.idx[x] == int32(idx) {
						ent.d[x] += d
						return
					}
				}
				ent.idx[ent.nm], ent.d[ent.nm] = int32(idx), d
				ent.nm++
			}
			net(i, -1)
			net(j, -1)
			net(ia, 1)
			net(ib, 1)
			// Compact zero moves; a fully cancelled transition (identity
			// or swap) leaves the configuration unchanged.
			keep := uint8(0)
			for x := 0; x < int(ent.nm); x++ {
				if ent.d[x] != 0 {
					ent.idx[keep], ent.d[keep] = ent.idx[x], ent.d[x]
					keep++
				}
			}
			ent.nm = keep
			if keep == 0 {
				return detEntry{kind: pairNoop}
			}
			return ent
		}
	}
	return detEntry{kind: pairRandomized}
}

// planPairs samples how the next tau interactions distribute over
// ordered (initiator-state, responder-state) pairs, assuming the
// configuration frozen: rows by conditional binomials over the
// initiator weights c[i], then responders within each row over the
// weights c[j]−[i=j], all on the engine stream with each row's
// responder draws following its row draw. The sampled counts always sum
// to exactly tau.
func (e *CountEngine) planPairs(tau int64) []pairCount {
	plan := e.bp.plan[:0]
	for pos, ri := range e.rowShares(tau) {
		i := e.occ[pos]
		for pj, m := range e.responders(i, ri, e.r) {
			plan = append(plan, pairCount{int32(i), int32(e.occ[pj]), m})
		}
	}
	e.bp.plan = plan
	return plan
}

// rowShares yields every occupied row's share of tau interactions by
// occupied position, drawn as a chain of conditional binomials over the
// initiator weights c[i] out of n on the engine stream. The shares sum
// to exactly tau; rows after the chain runs out get 0 without a draw.
func (e *CountEngine) rowShares(tau int64) iter.Seq2[int, int64] {
	return func(yield func(int, int64) bool) {
		rowRem, rowW := tau, e.n
		for pos, i := range e.occ {
			ci := e.c.counts[i]
			ri := int64(0)
			if rowRem > 0 {
				ri = rowRem
				if ci < rowW {
					ri = e.r.Binomial(rowRem, float64(ci)/float64(rowW))
				}
				rowRem -= ri
			}
			rowW -= ci
			if !yield(pos, ri) {
				return
			}
		}
	}
}

// responders yields the decomposition of initiator row i's ri
// interactions over the occupied responders as (occupied position,
// count) for every count > 0: a chain of conditional binomials over the
// weights c[j]−[i=j] out of n−1, drawn from r. Each draw happens just
// before its yield, so draws interleave with whatever the loop body
// draws from r. The counts always sum to exactly ri.
func (e *CountEngine) responders(i int, ri int64, r *rng.Rand) iter.Seq2[int, int64] {
	return func(yield func(int, int64) bool) {
		respRem, respW := ri, e.n-1
		for pj, j := range e.occ {
			if respRem <= 0 {
				return
			}
			w := e.c.counts[j]
			if j == i {
				w--
			}
			if w <= 0 {
				continue
			}
			m := respRem
			if w < respW {
				m = r.Binomial(respRem, float64(w)/float64(respW))
			}
			respRem -= m
			respW -= w
			if m > 0 && !yield(pj, m) {
				return
			}
		}
	}
}

// applyPlan resolves a sampled epoch plan into net count deltas and
// applies it unless the safety bound trips. On a violation the epoch is
// halved: the first half of the plan is carved out hypergeometrically
// and retried recursively. The second half keeps its already-sampled
// pair counts and, once the full first half has executed, is rechecked
// against the updated configuration and applied as-is when the
// post-leap bound holds (Anderson-style conditional reuse: conditioned
// on the first half, the retained counts are exactly the multivariate-
// hypergeometric remainder of the epoch's sample, so reusing them keeps
// the accepted samples uncensored — discarding them unconditionally
// would resample, and thereby bias, every post-violation half-epoch).
// Only when the recheck also fails, or the first half fell through to
// the exact path short of its sampled size, is the second half
// discarded for the caller to re-plan from the updated configuration.
// Returns the number of interactions executed.
func (e *CountEngine) applyPlan(plan []pairCount, tau int64) int64 {
	if tau < batchMinTau {
		// Too fine to batch: discard the plan and replay the
		// interactions exactly.
		e.bp.bottom = true
		e.stepExact(tau)
		return tau
	}
	if e.resolveDeltas(plan) {
		e.commitDeltas()
		e.t += tau
		return tau
	}
	e.stats.Violations++
	e.bp.delta.reset()
	half := tau / 2
	first, second := e.splitPlan(plan, half, tau)
	done := e.applyPlan(first, half)
	if done != half || e.bp.bottom {
		// The first half was not executed as sampled: either it came up
		// short (a nested second half was discarded mid-cascade), or some
		// leaf of its cascade hit the exact fallback — which replays the
		// interactions with fresh scalar randomness instead of applying
		// the sampled pair counts (bp.bottom records this; stepBatched
		// clears it before every top-level plan, so a set flag here can
		// only come from this call tree). Either way the second half's
		// counts are conditioned on first-half content that never ran,
		// and reusing them would break the hypergeometric conditioning.
		e.stats.HalfDiscards++
		return done
	}
	if e.resolveDeltas(second) {
		e.commitDeltas()
		e.t += tau - half
		e.stats.HalfReuses++
		return tau
	}
	e.stats.Violations++
	e.stats.HalfDiscards++
	e.bp.delta.reset()
	return done
}

// commitDeltas applies the resolved per-state deltas in the planner
// scratch to the configuration and counts the epoch.
func (e *CountEngine) commitDeltas() {
	delta := &e.bp.delta
	for _, idx := range delta.touched {
		if d := delta.val[idx]; d != 0 {
			e.shift(idx, d)
		}
	}
	delta.reset()
	e.stats.Epochs++
}

// splitPlan carves a sampled plan of tau interactions into its first
// half interactions and the remainder: the slots of an epoch are
// exchangeable, so the first-half count of each pair type is a
// conditional (multivariate) hypergeometric of the sampled totals, and
// the second half is the exact complement.
func (e *CountEngine) splitPlan(plan []pairCount, half, tau int64) (first, second []pairCount) {
	first = make([]pairCount, 0, len(plan))
	second = make([]pairCount, 0, len(plan))
	sampleRem, totalRem := half, tau
	for _, pc := range plan {
		h := int64(0)
		if sampleRem > 0 {
			h = sampleRem
			if pc.m < totalRem {
				h = e.r.Hypergeometric(sampleRem, pc.m, totalRem)
			}
			sampleRem -= h
		}
		totalRem -= pc.m
		if h > 0 {
			first = append(first, pairCount{pc.i, pc.j, h})
		}
		if rest := pc.m - h; rest > 0 {
			second = append(second, pairCount{pc.i, pc.j, rest})
		}
	}
	return first, second
}

// resolveDeltas turns a plan into net per-state count deltas in the
// planner scratch and reports whether the safety bound holds.
// Randomized pairs call Delta per interaction, re-checking the bound
// periodically so a doomed epoch aborts early.
func (e *CountEngine) resolveDeltas(plan []pairCount) bool {
	delta := &e.bp.delta
	sinceCheck := int64(0)
	for _, pc := range plan {
		i, j := int(pc.i), int(pc.j)
		ent := e.pairEntry(i, j)
		switch ent.kind {
		case pairNoop:
			continue
		case pairDet:
			for x := 0; x < int(ent.nm); x++ {
				delta.add(int(ent.idx[x]), int64(ent.d[x])*pc.m)
			}
		default:
			e.resolveRandomized(i, j, pc.m)
		}
		sinceCheck += pc.m
		if sinceCheck >= driftCheckStride {
			if !e.safetyOK(delta) {
				return false
			}
			sinceCheck = 0
		}
	}
	return e.safetyOK(delta)
}

// resolveRandomized resolves m interactions of the randomized pair
// (i, j) with one Delta call each on the engine stream, accumulating
// their net moves into the planner's deltas.
func (e *CountEngine) resolveRandomized(i, j int, m int64) {
	delta := &e.bp.delta
	qu, qv := e.c.codes[i], e.c.codes[j]
	e.stats.DeltaCalls += m
	for x := int64(0); x < m; x++ {
		a, b := e.p.Delta(qu, qv, e.r)
		ia, ib := e.lookup(a, i, j), e.lookup(b, i, j)
		if ia != i || ib != j {
			delta.add(i, -1)
			delta.add(j, -1)
			delta.add(ia, 1)
			delta.add(ib, 1)
		}
	}
}

// safetyOK reports whether the deltas accumulated in v keep every
// touched state within the planner's bound (withinBound). Resolution
// checks it periodically and before every commit.
func (e *CountEngine) safetyOK(v *sparseVec[int64]) bool {
	for _, idx := range v.touched {
		if d := v.val[idx]; d != 0 && !e.bp.withinBound(e.c.counts[idx], d) {
			return false
		}
	}
	return true
}

// withinBound reports whether a net change d keeps a state of count cnt
// non-negative and inside the hard bound max(8, 2·drift·cnt) — several
// times the pre-leap target, so with τ sized by sizeTau the test almost
// never trips and the applied counts stay unbiased (see the package
// comment on rejection censoring).
func (bp *batchPlanner) withinBound(cnt, d int64) bool {
	if cnt+d < 0 {
		return false
	}
	lim := int64(2 * bp.drift * float64(cnt))
	if lim < 8 {
		lim = 8
	}
	return d <= lim && d >= -lim
}
