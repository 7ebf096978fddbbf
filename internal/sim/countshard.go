// Intra-run sharding of the batch planner: one batch epoch, executed
// across cores.
//
// The serial planner (countbatch.go) spends an epoch in three O(occ²)
// or O(τ-resolved) walks — the pre-leap rate accumulation, the
// conditional-binomial multinomial decomposition, and the per-
// interaction resolution of randomized pairs — all on one core. With
// Config.Shards ≥ 2 the engine splits each walk over contiguous
// pair-row blocks of the sorted occupied-index list and runs the blocks
// concurrently, following the speculative-parallel-work / serial-
// confirm split of core-chain's trie prefetcher: the parallel phases
// only read engine state that is frozen for the epoch (the flow pass
// also fills its own block's slot-matrix rows), anything that
// must mutate shared structures (transition-matrix classification,
// state discovery, the interner, the commit itself) is deferred to a
// serial confirm step that folds shard results in ascending block
// order. Results are therefore a deterministic function of (protocol,
// seed, Shards) — never of GOMAXPROCS or goroutine scheduling — which
// is what the multicore CI gate checks by requiring exactly equal
// counters across differently-pinned runs. The epoch loop, sizing walk,
// bound, Delta loop and binomial chains are the serial planner's own
// (countbatch.go names them); this file adds the block partition, the
// worker pool and the serial confirm steps.
//
// Epoch anatomy:
//
//  1. Flow pass (parallel): after a serial resync of the occupied-slot
//     matrix (countbatch.go), each block runs flowRows over its
//     initiator rows into block-local scratch, with det misses parked
//     on a block-local list rather than classified.
//  2. Classify + τ (serial): block flows merge in block order, misses
//     are classified in ascending block order (the only det writes and
//     state discoveries of the epoch; each also fills its matrix cell)
//     and their flows added, and sizeTau sizes τ.
//  3. Row totals (serial): rowShares draws each row's share of the τ
//     interactions from the engine stream.
//  4. Resolve pass (parallel): blocks are re-partitioned by sampled
//     row weight, and each block — on a private stream derived from
//     (seed, epoch counter, block index) — decomposes its rows over
//     responders, reads each pair's entry from its matrix row (or det
//     past the slot cap), bulk-applies deterministic pairs into
//     block-local deltas, and resolves randomized pairs with
//     per-interaction Delta calls through the spec's shard closures
//     (fresh product states land in shard-provisional interner
//     namespaces, see intern.go) or defers them to the merge.
//  5. Merge + commit (serial): provisional states reconcile into the
//     canonical namespace, block deltas fold in ascending block order,
//     deferred randomized pairs resolve on the engine stream, and the
//     epoch commits under the serial planner's safety bound. A
//     violation (a "merge conflict") discards the shard deltas and
//     hands the full ordered plan to the serial split/retry machinery
//     of applyPlan, which preserves the fidelity argument of
//     countbatch.go unchanged.
//
// Scheduling: blocks outnumber workers (up to shardBlocksPerWorker per
// worker) and are claimed off a shared atomic counter, so a slow block
// only idles one worker — every claim beyond the workers' initial
// assignments is counted as a steal event, a deterministic function of
// the block count. Small epochs skip the fan-out entirely and run the
// same blocks sequentially on the calling goroutine (identical
// results, no barrier cost); idle workers retire after a timeout so
// finished engines leak nothing.
package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"popcount/internal/rng"
)

// ShardedDelta is the optional CountProtocol hook of intra-run
// sharding: ShardDelta(k) returns k transition closures safe to call
// concurrently with each other while the engine's serial state is
// frozen, plus a reconcile function the engine calls serially after
// each parallel round (nil when the closures never intern). A protocol
// may return nil closures to opt out, in which case the sharded
// planner resolves randomized pairs serially — correct, just slower.
// Spec-derived protocols implement it via Spec.ShardDelta/PureDelta.
type ShardedDelta interface {
	ShardDelta(k int) (deltas []func(qu, qv uint64, r *rng.Rand) (uint64, uint64), reconcile func() map[uint64]uint64)
}

// MaxShards caps Config.Shards. The runner allocates
// shardBlocksPerWorker blocks per shard up front, each with its own
// generator and scratch, so NewCountEngine rejects larger counts before
// allocating anything.
const MaxShards = 256

const (
	// shardBlocksPerWorker oversizes the block partition relative to the
	// worker count so the atomic claim loop can rebalance skewed blocks.
	shardBlocksPerWorker = 4
	// shardFanoutMinWork is the estimated per-epoch work (column visits
	// plus expected randomized Delta calls) below which fanning out
	// cannot beat running the blocks sequentially on the caller.
	shardFanoutMinWork = 4096
	// shardIdleTimeout retires a parked worker goroutine; the runner
	// respawns on demand, so an engine that stops stepping leaks
	// nothing.
	shardIdleTimeout = 250 * time.Millisecond
)

// shardStreamSeed derives block b's private stream seed for one epoch:
// a splitmix64-style finalizer over the run seed, the epoch counter and
// the block index, so every (epoch, block) cell of a run gets an
// independent, reproducible stream regardless of which worker executes
// it.
func shardStreamSeed(base, epoch uint64, b int) uint64 {
	x := base + 0x9e3779b97f4a7c15*(epoch+1) + 0xbf58476d1ce4e5b9*uint64(b+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardBlock is one contiguous range of occupied pair rows plus the
// block-local scratch its passes accumulate into. A block is touched by
// exactly one goroutine per pass.
type shardBlock struct {
	lo, hi int       // occupied-list positions [lo, hi)
	r      *rng.Rand // per-epoch private stream (reseeded at block start)

	// Flow-pass scratch: per dense state expected change rate, plus the
	// pairs det has not classified yet (classified serially after the
	// pass).
	flow   sparseVec[float64]
	misses []uint64 // packed (occ position)<<32 | responder dense index

	// Resolve-pass scratch: per dense state net count deltas, the
	// block's ordered slice of the epoch plan, randomized pairs deferred
	// to the serial confirm step (protocols without shard closures), and
	// deltas on codes the engine has not yet discovered (fresh canonical
	// or shard-provisional codes).
	delta      sparseVec[int64]
	plan       []pairCount
	randPairs  []pairCount
	extraIdx   map[uint64]int
	extraCode  []uint64
	extraDelta []int64

	deltaCalls int64
	violated   bool
}

// addCode accumulates a +1 delta for a successor code, against the two
// source states first, then the engine's index, then the block-local
// extras (codes the engine discovers only at the serial merge).
func (blk *shardBlock) addCode(e *CountEngine, code uint64, i, j int) {
	c := e.c
	if code == c.codes[i] {
		blk.delta.add(i, 1)
		return
	}
	if code == c.codes[j] {
		blk.delta.add(j, 1)
		return
	}
	if idx, ok := c.find(code); ok {
		blk.delta.add(idx, 1)
		return
	}
	if blk.extraIdx == nil {
		blk.extraIdx = make(map[uint64]int)
	}
	if k, ok := blk.extraIdx[code]; ok {
		blk.extraDelta[k]++
		return
	}
	blk.extraIdx[code] = len(blk.extraCode)
	blk.extraCode = append(blk.extraCode, code)
	blk.extraDelta = append(blk.extraDelta, 1)
}

// applyRand folds one resolved randomized interaction into the block
// deltas (the block-local analogue of CountEngine.apply).
func (blk *shardBlock) applyRand(e *CountEngine, i, j int, a, b uint64) {
	c := e.c
	if a == c.codes[i] && b == c.codes[j] {
		return
	}
	blk.delta.add(i, -1)
	blk.delta.add(j, -1)
	blk.addCode(e, a, i, j)
	blk.addCode(e, b, i, j)
}

// safetyOK applies the planner's drift bound to the block's own deltas
// — a conservative early-abort (other blocks could offset a local
// excess, which the merged check would accept); the authoritative test
// runs on the merged deltas. Extra codes are fresh states (count 0).
func (blk *shardBlock) safetyOK(e *CountEngine) bool {
	if !e.safetyOK(&blk.delta) {
		return false
	}
	for _, d := range blk.extraDelta {
		if !e.bp.withinBound(0, d) {
			return false
		}
	}
	return true
}

// resetAll clears the resolve-pass scratch.
func (blk *shardBlock) resetAll() {
	blk.delta.reset()
	if len(blk.extraCode) > 0 {
		clear(blk.extraIdx)
		blk.extraCode = blk.extraCode[:0]
		blk.extraDelta = blk.extraDelta[:0]
	}
	blk.randPairs = blk.randPairs[:0]
	blk.plan = blk.plan[:0]
}

// shardPass is one parallel phase: blocks are claimed off the atomic
// counter by the caller and any woken workers; wg completes when every
// block has run, regardless of who ran it (a lost wake token only
// costs parallelism, never progress).
type shardPass struct {
	next atomic.Int32
	n    int32
	run  func(int)
	wg   sync.WaitGroup
}

// claim runs blocks off the pass's counter until none remain.
func (ps *shardPass) claim() {
	for {
		b := ps.next.Add(1) - 1
		if b >= ps.n {
			return
		}
		ps.run(int(b))
		ps.wg.Done()
	}
}

// shardRunner owns one engine's sharded-epoch state: the block
// partition and scratch, the per-protocol shard transition closures,
// the worker pool, and the epoch counter the block streams derive from.
type shardRunner struct {
	e         *CountEngine
	shards    int    // configured worker parallelism (≥ 2)
	maxBlocks int    // shards · shardBlocksPerWorker
	seedBase  uint64 // Config.Seed: the block-stream derivation base
	epochSeq  uint64 // sharded epochs planned so far (snapshotted)

	deltas    []func(qu, qv uint64, r *rng.Rand) (uint64, uint64) // per-block shard closures (nil: serial randomized resolution)
	reconcile func() map[uint64]uint64                            // nil when the closures never intern

	blocks   []*shardBlock
	rowTau   []int64   // per occ position: the row's sampled interaction total
	randRow  []float64 // per occ position: randomized-pair rate mass of the row
	randFlow float64   // Σ randRow: expected randomized fraction per interaction
	fullPlan []pairCount

	wake chan *shardPass
	live atomic.Int32
}

// newShardRunner wires intra-run sharding for an engine.
func newShardRunner(e *CountEngine, cfg Config) *shardRunner {
	sr := &shardRunner{
		e:         e,
		shards:    cfg.Shards,
		maxBlocks: cfg.Shards * shardBlocksPerWorker,
		seedBase:  cfg.Seed,
		wake:      make(chan *shardPass, cfg.Shards),
	}
	sr.blocks = make([]*shardBlock, sr.maxBlocks)
	for i := range sr.blocks {
		sr.blocks[i] = &shardBlock{r: rng.New(0)}
	}
	if sd, ok := e.p.(ShardedDelta); ok {
		if deltas, rec := sd.ShardDelta(sr.maxBlocks); len(deltas) == sr.maxBlocks {
			sr.deltas, sr.reconcile = deltas, rec
		}
	}
	return sr
}

// topUp spawns parked workers until `want` are live (best effort: a
// worker retiring concurrently costs one pass some parallelism, never
// correctness).
func (sr *shardRunner) topUp(want int) {
	for int(sr.live.Load()) < want {
		sr.live.Add(1)
		go sr.worker()
	}
}

// worker parks on the wake channel, claims blocks of whatever pass
// wakes it, and retires after an idle timeout.
func (sr *shardRunner) worker() {
	t := time.NewTimer(shardIdleTimeout)
	defer t.Stop()
	for {
		select {
		case ps := <-sr.wake:
			ps.claim()
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			t.Reset(shardIdleTimeout)
		case <-t.C:
			sr.live.Add(-1)
			return
		}
	}
}

// runBlocks executes blocks [0, nb) — concurrently when fanned, else
// sequentially on the caller with identical results. Fanned passes with
// more blocks than workers count the excess claims as steal events.
func (sr *shardRunner) runBlocks(nb int, fanned bool, run func(int)) {
	if !fanned || nb < 2 {
		for b := 0; b < nb; b++ {
			run(b)
		}
		return
	}
	if nb > sr.shards {
		sr.e.stats.StealEvents += int64(nb - sr.shards)
	}
	ps := &shardPass{n: int32(nb), run: run}
	ps.wg.Add(nb)
	want := sr.shards - 1
	if want > nb-1 {
		want = nb - 1
	}
	sr.topUp(want)
	for i := 0; i < want; i++ {
		select {
		case sr.wake <- ps:
		default:
		}
	}
	ps.claim()
	ps.wg.Wait()
}

// splitEven partitions `rows` occupied positions into ≤ maxBlocks
// equal ranges (the flow pass costs O(occupied) per row uniformly).
func (sr *shardRunner) splitEven(rows int) int {
	nb := sr.maxBlocks
	if nb > rows {
		nb = rows
	}
	for b := 0; b < nb; b++ {
		sr.blocks[b].lo = rows * b / nb
		sr.blocks[b].hi = rows * (b + 1) / nb
	}
	return nb
}

// splitWeighted partitions the rows by resolve-pass work — the fixed
// per-row column walk plus the row's expected randomized Delta calls —
// so blocks carry comparable load before stealing has to even out the
// rest.
func (sr *shardRunner) splitWeighted(rows int, tau int64) int {
	nbMax := sr.maxBlocks
	if nbMax > rows {
		nbMax = rows
	}
	weight := func(pos int) int64 {
		return int64(rows) + int64(sr.randRow[pos]*float64(tau))
	}
	var total int64
	for pos := 0; pos < rows; pos++ {
		total += weight(pos)
	}
	target := total/int64(nbMax) + 1
	nb, lo := 0, 0
	var acc int64
	for pos := 0; pos < rows; pos++ {
		acc += weight(pos)
		if acc >= target || pos == rows-1 {
			sr.blocks[nb].lo, sr.blocks[nb].hi = lo, pos+1
			nb++
			lo = pos + 1
			acc = 0
		}
	}
	sr.blocks[nb-1].hi = rows
	return nb
}

// planTauSharded is the sharded planner's pre-leap sizing: the slot
// matrix is synced, flowRows fans out over even row blocks with det
// misses parked, then a serial step merges block flows in ascending
// block order, classifies the misses (the epoch's only det writes) and
// adds their flows, and sizeTau bounds the epoch like the serial
// planTau.
func (e *CountEngine) planTauSharded() (tau int64, frozen bool) {
	e.syncSlots()
	sr, bp, c := e.sr, e.bp, e.c
	rows := len(e.occ)
	if cap(sr.randRow) < rows {
		sr.randRow = make([]float64, rows)
	}
	sr.randRow = sr.randRow[:rows]
	nb := sr.splitEven(rows)
	fanned := int64(rows)*int64(rows) >= shardFanoutMinWork
	sr.runBlocks(nb, fanned, func(b int) {
		blk := sr.blocks[b]
		e.flowRows(blk.lo, blk.hi, &blk.flow, sr.randRow, &blk.misses)
	})

	// Serial confirm: merge block flows in block order, then classify
	// the misses — the only det writes and state discoveries of the
	// epoch, in ascending (row, responder) order.
	for _, blk := range sr.blocks[:nb] {
		for _, idx := range blk.flow.touched {
			bp.flow.add(idx, blk.flow.val[idx])
		}
		blk.flow.reset()
	}
	totalW := float64(e.n) * float64(e.n-1)
	for _, blk := range sr.blocks[:nb] {
		for _, key := range blk.misses {
			pos, j := int(key>>32), int(uint32(key))
			i := e.occ[pos]
			ent := e.pairEntry(i, j)
			if ent.kind == pairNoop {
				continue
			}
			ci := c.counts[i]
			w := c.counts[j]
			if j == i {
				w = ci - 1
			}
			lam := float64(ci) * float64(w) / totalW
			if ent.kind == pairDet {
				for x := 0; x < int(ent.nm); x++ {
					d := float64(ent.d[x])
					if d < 0 {
						d = -d
					}
					bp.flow.add(int(ent.idx[x]), lam*d)
				}
			} else {
				bp.flow.add(i, lam)
				bp.flow.add(j, lam)
				sr.randRow[pos] += lam
			}
		}
		blk.misses = blk.misses[:0]
	}
	sr.randFlow = 0
	for pos := 0; pos < rows; pos++ {
		sr.randFlow += sr.randRow[pos]
	}
	return e.sizeTau()
}

// resolve is one block's resolve pass: the conditional-binomial
// responder decomposition of its rows on the block's private stream,
// deterministic pairs bulk-applied into block deltas, randomized pairs
// resolved through the block's shard closure (or deferred to the serial
// confirm step when the protocol has none). The full ordered pair plan
// is retained for the serial fallback on a merge conflict — which is
// why a drift violation mid-block stops delta resolution (the deltas
// will be discarded) but keeps sampling the decomposition: the fallback
// replays the plan for the whole epoch, so every block's plan must
// cover its full row totals. The binomial chain never depends on Delta
// outcomes, so the post-violation plan remains an exact conditional
// sample.
func (blk *shardBlock) resolve(e *CountEngine, rowTau []int64, delta func(qu, qv uint64, r *rng.Rand) (uint64, uint64)) {
	c := e.c
	sm, det := e.bp.slots, e.bp.det
	blk.violated = false
	blk.deltaCalls = 0
	sinceCheck := int64(0)
	for pos := blk.lo; pos < blk.hi; pos++ {
		i := e.occ[pos]
		row := sm.row(sm.occSlot[pos])
		for pj, m := range e.responders(i, rowTau[pos], blk.r) {
			j := e.occ[pj]
			blk.plan = append(blk.plan, pairCount{int32(i), int32(j), m})
			if blk.violated {
				continue
			}
			// The flow pass classified every occupied pair this epoch and
			// filled its matrix cell, so neither read can miss; a zero
			// entry would only fall through to the (always-correct)
			// randomized path.
			var ent detEntry
			if sj := sm.occSlot[pj]; row != nil && sj >= 0 {
				ent = row[sj]
			} else {
				ent = det[uint64(uint32(i))<<32|uint64(uint32(j))]
			}
			switch ent.kind {
			case pairNoop:
			case pairDet:
				for x := 0; x < int(ent.nm); x++ {
					blk.delta.add(int(ent.idx[x]), int64(ent.d[x])*m)
				}
			default:
				if delta == nil {
					blk.randPairs = append(blk.randPairs, pairCount{int32(i), int32(j), m})
				} else {
					qu, qv := c.codes[i], c.codes[j]
					blk.deltaCalls += m
					for x := int64(0); x < m; x++ {
						a, b := delta(qu, qv, blk.r)
						blk.applyRand(e, i, j, a, b)
					}
				}
			}
			sinceCheck += m
			if sinceCheck >= driftCheckStride {
				if !blk.safetyOK(e) {
					blk.violated = true
					continue
				}
				sinceCheck = 0
			}
		}
	}
	if !blk.violated && !blk.safetyOK(e) {
		blk.violated = true
	}
}

// applyEpochSharded executes one sharded epoch of tau interactions:
// serial row totals, parallel per-block resolution, serial merge and
// commit. On a merge conflict the full ordered plan falls back to the
// serial split/retry machinery. Returns the number of interactions
// executed.
func (e *CountEngine) applyEpochSharded(tau int64) int64 {
	sr, bp := e.sr, e.bp
	sr.epochSeq++
	e.stats.ShardEpochs++

	// Serial: the initiator-row binomial chain, on the engine stream.
	rows := len(e.occ)
	sr.rowTau = sr.rowTau[:0]
	for _, ri := range e.rowShares(tau) {
		sr.rowTau = append(sr.rowTau, ri)
	}

	// Parallel: per-block responder decomposition and delta resolution,
	// each block on its (seed, epoch, block) stream.
	nb := sr.splitWeighted(rows, tau)
	e.stats.ShardBlocks += int64(nb)
	work := int64(rows)*int64(rows) + int64(sr.randFlow*float64(tau))
	epoch := sr.epochSeq
	sr.runBlocks(nb, work >= shardFanoutMinWork, func(b int) {
		blk := sr.blocks[b]
		blk.r.Reseed(shardStreamSeed(sr.seedBase, epoch, b))
		blk.resolve(e, sr.rowTau, sr.blockDelta(b))
	})

	// Serial confirm: reconcile provisional states, fold block deltas in
	// ascending block order, resolve deferred randomized pairs, and
	// commit under the global safety bound.
	violated := false
	for _, blk := range sr.blocks[:nb] {
		violated = violated || blk.violated
		e.stats.DeltaCalls += blk.deltaCalls
	}
	var remap map[uint64]uint64
	if sr.reconcile != nil {
		remap = sr.reconcile()
	}
	if !violated {
		for _, blk := range sr.blocks[:nb] {
			for _, idx := range blk.delta.touched {
				bp.delta.add(idx, blk.delta.val[idx])
			}
			for k, code := range blk.extraCode {
				if len(remap) > 0 {
					if canon, ok := remap[code]; ok {
						code = canon
					}
				}
				bp.delta.add(e.stateIndex(code), blk.extraDelta[k])
			}
		}
		violated = !sr.resolveDeferred(nb)
	}
	if !violated && e.safetyOK(&bp.delta) {
		for _, blk := range sr.blocks[:nb] {
			blk.resetAll()
		}
		e.commitDeltas()
		e.t += tau
		return tau
	}

	// Merge conflict: discard the shard deltas and replay the full
	// ordered plan (block order is ascending initiator order, so the
	// concatenation is exactly a serial planPairs plan) through the
	// serial split/retry machinery.
	e.stats.MergeConflicts++
	bp.delta.reset()
	plan := sr.fullPlan[:0]
	for _, blk := range sr.blocks[:nb] {
		plan = append(plan, blk.plan...)
		blk.resetAll()
	}
	sr.fullPlan = plan
	return e.applyPlan(plan, tau)
}

// blockDelta returns block b's shard transition closure (nil when the
// protocol has none and randomized pairs defer to the confirm step).
func (sr *shardRunner) blockDelta(b int) func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
	if sr.deltas == nil {
		return nil
	}
	return sr.deltas[b]
}

// resolveDeferred serially resolves the randomized pairs of protocols
// without shard closures, on the engine stream in ascending block
// order, and reports whether the safety bound still holds. Its check
// stride runs over the deferred pairs alone: where it aborts decides
// how much of the engine stream the epoch consumes.
func (sr *shardRunner) resolveDeferred(nb int) bool {
	e := sr.e
	sinceCheck := int64(0)
	for _, blk := range sr.blocks[:nb] {
		for _, pc := range blk.randPairs {
			e.resolveRandomized(int(pc.i), int(pc.j), pc.m)
			sinceCheck += pc.m
			if sinceCheck >= driftCheckStride {
				if !e.safetyOK(&e.bp.delta) {
					return false
				}
				sinceCheck = 0
			}
		}
	}
	return true
}
