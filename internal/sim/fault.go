// The fault plane: deterministic, seed-reproducible fault schedules
// applied to a running engine at the spec layer.
//
// A FaultPlan describes three fault families over the interaction
// clock — transient state corruption (single bursts and a Poisson-rate
// stream, resetting agents to spec-chosen init states or to random
// occupied codes), population churn (agents leaving mid-run, each
// replaced by a fresh agent in a fresh init state, so n is conserved),
// and adversarial interactions (stale-pair replay, initiator bias, and
// a corruption-timed adversary that strikes at the first converged
// poll). Faults are code-to-code transformations over the spec's state
// domain, so every engine form executes the same schedule: the
// agent-array engine reassigns sampled agents, the count engine moves
// counts between states with one multivariate-hypergeometric victim
// draw over the occupied configuration (the batched engine shares it —
// epochs are truncated at fault times by the step splitter), and both
// remain conformant — bit-for-bit against themselves across
// snapshot/restore, distributionally against each other.
//
// Determinism: the whole schedule (event times, sizes, kinds) is
// compiled up front from the plan's own RNG stream, seeded from
// plan.Seed mixed with the engine seed — equal (plan, Config) pairs
// produce the identical schedule on every engine form, and different
// trials of an ensemble decorrelate automatically. Fault randomness
// (victims, replacement states, adversarial coins) is drawn from the
// same dedicated stream, never from the engine's scheduler RNG, so
// enabling a fault plan does not perturb the underlying trajectory
// between fault times.
//
// Recovery instrumentation rides on the convergence poll: every
// applied corruption/churn event opens a pending-recovery window, the
// next converged poll closes it (FaultStats.Reconvergences and the
// reconvergence times), and for protocols with an error predicate
// (the stable hybrids) the latency from first damage to the raised
// error flag is recorded once (FaultStats.ErrorLatency).
package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"popcount/internal/rng"
)

// ErrFaultPlan is returned for a structurally invalid fault plan, or
// when a fault plan is requested for a protocol that is not spec-backed
// (fault transformations are defined over a Spec's state domain).
var ErrFaultPlan = errors.New("sim: invalid fault plan")

// AdversaryKind selects the adversarial interaction model of a
// FaultPlan.
type AdversaryKind uint8

const (
	// AdversaryNone disables adversarial interactions.
	AdversaryNone AdversaryKind = iota
	// AdversaryStaleReplay replays a previously recorded interaction
	// pair: at every adversary event the recorded (initiator, responder)
	// state pair is forced to interact again — if both states are still
	// occupied — and a fresh pair is recorded for the next replay. It
	// models a scheduler acting on stale configuration information.
	AdversaryStaleReplay
	// AdversaryInitiatorBias forces an interaction whose initiator is
	// drawn from the plurality (most populated) state, with the
	// responder uniform over the remaining agents — a scheduler biased
	// toward the majority.
	AdversaryInitiatorBias
	// AdversaryConvergence is the corruption-timed adversary: it waits
	// for the first converged poll and corrupts AdversaryAgents agents
	// at that moment (to random occupied codes when CorruptRandom, to
	// fresh init states otherwise). The run then continues to genuine
	// re-convergence — the detect-and-restart measurement for the
	// stable hybrids.
	AdversaryConvergence
)

// String returns the adversary kind's name.
func (a AdversaryKind) String() string {
	switch a {
	case AdversaryNone:
		return "none"
	case AdversaryStaleReplay:
		return "stale-replay"
	case AdversaryInitiatorBias:
		return "initiator-bias"
	case AdversaryConvergence:
		return "convergence"
	default:
		return fmt.Sprintf("AdversaryKind(%d)", int(a))
	}
}

// FaultBurst is one scheduled corruption burst: at interaction At,
// Agents agents (drawn uniformly without replacement) are reset — to
// random occupied codes when Random, to fresh init states otherwise.
type FaultBurst struct {
	At     int64
	Agents int
	Random bool
}

// FaultChurn is one scheduled churn event: at interaction At, Agents
// agents leave the population and are replaced by fresh agents in
// fresh init states, conserving n.
type FaultChurn struct {
	At     int64
	Agents int
}

// FaultPlan is a deterministic, seed-reproducible fault schedule.
// The zero value is a valid empty plan (no faults).
//
// Rates are expressed per n interactions — CorruptRate 1.0 means one
// corruption event per n interactions in expectation — so a plan keeps
// its meaning across population sizes. Event times are drawn once, at
// engine construction, from a dedicated RNG stream seeded by Seed
// mixed with Config.Seed: the same plan and engine seed yield the
// identical schedule on every engine form.
type FaultPlan struct {
	// Seed decorrelates the fault stream from the scheduler stream. Two
	// runs with equal Config.Seed but different plan seeds see different
	// schedules.
	Seed uint64

	// Bursts are scheduled one-off corruption bursts.
	Bursts []FaultBurst
	// CorruptRate, when positive, adds a Poisson stream of corruption
	// events (expected events per n interactions), each resetting
	// CorruptAgents agents.
	CorruptRate float64
	// CorruptAgents sizes rate-driven and convergence-adversary
	// corruption events (default 1).
	CorruptAgents int
	// CorruptRandom selects random occupied codes as corruption targets
	// for rate-driven and convergence-adversary events (fresh init
	// states otherwise).
	CorruptRandom bool

	// Churn are scheduled one-off churn events.
	Churn []FaultChurn
	// ChurnRate, when positive, adds a Poisson stream of churn events
	// (expected events per n interactions), each replacing ChurnAgents
	// agents.
	ChurnRate float64
	// ChurnAgents sizes rate-driven churn events (default 1).
	ChurnAgents int

	// Adversary selects the adversarial interaction model.
	Adversary AdversaryKind
	// AdversaryRate is the Poisson rate of forced interactions
	// (expected events per n interactions) for AdversaryStaleReplay and
	// AdversaryInitiatorBias; it must be positive for those kinds and is
	// ignored otherwise.
	AdversaryRate float64
	// AdversaryAgents sizes the convergence adversary's corruption
	// strike (default 1). The replay and bias adversaries force one
	// interaction per event and ignore it.
	AdversaryAgents int
}

// Enabled reports whether the plan schedules any faults.
func (p *FaultPlan) Enabled() bool {
	return p != nil && (len(p.Bursts) > 0 || len(p.Churn) > 0 ||
		p.CorruptRate > 0 || p.ChurnRate > 0 || p.Adversary != AdversaryNone)
}

// Validate checks the plan's structural invariants against a population
// of n agents. All errors wrap ErrFaultPlan.
func (p *FaultPlan) Validate(n int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrFaultPlan}, args...)...)
	}
	checkRate := func(name string, rate float64) error {
		if rate < 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
			return bad("%s %v is not a finite non-negative rate", name, rate)
		}
		return nil
	}
	checkAgents := func(name string, agents int) error {
		if agents < 0 || agents > n {
			return bad("%s %d outside [0, n=%d]", name, agents, n)
		}
		return nil
	}
	for i, b := range p.Bursts {
		if b.At < 0 {
			return bad("burst %d at negative interaction %d", i, b.At)
		}
		if b.Agents < 1 || b.Agents > n {
			return bad("burst %d corrupts %d agents, want 1..n=%d", i, b.Agents, n)
		}
	}
	for i, c := range p.Churn {
		if c.At < 0 {
			return bad("churn %d at negative interaction %d", i, c.At)
		}
		if c.Agents < 1 || c.Agents > n {
			return bad("churn %d replaces %d agents, want 1..n=%d", i, c.Agents, n)
		}
	}
	if err := checkRate("corrupt rate", p.CorruptRate); err != nil {
		return err
	}
	if err := checkRate("churn rate", p.ChurnRate); err != nil {
		return err
	}
	if err := checkRate("adversary rate", p.AdversaryRate); err != nil {
		return err
	}
	if err := checkAgents("corrupt agents", p.CorruptAgents); err != nil {
		return err
	}
	if err := checkAgents("churn agents", p.ChurnAgents); err != nil {
		return err
	}
	if err := checkAgents("adversary agents", p.AdversaryAgents); err != nil {
		return err
	}
	switch p.Adversary {
	case AdversaryNone, AdversaryConvergence:
	case AdversaryStaleReplay, AdversaryInitiatorBias:
		if p.AdversaryRate <= 0 {
			return bad("adversary %v needs a positive adversary rate", p.Adversary)
		}
	default:
		return bad("unknown adversary kind %d", int(p.Adversary))
	}
	return nil
}

// Fault event kinds, in tie-break order for events scheduled at the
// same interaction.
const (
	evCorrupt uint8 = iota
	evChurn
	evAdversary
)

// faultEvent is one compiled schedule entry: at interaction `at`, apply
// the fault. Events never advance the interaction clock.
type faultEvent struct {
	at     int64
	kind   uint8
	agents int
	random bool
}

// maxFaultEvents bounds the compiled schedule: a rate high enough to
// exceed it (a million events) signals a plan that would spend the
// whole run inside fault application.
const maxFaultEvents = 1 << 20

// FaultStats are the fault plane's deterministic run counters,
// including the recovery-time instrumentation.
type FaultStats struct {
	// Events counts applied fault events of every kind.
	Events int64
	// Corrupted and Churned count affected agents (corruption bursts
	// and rate events; churn replacements).
	Corrupted int64
	Churned   int64
	// Forced counts adversarial interactions actually forced (a stale
	// replay whose recorded pair has died is an event but not a forced
	// interaction).
	Forced int64
	// Reconvergences counts completed recovery cycles: a corruption or
	// churn event opens a pending window, the next converged poll
	// closes it. ReconvergeTotal and ReconvergeMax aggregate the
	// window lengths in interactions (mean = total/count).
	Reconvergences  int64
	ReconvergeTotal int64
	ReconvergeMax   int64
	// ErrorLatency is the number of interactions from the first
	// corruption or churn event to the first poll at which the
	// protocol's error predicate held, or -1 while undetected
	// (protocols without error detection never detect).
	ErrorLatency int64
}

// faultState is the per-engine runtime of a compiled fault plan.
type faultState struct {
	plan   FaultPlan
	n      int64
	r      *rng.Rand // dedicated fault stream; never the scheduler RNG
	events []faultEvent
	cursor int

	// Stale-replay adversary: the recorded pair awaiting replay.
	staleSet       bool
	staleU, staleV uint64

	// Convergence adversary: fired once.
	convFired bool

	// Recovery instrumentation.
	pendingSince int64 // damage awaiting a converged poll, -1 when none
	firstCorrupt int64 // interaction of the first damage event, -1 before

	stats FaultStats
}

// compileFaults validates plan and compiles its full event schedule for
// a population of n agents under the (normalized) cfg. The schedule
// covers MaxInteractions plus the confirmation window.
func compileFaults(plan *FaultPlan, n int, cfg Config) (*faultState, error) {
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	fs := &faultState{
		plan:         *plan,
		n:            int64(n),
		r:            rng.New(plan.Seed ^ (cfg.Seed * 0x9e3779b97f4a7c15)),
		pendingSince: -1,
		firstCorrupt: -1,
	}
	fs.stats.ErrorLatency = -1
	horizon := cfg.MaxInteractions + cfg.ConfirmWindow
	for _, b := range plan.Bursts {
		if b.At < horizon {
			fs.events = append(fs.events, faultEvent{at: b.At, kind: evCorrupt, agents: b.Agents, random: b.Random})
		}
	}
	for _, c := range plan.Churn {
		if c.At < horizon {
			fs.events = append(fs.events, faultEvent{at: c.At, kind: evChurn, agents: c.Agents})
		}
	}
	// The Poisson streams are drawn in a fixed order so the schedule is
	// a pure function of (plan, n, cfg.Seed, horizon).
	def := func(agents int) int {
		if agents < 1 {
			return 1
		}
		return agents
	}
	if err := fs.poissonStream(evCorrupt, plan.CorruptRate, def(plan.CorruptAgents), plan.CorruptRandom, horizon); err != nil {
		return nil, err
	}
	if err := fs.poissonStream(evChurn, plan.ChurnRate, def(plan.ChurnAgents), false, horizon); err != nil {
		return nil, err
	}
	if plan.Adversary == AdversaryStaleReplay || plan.Adversary == AdversaryInitiatorBias {
		if err := fs.poissonStream(evAdversary, plan.AdversaryRate, 1, false, horizon); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(fs.events, func(i, j int) bool {
		a, b := fs.events[i], fs.events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.kind < b.kind
	})
	return fs, nil
}

// poissonStream appends one Poisson event stream with the given rate
// (expected events per n interactions) up to the horizon. Gaps are
// exponential with mean n/rate, floored at one interaction.
func (fs *faultState) poissonStream(kind uint8, ratePerN float64, agents int, random bool, horizon int64) error {
	if ratePerN <= 0 {
		return nil
	}
	mean := float64(fs.n) / ratePerN
	tf := 0.0
	for {
		u := (float64(fs.r.Uint64()>>11) + 1) / (1 << 53) // uniform in (0, 1]
		g := -math.Log(u) * mean
		if g < 1 {
			g = 1
		}
		tf += g
		if !(tf < float64(horizon)) {
			return nil
		}
		if len(fs.events) >= maxFaultEvents {
			return fmt.Errorf("%w: schedule exceeds %d events over %d interactions — lower the rates", ErrFaultPlan, maxFaultEvents, horizon)
		}
		fs.events = append(fs.events, faultEvent{at: int64(tf), kind: kind, agents: agents, random: random})
	}
}

// advAgents sizes the convergence adversary's corruption strike.
func (fs *faultState) advAgents() int {
	if a := fs.plan.AdversaryAgents; a >= 1 {
		return a
	}
	return 1
}

// noteApplied updates the fault counters and recovery windows after an
// event has been applied by the engine.
func (fs *faultState) noteApplied(ev faultEvent, t int64) {
	fs.stats.Events++
	switch ev.kind {
	case evCorrupt:
		fs.stats.Corrupted += int64(ev.agents)
		fs.markDamage(t)
	case evChurn:
		fs.stats.Churned += int64(ev.agents)
		fs.markDamage(t)
	}
}

// markDamage opens the pending-recovery window (and pins the first
// damage time for the error-latency measurement).
func (fs *faultState) markDamage(t int64) {
	if fs.pendingSince < 0 {
		fs.pendingSince = t
	}
	if fs.firstCorrupt < 0 {
		fs.firstCorrupt = t
	}
}

// onPoll runs the fault plane's convergence-poll hooks: the
// corruption-timed adversary, recovery-window bookkeeping, and the
// error-flag latency probe. It returns the (possibly re-evaluated)
// convergence verdict.
func (fs *faultState) onPoll(c *engineCore, ops engineOps, conv bool) bool {
	if conv && fs.plan.Adversary == AdversaryConvergence && !fs.convFired {
		fs.convFired = true
		ev := faultEvent{at: c.t, kind: evCorrupt, agents: fs.advAgents(), random: fs.plan.CorruptRandom}
		ops.applyFault(ev)
		fs.noteApplied(ev, c.t)
		// Re-evaluate so the driving loop continues to genuine
		// re-convergence — the detect-and-restart measurement.
		conv = ops.Converged()
	}
	if conv && fs.pendingSince >= 0 {
		d := c.t - fs.pendingSince
		fs.stats.Reconvergences++
		fs.stats.ReconvergeTotal += d
		if d > fs.stats.ReconvergeMax {
			fs.stats.ReconvergeMax = d
		}
		fs.pendingSince = -1
	}
	if fs.firstCorrupt >= 0 && fs.stats.ErrorLatency < 0 && ops.faultErrored() {
		fs.stats.ErrorLatency = c.t - fs.firstCorrupt
	}
	return conv
}

// stepFaulted drives raw stepping through the compiled schedule: every
// event due at the current clock is applied (events never advance the
// clock), and raw runs are truncated at the next event time. An event
// landing exactly on a Step boundary applies at the start of the next
// Step call — after the intervening convergence poll — identically on
// every engine form.
func (c *engineCore) stepFaulted(count int64, raw func(int64), ops engineOps) {
	fs := c.fs
	for count > 0 {
		for fs.cursor < len(fs.events) && fs.events[fs.cursor].at <= c.t {
			ev := fs.events[fs.cursor]
			fs.cursor++
			ops.applyFault(ev)
			fs.noteApplied(ev, c.t)
		}
		run := count
		if fs.cursor < len(fs.events) {
			if d := fs.events[fs.cursor].at - c.t; d < run {
				run = d
			}
		}
		raw(run)
		count -= run
	}
}

// targetDraw returns a closure drawing replacement state codes for one
// corruption or churn event. Random corruption draws uniformly over the
// codes occupied when the event struck (the caller freezes the list);
// everything else — churn joins and spec-chosen corruption — draws a
// fresh state from the spec's initial configuration, exactly as a
// newly joined agent would initialize.
func (fs *faultState) targetDraw(spec *Spec, occupied []uint64, ev faultEvent) func() uint64 {
	if ev.kind == evCorrupt && ev.random {
		return func() uint64 { return occupied[fs.r.Intn(len(occupied))] }
	}
	init := spec.initCounts(fs.r)
	codes := sortedCodes(init)
	cum := make([]int64, len(codes))
	var total int64
	for i, c := range codes {
		total += init[c]
		cum[i] = total
	}
	return func() uint64 {
		z := fs.r.Int64n(total)
		i := sort.Search(len(cum), func(i int) bool { return cum[i] > z })
		return codes[i]
	}
}

// ---- Agent-engine fault application ----------------------------------

// occupiedCodes returns the distinct codes currently occupied, in
// first-occurrence order over the agent array. Array order — not code
// magnitude — keeps the draw stable across snapshot/restore renaming.
func (p *SpecAgent) occupiedCodes() []uint64 {
	k := p.view.States()
	seen := make(map[uint64]bool, k)
	out := make([]uint64, 0, k)
	for _, c := range p.code {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// findAgent returns a uniformly drawn agent index currently in the
// given state, excluding index excl (-1 for none), or -1 if no such
// agent exists.
func (p *SpecAgent) findAgent(code uint64, excl int, fr *rng.Rand) int {
	cnt := p.view.Count(code)
	if excl >= 0 && p.code[excl] == code {
		cnt--
	}
	if cnt <= 0 {
		return -1
	}
	k := fr.Int64n(cnt)
	for i, c := range p.code {
		if c == code && i != excl {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

// pluralityCode returns the code of the most populated state, ties
// broken by first occurrence in the agent array.
func (p *SpecAgent) pluralityCode() uint64 {
	var best uint64
	bestCnt := int64(-1)
	for _, c := range p.code {
		if cnt := p.view.Count(c); cnt > bestCnt {
			bestCnt, best = cnt, c
		}
	}
	return best
}

// applyFault implements the fault plane on the agent-array engine:
// victims are distinct agents drawn uniformly, reassigned via the spec
// adapter's mirror-repairing move.
func (e *Engine) applyFault(ev faultEvent) {
	fs, sa := e.fs, e.fsa
	fr := fs.r
	if ev.kind == evAdversary {
		if e.forceInteraction() {
			fs.stats.Forced++
		}
		return
	}
	draw := fs.targetDraw(sa.spec, sa.occupiedCodes(), ev)
	// Distinct victims (rejection over the at-most-n agent indices)
	// match the count engine's without-replacement hypergeometric draw.
	seen := make(map[int]bool, ev.agents)
	for k := 0; k < ev.agents; k++ {
		i := fr.Intn(e.n)
		for seen[i] {
			i = fr.Intn(e.n)
		}
		seen[i] = true
		to := draw()
		if from := sa.code[i]; from != to {
			sa.move(i, from, to)
		}
	}
}

// forceInteraction applies one adversarial interaction on the agent
// engine, reporting whether an interaction was actually forced. Coins
// come from the fault stream; the scheduler RNG and the interaction
// clock are untouched.
func (e *Engine) forceInteraction() bool {
	fs, sa := e.fs, e.fsa
	fr := fs.r
	switch fs.plan.Adversary {
	case AdversaryStaleReplay:
		forced := false
		if fs.staleSet {
			u := sa.findAgent(fs.staleU, -1, fr)
			if u >= 0 {
				if v := sa.findAgent(fs.staleV, u, fr); v >= 0 {
					a, b := sa.spec.Delta(fs.staleU, fs.staleV, fr)
					if a != fs.staleU {
						sa.move(u, fs.staleU, a)
					}
					if b != fs.staleV {
						sa.move(v, fs.staleV, b)
					}
					forced = true
				}
			}
		}
		u, v := fr.Pair(e.n)
		fs.staleU, fs.staleV, fs.staleSet = sa.code[u], sa.code[v], true
		return forced
	case AdversaryInitiatorBias:
		u := sa.findAgent(sa.pluralityCode(), -1, fr)
		if u < 0 {
			return false
		}
		v := fr.Intn(e.n - 1)
		if v >= u {
			v++
		}
		qu, qv := sa.code[u], sa.code[v]
		a, b := sa.spec.Delta(qu, qv, fr)
		if a != qu {
			sa.move(u, qu, a)
		}
		if b != qv {
			sa.move(v, qv, b)
		}
		return true
	}
	return false
}

// faultErrored probes the spec's error predicate (engineOps).
func (e *Engine) faultErrored() bool {
	return e.fsa != nil && e.fsa.Errored()
}

// FaultStats returns the fault plane's counters (zero, with
// ErrorLatency -1, when no fault plan is configured).
func (e *Engine) FaultStats() FaultStats {
	if e.fs == nil {
		return FaultStats{ErrorLatency: -1}
	}
	return e.fs.stats
}

// ---- Count-engine fault application ----------------------------------

// applyFault implements the fault plane on the count engine: one
// multivariate-hypergeometric draw over the occupied configuration
// selects the victims without replacement — the configuration-level
// image of drawing distinct agents uniformly — and counts move between
// states through shift, which repairs the samplers, the occupied list
// and the no-op aggregates.
func (e *CountEngine) applyFault(ev faultEvent) {
	fs := e.fs
	fr := fs.r
	if ev.kind == evAdversary {
		if e.forceCountInteraction() {
			fs.stats.Forced++
		}
		return
	}
	// Freeze the occupied configuration: the victim draw and the
	// random-target pool must not see their own mutations. Ascending
	// dense (discovery) order keeps the draw stable across
	// snapshot/restore renaming.
	occ := append([]int(nil), e.occ...)
	counts := make([]int64, len(occ))
	for i, idx := range occ {
		counts[i] = e.c.counts[idx]
	}
	victims := make([]int, 0, ev.agents)
	rem, remTotal := int64(ev.agents), e.n
	for i, idx := range occ {
		if rem <= 0 {
			break
		}
		k := fr.Hypergeometric(rem, counts[i], remTotal)
		remTotal -= counts[i]
		rem -= k
		for j := int64(0); j < k; j++ {
			victims = append(victims, idx)
		}
	}
	var codes []uint64
	if ev.kind == evCorrupt && ev.random {
		codes = make([]uint64, len(occ))
		for i, idx := range occ {
			codes[i] = e.c.codes[idx]
		}
	}
	draw := fs.targetDraw(e.fspec, codes, ev)
	for _, idx := range victims {
		to := draw()
		if e.c.codes[idx] == to {
			continue
		}
		e.shift(idx, -1)
		e.shift(e.stateIndex(to), 1)
	}
}

// pluralityIndex returns the dense index of the most populated state,
// ties broken by lowest dense (discovery) index, or -1 on an empty
// configuration.
func (e *CountEngine) pluralityIndex() int {
	best, bestCnt := -1, int64(0)
	for _, idx := range e.occ {
		if c := e.c.counts[idx]; c > bestCnt {
			best, bestCnt = idx, c
		}
	}
	return best
}

// forceCountInteraction applies one adversarial interaction on the
// count engine (see Engine.forceInteraction).
func (e *CountEngine) forceCountInteraction() bool {
	fs, c := e.fs, e.c
	fr := fs.r
	switch fs.plan.Adversary {
	case AdversaryStaleReplay:
		forced := false
		if fs.staleSet {
			iu, okU := c.find(fs.staleU)
			iv, okV := c.find(fs.staleV)
			if okU && okV {
				alive := (iu != iv && c.counts[iu] > 0 && c.counts[iv] > 0) ||
					(iu == iv && c.counts[iu] >= 2)
				if alive {
					a, b := e.p.Delta(fs.staleU, fs.staleV, fr)
					e.apply(iu, iv, a, b)
					forced = true
				}
			}
		}
		i, j := e.samplePairR(fr)
		fs.staleU, fs.staleV, fs.staleSet = c.codes[i], c.codes[j], true
		return forced
	case AdversaryInitiatorBias:
		i := e.pluralityIndex()
		if i < 0 {
			return false
		}
		j := e.responderIndex(i, fr)
		a, b := e.p.Delta(c.codes[i], c.codes[j], fr)
		e.apply(i, j, a, b)
		return true
	}
	return false
}

// faultErrored probes the spec's error predicate (engineOps).
func (e *CountEngine) faultErrored() bool {
	return e.fspec != nil && e.fspec.Errored != nil && e.fspec.Errored(e.c)
}

// FaultStats returns the fault plane's counters (zero, with
// ErrorLatency -1, when no fault plan is configured).
func (e *CountEngine) FaultStats() FaultStats {
	if e.fs == nil {
		return FaultStats{ErrorLatency: -1}
	}
	return e.fs.stats
}

// ---- Snapshot section -------------------------------------------------

// faultSnap is the decoded fault section of an engine snapshot,
// buffered so a later parse failure leaves the fault state untouched.
type faultSnap struct {
	cursor         int
	rngState       [4]uint64
	staleSet       bool
	staleU, staleV uint64
	convFired      bool
	pendingSince   int64
	firstCorrupt   int64
	stats          FaultStats
}

// snapshot appends the fault plane's runtime state to an engine
// snapshot. The compiled event schedule is not stored — it is a pure
// function of (plan, n, Config) and is recompiled at construction;
// only the cursor, the fault RNG, the stale pair (as portable state
// encodings) and the instrumentation travel.
func (fs *faultState) snapshot(w *snapWriter, enc func(uint64) []byte) {
	w.u32(uint32(fs.cursor))
	for _, s := range fs.r.State() {
		w.u64(s)
	}
	if fs.staleSet {
		w.u8(1)
		w.bytes(enc(fs.staleU))
		w.bytes(enc(fs.staleV))
	} else {
		w.u8(0)
	}
	if fs.convFired {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.i64(fs.pendingSince)
	w.i64(fs.firstCorrupt)
	w.i64(fs.stats.Events)
	w.i64(fs.stats.Corrupted)
	w.i64(fs.stats.Churned)
	w.i64(fs.stats.Forced)
	w.i64(fs.stats.Reconvergences)
	w.i64(fs.stats.ReconvergeTotal)
	w.i64(fs.stats.ReconvergeMax)
	w.i64(fs.stats.ErrorLatency)
}

// readSnapshot parses the fault section into a buffered faultSnap,
// latching failures on r.
func (fs *faultState) readSnapshot(r *snapReader, dec func([]byte) (uint64, error)) faultSnap {
	var s faultSnap
	s.cursor = int(r.u32())
	if r.err == nil && s.cursor > len(fs.events) {
		r.fail("fault cursor %d exceeds the %d scheduled events", s.cursor, len(fs.events))
	}
	for i := range s.rngState {
		s.rngState[i] = r.u64()
	}
	s.staleSet = r.u8() == 1
	if s.staleSet {
		bu := r.bytes()
		bv := r.bytes()
		if r.err == nil {
			var err error
			if s.staleU, err = dec(bu); err != nil {
				r.fail("stale initiator state: %v", err)
			} else if s.staleV, err = dec(bv); err != nil {
				r.fail("stale responder state: %v", err)
			}
		}
	}
	s.convFired = r.u8() == 1
	s.pendingSince = r.i64()
	s.firstCorrupt = r.i64()
	s.stats.Events = r.i64()
	s.stats.Corrupted = r.i64()
	s.stats.Churned = r.i64()
	s.stats.Forced = r.i64()
	s.stats.Reconvergences = r.i64()
	s.stats.ReconvergeTotal = r.i64()
	s.stats.ReconvergeMax = r.i64()
	s.stats.ErrorLatency = r.i64()
	return s
}

// restoreSnap installs a successfully parsed fault section.
func (fs *faultState) restoreSnap(s faultSnap) {
	fs.cursor = s.cursor
	fs.r.SetState(s.rngState)
	fs.staleSet, fs.staleU, fs.staleV = s.staleSet, s.staleU, s.staleV
	fs.convFired = s.convFired
	fs.pendingSince = s.pendingSince
	fs.firstCorrupt = s.firstCorrupt
	fs.stats = s.stats
}
