package popcount

// The public face of the fault plane. A FaultPlan describes a
// deterministic, seed-reproducible fault schedule — corruption bursts,
// Poisson-rate corruption and churn streams, adversarial scheduling —
// that the engine layer (internal/sim) applies identically on every
// engine form. WithFaults attaches a plan to a run; ParseFaultPlan and
// FaultPlan.String round-trip the plan through a canonical flag-friendly
// text form used by popsim's -faults flag and the snapshot envelope.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"popcount/internal/sim"
)

// FaultBurst is one scheduled corruption burst: at interaction At,
// Agents agents (drawn uniformly without replacement) are reset — to
// random occupied states when Random, to fresh initial states
// otherwise.
type FaultBurst struct {
	At     int64
	Agents int
	Random bool
}

// FaultChurn is one scheduled churn event: at interaction At, Agents
// agents leave the population and are replaced by fresh agents in fresh
// initial states, conserving n.
type FaultChurn struct {
	At     int64
	Agents int
}

// Adversary selects the adversarial interaction model of a FaultPlan.
type Adversary int

const (
	// AdversaryNone disables adversarial interactions.
	AdversaryNone Adversary = iota
	// AdversaryStaleReplay replays previously recorded interaction
	// pairs at a Poisson rate — a scheduler acting on stale
	// configuration information.
	AdversaryStaleReplay
	// AdversaryInitiatorBias forces interactions whose initiator is
	// drawn from the most populated state — a scheduler biased toward
	// the majority.
	AdversaryInitiatorBias
	// AdversaryConvergence waits for the first converged poll and
	// corrupts AdversaryAgents agents at that moment; the run then
	// continues to genuine re-convergence. This is the detect-and-
	// restart measurement for the stable hybrids.
	AdversaryConvergence
)

// String returns the adversary's name.
func (a Adversary) String() string {
	return sim.AdversaryKind(a).String()
}

// Adversaries returns every adversary kind, in declaration order.
func Adversaries() []Adversary {
	return []Adversary{AdversaryNone, AdversaryStaleReplay, AdversaryInitiatorBias, AdversaryConvergence}
}

// ParseAdversary resolves an adversary by its String name.
func ParseAdversary(name string) (Adversary, error) {
	for _, a := range Adversaries() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown adversary %q (valid: none, stale-replay, initiator-bias, convergence)", ErrBadFaultPlan, name)
}

// FaultPlan is a deterministic, seed-reproducible fault schedule. The
// zero value is a valid empty plan (no faults). Rates are expressed per
// n interactions, so a plan keeps its meaning across population sizes;
// event times are drawn at construction from a dedicated RNG stream
// seeded by Seed mixed with the scheduler seed, so the same plan and
// seeds reproduce the identical schedule on every engine.
//
// Fault plans work with every algorithm, because every algorithm is a
// transition spec, but require the default uniform scheduler; the run
// constructors error otherwise.
type FaultPlan struct {
	// Seed decorrelates the fault stream from the scheduler stream.
	Seed uint64

	// Bursts are scheduled one-off corruption bursts.
	Bursts []FaultBurst
	// CorruptRate, when positive, adds a Poisson stream of corruption
	// events (expected events per n interactions), each resetting
	// CorruptAgents agents (default 1).
	CorruptRate   float64
	CorruptAgents int
	// CorruptRandom selects random occupied states as corruption
	// targets for rate-driven and convergence-adversary events (fresh
	// initial states otherwise).
	CorruptRandom bool

	// Churn are scheduled one-off churn events; ChurnRate and
	// ChurnAgents add a Poisson churn stream (default 1 agent).
	Churn       []FaultChurn
	ChurnRate   float64
	ChurnAgents int

	// Adversary selects the adversarial interaction model;
	// AdversaryRate is its Poisson rate (required for stale-replay and
	// initiator-bias) and AdversaryAgents sizes the convergence
	// adversary's strike (default 1).
	Adversary       Adversary
	AdversaryRate   float64
	AdversaryAgents int

	// CorruptSearch corrupts the search result of the stable protocol
	// variants (StableApproximate, StableCountExact), forcing their
	// error-detection → backup pipeline to engage — a demonstration and
	// testing knob for the machinery of Theorem 1.2 and Appendix F;
	// other algorithms ignore it. It is a protocol-construction switch,
	// not a scheduled fault: Enabled ignores it.
	CorruptSearch bool
}

// Enabled reports whether the plan schedules any dynamic faults
// (CorruptSearch alone does not count: it rewires the protocol, not the
// schedule).
func (p FaultPlan) Enabled() bool {
	return len(p.Bursts) > 0 || len(p.Churn) > 0 ||
		p.CorruptRate > 0 || p.ChurnRate > 0 || p.Adversary != AdversaryNone
}

// simPlan converts the plan to the engine layer's form, nil when no
// dynamic faults are scheduled.
func (p FaultPlan) simPlan() *sim.FaultPlan {
	if !p.Enabled() {
		return nil
	}
	return p.convert()
}

// convert is the unconditional plan conversion backing simPlan and
// validate.
func (p FaultPlan) convert() *sim.FaultPlan {
	sp := &sim.FaultPlan{
		Seed:            p.Seed,
		CorruptRate:     p.CorruptRate,
		CorruptAgents:   p.CorruptAgents,
		CorruptRandom:   p.CorruptRandom,
		ChurnRate:       p.ChurnRate,
		ChurnAgents:     p.ChurnAgents,
		Adversary:       sim.AdversaryKind(p.Adversary),
		AdversaryRate:   p.AdversaryRate,
		AdversaryAgents: p.AdversaryAgents,
	}
	for _, b := range p.Bursts {
		sp.Bursts = append(sp.Bursts, sim.FaultBurst{At: b.At, Agents: b.Agents, Random: b.Random})
	}
	for _, c := range p.Churn {
		sp.Churn = append(sp.Churn, sim.FaultChurn{At: c.At, Agents: c.Agents})
	}
	return sp
}

// validate checks the plan against a population of n agents, wrapping
// every failure in ErrBadFaultPlan. Plans that schedule nothing are
// still checked: a negative rate is a mistake, not an empty schedule.
func (p FaultPlan) validate(n int) error {
	if err := p.convert().Validate(n); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFaultPlan, err)
	}
	return nil
}

// WithFaults attaches a fault plan to the run (see FaultPlan). It
// replaces the whole plan, including the CorruptSearch knob.
func WithFaults(plan FaultPlan) Option {
	return func(s *settings) { s.faults = plan }
}

// String renders the plan in the canonical `key=value;…` form accepted
// by ParseFaultPlan (empty for the zero plan). The rendering is
// canonical — field order fixed, defaults omitted — so equal plans
// produce equal strings, which the service layer folds into job
// fingerprints.
func (p FaultPlan) String() string {
	var parts []string
	add := func(format string, args ...any) {
		parts = append(parts, fmt.Sprintf(format, args...))
	}
	ff := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	if p.Seed != 0 {
		add("seed=%d", p.Seed)
	}
	for _, b := range p.Bursts {
		if b.Random {
			add("burst=%d:%d:random", b.At, b.Agents)
		} else {
			add("burst=%d:%d", b.At, b.Agents)
		}
	}
	if p.CorruptRate != 0 {
		add("rate=%s", ff(p.CorruptRate))
	}
	if p.CorruptAgents != 0 {
		add("agents=%d", p.CorruptAgents)
	}
	if p.CorruptRandom {
		add("random=true")
	}
	for _, c := range p.Churn {
		add("churn=%d:%d", c.At, c.Agents)
	}
	if p.ChurnRate != 0 {
		add("churn-rate=%s", ff(p.ChurnRate))
	}
	if p.ChurnAgents != 0 {
		add("churn-agents=%d", p.ChurnAgents)
	}
	if p.Adversary != AdversaryNone {
		add("adversary=%s", p.Adversary)
	}
	if p.AdversaryRate != 0 {
		add("adv-rate=%s", ff(p.AdversaryRate))
	}
	if p.AdversaryAgents != 0 {
		add("adv-agents=%d", p.AdversaryAgents)
	}
	if p.CorruptSearch {
		add("corrupt-search=true")
	}
	return strings.Join(parts, ";")
}

// ParseFaultPlan parses the `key=value;…` fault-plan grammar:
//
//	burst=AT:AGENTS[:random]   one corruption burst (repeatable)
//	rate=R                     Poisson corruption rate per n interactions
//	agents=K                   agents per rate-driven corruption event
//	random[=BOOL]              corrupt to random occupied states
//	churn=AT:AGENTS            one churn event (repeatable)
//	churn-rate=R               Poisson churn rate per n interactions
//	churn-agents=K             agents per rate-driven churn event
//	adversary=KIND             stale-replay | initiator-bias | convergence
//	adv-rate=R                 adversary event rate per n interactions
//	adv-agents=K               convergence adversary's strike size
//	seed=S                     fault stream seed
//	corrupt-search[=BOOL]      stable-hybrid search corruption (CorruptSearch)
//
// The empty string parses to the zero plan. Structural validation
// against the population size happens at run construction, not here.
func ParseFaultPlan(spec string) (FaultPlan, error) {
	var p FaultPlan
	bad := func(format string, args ...any) (FaultPlan, error) {
		return FaultPlan{}, fmt.Errorf("%w: "+format, append([]any{ErrBadFaultPlan}, args...)...)
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		parseBool := func() (bool, error) {
			if !hasVal {
				return true, nil
			}
			return strconv.ParseBool(val)
		}
		parseF := func() (float64, error) {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
				return 0, fmt.Errorf("not a finite number: %q", val)
			}
			return f, nil
		}
		parseI := func() (int, error) { return strconv.Atoi(val) }
		var err error
		switch key {
		case "seed":
			var s uint64
			if s, err = strconv.ParseUint(val, 10, 64); err == nil {
				p.Seed = s
			}
		case "burst":
			var b FaultBurst
			if b, err = parseBurst(val); err == nil {
				p.Bursts = append(p.Bursts, b)
			}
		case "rate":
			p.CorruptRate, err = parseF()
		case "agents":
			p.CorruptAgents, err = parseI()
		case "random":
			p.CorruptRandom, err = parseBool()
		case "churn":
			var c FaultBurst
			if c, err = parseBurst(val); err == nil {
				if c.Random {
					return bad("churn events take no :random suffix (%q)", part)
				}
				p.Churn = append(p.Churn, FaultChurn{At: c.At, Agents: c.Agents})
			}
		case "churn-rate":
			p.ChurnRate, err = parseF()
		case "churn-agents":
			p.ChurnAgents, err = parseI()
		case "adversary":
			p.Adversary, err = ParseAdversary(val)
		case "adv-rate":
			p.AdversaryRate, err = parseF()
		case "adv-agents":
			p.AdversaryAgents, err = parseI()
		case "corrupt-search":
			p.CorruptSearch, err = parseBool()
		default:
			return bad("unknown key %q", key)
		}
		if err != nil {
			return bad("bad %s value %q: %v", key, val, err)
		}
	}
	return p, nil
}

// parseBurst parses the AT:AGENTS[:random] event form.
func parseBurst(val string) (FaultBurst, error) {
	fields := strings.Split(val, ":")
	if len(fields) != 2 && len(fields) != 3 {
		return FaultBurst{}, fmt.Errorf("want AT:AGENTS[:random], got %q", val)
	}
	at, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
	if err != nil {
		return FaultBurst{}, fmt.Errorf("bad interaction time %q", fields[0])
	}
	agents, err := strconv.Atoi(strings.TrimSpace(fields[1]))
	if err != nil {
		return FaultBurst{}, fmt.Errorf("bad agent count %q", fields[1])
	}
	b := FaultBurst{At: at, Agents: agents}
	if len(fields) == 3 {
		switch f := strings.TrimSpace(fields[2]); f {
		case "random":
			b.Random = true
		default:
			if b.Random, err = strconv.ParseBool(f); err != nil {
				return FaultBurst{}, fmt.Errorf("bad random flag %q", fields[2])
			}
		}
	}
	return b, nil
}
