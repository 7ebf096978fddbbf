package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"popcount"
)

// JobRequest is the wire form of a simulation job. Zero-valued
// optional fields take the library defaults, and Canonicalize rewrites
// the request into its canonical form (named defaults filled in,
// algorithm and engine names normalized) before fingerprinting, so two
// requests that mean the same run hash to the same job.
type JobRequest struct {
	// Algorithm is the protocol to run: approximate, exact,
	// stable-approximate, stable-exact, tokenbag, geometric.
	Algorithm string `json:"algorithm"`
	// N is the population size.
	N int `json:"n"`
	// Trials is the number of independent trials (default 1). A
	// single-trial job is checkpointed and survives daemon restarts;
	// multi-trial jobs restart from scratch.
	Trials int `json:"trials,omitempty"`
	// Seed is the base scheduler seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Engine selects the simulation engine: agent, count,
	// count-batched, auto (default agent).
	Engine string `json:"engine,omitempty"`
	// Scheduler restricts interactions to an interaction graph, in
	// popcount.ParseSchedulerSpec syntax: "" or "uniform" (the
	// default), "ring", "torus", "kron:<k>[:<seed>[:<a>,<b>,<c>,<d>]]".
	// Canonicalization drops the uniform default and normalizes graph
	// specs, so an explicit "uniform" hashes like an absent field.
	Scheduler string `json:"scheduler,omitempty"`

	MaxInteractions int64 `json:"max_interactions,omitempty"`
	CheckEvery      int64 `json:"check_every,omitempty"`
	ConfirmWindow   int64 `json:"confirm_window,omitempty"`
	ClockM          int   `json:"clock_m,omitempty"`
	FastRounds      int   `json:"fast_rounds,omitempty"`
	Shift           int   `json:"shift,omitempty"`
	BatchRounds     int   `json:"batch_rounds,omitempty"`
	// Shards shards each batch epoch across that many deterministic
	// work streams (popcount.WithIntraRunParallelism; count-batched
	// engine only). Values ≤ 1 keep the serial planner and hash like an
	// absent field; values above sim.MaxShards (256) are rejected.
	Shards         int  `json:"shards,omitempty"`
	FaultInjection bool `json:"fault_injection,omitempty"`
	// Faults attaches a deterministic fault plan (popcount.WithFaults)
	// to the run. A plan that schedules nothing is dropped during
	// canonicalization, so it cannot split the cache.
	Faults *FaultPlanRequest `json:"faults,omitempty"`
}

// FaultEventRequest is the wire form of one scheduled fault event —
// a corruption burst (Random selects random occupied target states)
// or a churn event (no Random).
type FaultEventRequest struct {
	At     int64 `json:"at"`
	Agents int   `json:"agents"`
	Random bool  `json:"random,omitempty"`
}

// FaultPlanRequest is the wire form of a popcount.FaultPlan. Rates
// are expected events per n interactions; the adversary is named by
// its canonical string (stale-replay, initiator-bias, convergence).
type FaultPlanRequest struct {
	Seed            uint64              `json:"seed,omitempty"`
	Bursts          []FaultEventRequest `json:"bursts,omitempty"`
	CorruptRate     float64             `json:"corrupt_rate,omitempty"`
	CorruptAgents   int                 `json:"corrupt_agents,omitempty"`
	CorruptRandom   bool                `json:"corrupt_random,omitempty"`
	Churn           []FaultEventRequest `json:"churn,omitempty"`
	ChurnRate       float64             `json:"churn_rate,omitempty"`
	ChurnAgents     int                 `json:"churn_agents,omitempty"`
	Adversary       string              `json:"adversary,omitempty"`
	AdversaryRate   float64             `json:"adversary_rate,omitempty"`
	AdversaryAgents int                 `json:"adversary_agents,omitempty"`
}

// FaultRequestFromPlan converts a popcount.FaultPlan to its wire
// form, nil when the plan schedules nothing. The CorruptSearch knob
// is not part of the plan request — callers map it to the request's
// FaultInjection field.
func FaultRequestFromPlan(p popcount.FaultPlan) *FaultPlanRequest {
	if !p.Enabled() {
		return nil
	}
	f := &FaultPlanRequest{
		Seed:            p.Seed,
		CorruptRate:     p.CorruptRate,
		CorruptAgents:   p.CorruptAgents,
		CorruptRandom:   p.CorruptRandom,
		ChurnRate:       p.ChurnRate,
		ChurnAgents:     p.ChurnAgents,
		AdversaryRate:   p.AdversaryRate,
		AdversaryAgents: p.AdversaryAgents,
	}
	for _, b := range p.Bursts {
		f.Bursts = append(f.Bursts, FaultEventRequest{At: b.At, Agents: b.Agents, Random: b.Random})
	}
	for _, c := range p.Churn {
		f.Churn = append(f.Churn, FaultEventRequest{At: c.At, Agents: c.Agents})
	}
	if p.Adversary != popcount.AdversaryNone {
		f.Adversary = p.Adversary.String()
	}
	return f
}

// Plan converts the wire form to a popcount.FaultPlan. A nil request
// yields the zero plan. Errors wrap popcount.ErrBadFaultPlan.
func (f *FaultPlanRequest) Plan() (popcount.FaultPlan, error) {
	var p popcount.FaultPlan
	if f == nil {
		return p, nil
	}
	p.Seed = f.Seed
	for _, b := range f.Bursts {
		p.Bursts = append(p.Bursts, popcount.FaultBurst{At: b.At, Agents: b.Agents, Random: b.Random})
	}
	p.CorruptRate, p.CorruptAgents, p.CorruptRandom = f.CorruptRate, f.CorruptAgents, f.CorruptRandom
	for _, c := range f.Churn {
		if c.Random {
			return p, fmt.Errorf("%w: churn events take no random flag", popcount.ErrBadFaultPlan)
		}
		p.Churn = append(p.Churn, popcount.FaultChurn{At: c.At, Agents: c.Agents})
	}
	p.ChurnRate, p.ChurnAgents = f.ChurnRate, f.ChurnAgents
	if f.Adversary != "" {
		a, err := popcount.ParseAdversary(f.Adversary)
		if err != nil {
			return p, err
		}
		p.Adversary = a
	}
	p.AdversaryRate, p.AdversaryAgents = f.AdversaryRate, f.AdversaryAgents
	return p, nil
}

// Canonicalize validates the request and rewrites it into canonical
// form. The returned error wraps the popcount sentinels
// (ErrUnknownAlgorithm, ErrUnsupportedEngine, ErrInvalidN), which the
// HTTP layer maps to 400s.
func (r JobRequest) Canonicalize() (JobRequest, error) {
	alg, err := popcount.ParseAlgorithm(strings.ToLower(strings.TrimSpace(r.Algorithm)))
	if err != nil {
		return r, err
	}
	r.Algorithm = alg.String()
	if r.Engine == "" {
		r.Engine = "agent"
	}
	engine, err := popcount.ParseEngineKind(strings.ToLower(strings.TrimSpace(r.Engine)))
	if err != nil {
		return r, err
	}
	r.Engine = engine.String()
	_, schedCanon, err := popcount.ParseSchedulerSpec(strings.ToLower(strings.TrimSpace(r.Scheduler)))
	if err != nil {
		return r, err
	}
	r.Scheduler = schedCanon
	if r.Trials == 0 {
		r.Trials = 1
	}
	if r.Trials < 0 {
		return r, fmt.Errorf("%w: non-positive trial count %d", popcount.ErrInvalidN, r.Trials)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Shards < 0 {
		return r, fmt.Errorf("%w: negative shard count %d", popcount.ErrInvalidN, r.Shards)
	}
	if r.Shards == 1 {
		// One shard is the serial planner — canonicalize to the absent
		// field so the request hashes like a plain one.
		r.Shards = 0
	}
	var noopFaults bool
	if r.Faults != nil {
		plan, err := r.Faults.Plan()
		if err != nil {
			return r, err
		}
		noopFaults = !plan.Enabled()
		if plan.Adversary == popcount.AdversaryNone {
			r.Faults.Adversary = ""
		} else {
			r.Faults.Adversary = plan.Adversary.String()
		}
	}
	if err := popcount.Validate(alg, r.N, r.Options()...); err != nil {
		return r, err
	}
	if noopFaults {
		// A well-formed plan that schedules nothing means no faults:
		// drop it so the request hashes like a plain one.
		r.Faults = nil
	}
	return r, nil
}

// Alg returns the parsed algorithm of a canonicalized request.
func (r JobRequest) Alg() popcount.Algorithm {
	alg, _ := popcount.ParseAlgorithm(r.Algorithm)
	return alg
}

// Options translates a canonicalized request into popcount options
// (dynamics only — observers and interrupts are the worker's).
func (r JobRequest) Options() []popcount.Option {
	engine, _ := popcount.ParseEngineKind(r.Engine)
	opts := []popcount.Option{
		popcount.WithSeed(r.Seed),
		popcount.WithEngine(engine),
	}
	if r.MaxInteractions > 0 {
		opts = append(opts, popcount.WithMaxInteractions(r.MaxInteractions))
	}
	if r.CheckEvery > 0 {
		opts = append(opts, popcount.WithCheckEvery(r.CheckEvery))
	}
	if r.ConfirmWindow > 0 {
		opts = append(opts, popcount.WithConfirmWindow(r.ConfirmWindow))
	}
	if r.ClockM > 0 {
		opts = append(opts, popcount.WithClockM(r.ClockM))
	}
	if r.FastRounds > 0 {
		opts = append(opts, popcount.WithFastRounds(r.FastRounds))
	}
	if r.Shift > 0 {
		opts = append(opts, popcount.WithShift(r.Shift))
	}
	if r.BatchRounds > 0 {
		opts = append(opts, popcount.WithBatchRounds(r.BatchRounds))
	}
	if r.Shards > 1 {
		opts = append(opts, popcount.WithIntraRunParallelism(r.Shards))
	}
	if r.Scheduler != "" {
		// Canonicalized requests carry only parseable scheduler specs.
		mkSched, _, _ := popcount.ParseSchedulerSpec(r.Scheduler)
		opts = append(opts, popcount.WithScheduler(mkSched))
	}
	if r.Faults != nil || r.FaultInjection {
		// Canonicalized requests carry only parseable plans. The
		// fault_injection field is the plan's CorruptSearch knob.
		plan, _ := r.Faults.Plan()
		plan.CorruptSearch = r.FaultInjection
		opts = append(opts, popcount.WithFaults(plan))
	}
	return opts
}

// Fingerprint returns the content address of a canonicalized request:
// the hex SHA-256 of its canonical field serialization. Identical
// requests — and only identical requests — share a fingerprint, which
// doubles as the job ID and the result-cache key.
func (r JobRequest) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h,
		"popcountd-job-v1|alg=%s|n=%d|trials=%d|seed=%d|engine=%s|max=%d|check=%d|confirm=%d|clockm=%d|fastrounds=%d|shift=%d|batchrounds=%d|fault=%t",
		r.Algorithm, r.N, r.Trials, r.Seed, r.Engine,
		r.MaxInteractions, r.CheckEvery, r.ConfirmWindow,
		r.ClockM, r.FastRounds, r.Shift, r.BatchRounds, r.FaultInjection)
	if r.Faults != nil {
		// The plan's canonical text form keys the cache; fault-free
		// requests keep their pre-fault-plane hashes.
		plan, _ := r.Faults.Plan()
		fmt.Fprintf(h, "|faults=%s", plan.String())
	}
	if r.Shards > 1 {
		// Sharding changes the random-stream layout, so the shard count
		// keys the cache; serial requests keep their pre-sharding hashes.
		fmt.Fprintf(h, "|shards=%d", r.Shards)
	}
	if r.Scheduler != "" {
		// The canonical scheduler spec keys the cache; uniform requests
		// keep their pre-graph-scheduler hashes.
		fmt.Fprintf(h, "|sched=%s", r.Scheduler)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// JobState is a job's lifecycle state.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Event is one entry of a job's event log, streamed as NDJSON from
// GET /v1/jobs/{id}/events. Events carry no wall-clock timestamps:
// the log of a deterministic job is itself deterministic.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // queued | running | progress | checkpoint | resumed | done | failed | cancelled
	// Interactions is the interaction clock at emission (progress,
	// checkpoint and resumed events).
	Interactions int64 `json:"interactions,omitempty"`
	// Trial is the trial index for ensemble progress events.
	Trial int `json:"trial,omitempty"`
	// Message carries failure detail and cache annotations.
	Message string `json:"message,omitempty"`
}

// Job is one submitted simulation. All mutable fields are guarded by
// mu; the identity fields (ID, Req) are immutable after creation.
type Job struct {
	ID  string
	Req JobRequest

	mu     sync.Mutex
	state  JobState
	errMsg string
	cached bool // result served from the content-addressed cache
	events []Event
	change chan struct{} // closed and replaced on every event append
	cancel func()        // non-nil while running; cancels the job's context
}

func newJob(id string, req JobRequest) *Job {
	j := &Job{ID: id, Req: req, state: JobQueued, change: make(chan struct{})}
	j.appendEventLocked(Event{Type: string(JobQueued)})
	return j
}

// appendEventLocked appends e (stamping its Seq) and wakes streamers.
// Callers hold j.mu (or the job is not yet shared).
func (j *Job) appendEventLocked(e Event) {
	e.Seq = len(j.events)
	j.events = append(j.events, e)
	close(j.change)
	j.change = make(chan struct{})
}

// emit appends an event to the job's log.
func (j *Job) emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(e)
}

// setState transitions the job and logs the transition event. msg is
// attached to the event (and recorded as the job error for JobFailed).
func (j *Job) setState(s JobState, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	if s == JobFailed {
		j.errMsg = msg
	}
	j.appendEventLocked(Event{Type: string(s), Message: msg})
}

// Snapshot returns the job's current status fields.
func (j *Job) Snapshot() (state JobState, errMsg string, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.cached
}

// eventsSince returns the events at or after seq, a channel that is
// closed when more arrive, and whether the job has reached a terminal
// state.
func (j *Job) eventsSince(seq int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if seq < len(j.events) {
		evs = append(evs, j.events[seq:]...)
	}
	return evs, j.change, j.state.Terminal()
}

// setCancel installs the running job's cancel hook.
func (j *Job) setCancel(fn func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = fn
}

// Cancel requests cancellation of a queued or running job.
func (j *Job) Cancel() {
	j.mu.Lock()
	fn := j.cancel
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		return
	}
	if fn != nil {
		fn()
		return
	}
	// Still queued: mark cancelled directly; the worker skips it.
	j.setState(JobCancelled, "cancelled before start")
}
