package popcount

import "errors"

// Typed sentinel errors. Every validation failure of the public
// constructors and run functions wraps one of these, so callers — the
// popcountd service in particular — can map client mistakes to the
// right failure class with errors.Is instead of matching message text
// (bad requests become HTTP 400s, not 500s).
var (
	// ErrInvalidN marks a population size below 2 (or otherwise outside
	// the chosen engine's range), and likewise an out-of-range trial or
	// shard count: negative, or more shards than sim.MaxShards.
	ErrInvalidN = errors.New("popcount: invalid population size")

	// ErrUnknownAlgorithm marks an algorithm value or name the library
	// does not provide.
	ErrUnknownAlgorithm = errors.New("popcount: unknown algorithm")

	// ErrUnsupportedEngine marks an engine × scheduler × option
	// combination that cannot run: a count engine or a fault plan under
	// a non-uniform scheduler, intra-run sharding off the batched count
	// engine, or an engine kind the library does not provide. The
	// wrapped message carries the remediation hint.
	ErrUnsupportedEngine = errors.New("popcount: unsupported engine for this configuration")

	// ErrNotSnapshottable marks a simulation whose state has no
	// serialized form: the internal state of a scheduler other than the
	// uniform default and the graph schedulers.
	ErrNotSnapshottable = errors.New("popcount: simulation cannot be snapshotted")

	// ErrBadSnapshot marks a snapshot blob that is malformed, of an
	// unknown version, or inconsistent with the simulation it is being
	// restored into.
	ErrBadSnapshot = errors.New("popcount: invalid snapshot")

	// ErrBadFaultPlan marks a fault plan that is structurally invalid
	// (bad event bounds or rates, unknown adversary) or a fault-plan
	// text form ParseFaultPlan cannot parse.
	ErrBadFaultPlan = errors.New("popcount: invalid fault plan")

	// ErrBadScheduler marks a scheduler whose parameters are invalid for
	// the simulated population — a BiasedPairs hot index outside [0, n),
	// a torus over a prime population, a Kronecker graph with fewer
	// vertices than agents — or a scheduler text form ParseSchedulerSpec
	// cannot parse.
	ErrBadScheduler = errors.New("popcount: invalid scheduler")
)
