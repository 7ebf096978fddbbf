// Command popsim runs one of the population-size counting protocols on a
// simulated population and reports the outcome.
//
// Usage:
//
//	popsim -alg exact -n 10000 -seed 7
//	popsim -alg approximate -n 100000 -progress
//	popsim -alg stable-exact -n 2000 -confirm 100000
//	popsim -alg exact -n 4096 -trials 32 -par 8
//	popsim -alg approximate -n 4096 -sched matching
//	popsim -alg approximate -n 4096 -sched ring
//	popsim -alg exact -n 4096 -sched kron:12
//	popsim -alg geometric -n 100000000 -engine count
//	popsim -alg geometric -n 100000000 -engine count-batched
//	popsim -alg approximate -n 100000000 -engine count-batched
//	popsim -alg approximate -n 4096 -faults 'burst=8000:256;churn=20000:128'
//	popsim -alg stable-exact -n 2048 -faults 'adversary=convergence;adv-agents=512'
//
// Algorithms: approximate, exact, stable-approximate, stable-exact,
// tokenbag, geometric. Schedulers: uniform, biased, matching, and the
// interaction-graph schedulers ring, torus and kron:<k>[:<seed>]
// (stochastic-Kronecker random graph of depth k).
// Engines: agent (default), count, count-batched, auto — the count
// engine simulates the configuration (per-state agent counts) directly;
// count-batched additionally steps the configuration in multinomial
// epochs (drift-bounded τ-leaping, distributionally faithful but not
// exact). Every algorithm has a count form: the building blocks reach
// n ≥ 10⁹, and the composed counting protocols themselves (approximate,
// exact and the stable variants) run on the count engines through their
// interned transition specs — protocol Approximate converges at
// n = 10⁸ on count-batched in minutes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"popcount"
	"popcount/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "popsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("popsim", flag.ContinueOnError)
	var (
		algName  = fs.String("alg", "exact", "algorithm: approximate | exact | stable-approximate | stable-exact | tokenbag | geometric")
		n        = fs.Int("n", 1000, "population size")
		seed     = fs.Uint64("seed", 1, "scheduler seed (runs are reproducible)")
		maxI     = fs.Int64("max", 0, "interaction cap (0 = engine default)")
		progress = fs.Bool("progress", false, "print progress snapshots while running")
		schedN   = fs.String("sched", "uniform", "scheduler: uniform | biased | matching | ring | torus | kron:<k>[:<seed>[:<a>,<b>,<c>,<d>]]")
		bias     = fs.Float64("bias", 0.2, "initiator bias of agent 0 under -sched biased")
		confirm  = fs.Int64("confirm", 0, "confirmation window in interactions (0 = none); reports stabilization")
		trials   = fs.Int("trials", 1, "independent trials; >1 runs an ensemble and prints aggregate statistics")
		par      = fs.Int("par", 0, "parallel trials for ensembles (0 = one per CPU)")
		engineN  = fs.String("engine", "agent", "simulation engine: agent | count | count-batched | auto (count simulates the configuration directly, enabling n >= 1e8 for supported algorithms; count-batched steps it in drift-bounded multinomial epochs for o(1) amortized cost per interaction — approximate, see DESIGN.md)")
		batchR   = fs.Int("batch-rounds", 0, "count-batched: cap one batch epoch at this many rounds of n interactions (0 = engine default)")
		shards   = fs.Int("shards", 0, "count-batched: shard each batch epoch across this many independent RNG streams, planned concurrently (0 or 1 = serial, bit-compatible with older runs; results depend on the shard count but never on GOMAXPROCS)")
		faultsN  = fs.String("faults", "", "fault plan in key=value;… form, e.g. 'burst=2000:32;churn=4000:16;adversary=convergence;adv-agents=64' (see popcount.ParseFaultPlan)")
		jsonOut  = fs.Bool("json", false, "print the popcountd result document (byte-identical to GET /v1/jobs/{id}/result for the same request) instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	plan, err := popcount.ParseFaultPlan(*faultsN)
	if err != nil {
		return err
	}
	if *jsonOut {
		// The JSON path goes through the same request canonicalization,
		// run options and document encoder as popcountd, so the printed
		// bytes match what the service stores for this request. Only
		// request-expressible runs qualify: the JobRequest schema carries
		// the uniform and graph schedulers (ring, torus, kron) but not
		// biased or matching, and progress text would corrupt the
		// document.
		switch *schedN {
		case "biased", "matching":
			return fmt.Errorf("-json supports only the uniform and graph schedulers (the popcountd job schema has no %s form)", *schedN)
		}
		if *progress {
			return fmt.Errorf("-json and -progress are mutually exclusive")
		}
		return runJSON(service.JobRequest{
			Algorithm:       *algName,
			N:               *n,
			Trials:          *trials,
			Seed:            *seed,
			Engine:          *engineN,
			Scheduler:       *schedN,
			MaxInteractions: *maxI,
			ConfirmWindow:   *confirm,
			BatchRounds:     *batchR,
			Shards:          *shards,
			FaultInjection:  plan.CorruptSearch,
			Faults:          service.FaultRequestFromPlan(plan),
		}, *par)
	}
	alg, err := popcount.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	engine, err := popcount.ParseEngineKind(*engineN)
	if err != nil {
		return err
	}

	opts := []popcount.Option{
		popcount.WithSeed(*seed),
		popcount.WithMaxInteractions(*maxI),
		popcount.WithConfirmWindow(*confirm),
		popcount.WithParallelism(*par),
		popcount.WithEngine(engine),
	}
	if *batchR > 0 {
		opts = append(opts, popcount.WithBatchRounds(*batchR))
	}
	if *shards != 0 {
		// Pass 1 (and invalid negatives) through so the library's
		// validation owns the semantics; only 0 means "flag unset".
		opts = append(opts, popcount.WithIntraRunParallelism(*shards))
	}
	if *faultsN != "" {
		opts = append(opts, popcount.WithFaults(plan))
	}
	switch *schedN {
	case "uniform":
		// Engine default.
	case "biased":
		b := *bias
		if b < 0 || b >= 1 {
			return fmt.Errorf("-bias %v out of range [0, 1)", b)
		}
		opts = append(opts, popcount.WithScheduler(func() popcount.Scheduler {
			return popcount.BiasedPairs(0, b)
		}))
	case "matching":
		opts = append(opts, popcount.WithScheduler(popcount.RandomMatching))
	default:
		// Graph schedulers (ring, torus, kron:<k>…) parse from the same
		// canonical spec grammar the job schema and snapshots use.
		mkSched, _, err := popcount.ParseSchedulerSpec(*schedN)
		if err != nil {
			return err
		}
		opts = append(opts, popcount.WithScheduler(mkSched))
	}
	if *progress {
		opts = append(opts,
			popcount.WithObserveEvery(int64(*n)*10),
			popcount.WithObserver(func(s popcount.Snapshot) {
				if *trials > 1 {
					fmt.Printf("trial=%3d  t=%12d  agent0 output=%d\n", s.Trial, s.Interactions, s.Output)
					return
				}
				fmt.Printf("t=%12d  agent0 output=%d\n", s.Interactions, s.Output)
			}))
	}

	if *trials > 1 {
		return runEnsemble(alg, *n, *trials, *confirm, opts)
	}

	s, err := popcount.NewSimulation(alg, *n, opts...)
	if err != nil {
		return err
	}
	res, err := s.RunToConvergence()
	if err != nil {
		return err
	}
	fmt.Printf("algorithm:    %s\n", alg)
	fmt.Printf("population:   %d agents\n", *n)
	fmt.Printf("scheduler:    %s\n", *schedN)
	fmt.Printf("engine:       %s\n", s.Engine())
	fmt.Printf("converged:    %v\n", res.Converged)
	fmt.Printf("interactions: %d\n", res.Interactions)
	if *confirm > 0 {
		fmt.Printf("total:        %d (confirmation window %d)\n", res.Total, *confirm)
		fmt.Printf("stable:       %v\n", res.Stable)
	}
	fmt.Printf("output:       %d\n", res.Output)
	fmt.Printf("estimate:     %d agents\n", res.Estimate)
	// The count engines carry deterministic run counters (equal seeds
	// reproduce them exactly on any machine; cmd/benchdiff gates CI on
	// the same quantities).
	if st := s.Stats(); s.Engine() != popcount.EngineAgent {
		fmt.Printf("delta calls:  %d\n", st.DeltaCalls)
		if s.Engine() == popcount.EngineCountBatched {
			fmt.Printf("epochs:       %d (safety-net violations %d, half-epochs reused %d, re-planned %d)\n",
				st.Epochs, st.Violations, st.HalfReuses, st.HalfDiscards)
		}
		if st.ShardEpochs > 0 {
			fmt.Printf("sharded:      %d epochs, %d blocks (merge conflicts %d, steal events %d)\n",
				st.ShardEpochs, st.ShardBlocks, st.MergeConflicts, st.StealEvents)
		}
	}
	if plan.Enabled() {
		st := s.Stats()
		fmt.Printf("faults:       %d events (%d corrupted, %d churned, %d forced interactions)\n",
			st.FaultEvents, st.Corrupted, st.Churned, st.ForcedInteractions)
		if st.Reconvergences > 0 {
			fmt.Printf("recovery:     %d reconvergences, %d interactions total (max %d)\n",
				st.Reconvergences, st.ReconvergeTotal, st.ReconvergeMax)
		}
		if st.ErrorLatency >= 0 {
			fmt.Printf("error flag:   raised %d interactions after first corruption\n", st.ErrorLatency)
		}
	}
	if !res.Converged {
		return fmt.Errorf("no convergence within the interaction cap")
	}
	return nil
}

// runJSON runs the request exactly as popcountd would and prints the
// service's result document.
func runJSON(req service.JobRequest, par int) error {
	req, err := req.Canonicalize()
	if err != nil {
		return err
	}
	var doc service.ResultDoc
	if req.Trials == 1 {
		s, err := popcount.NewSimulation(req.Alg(), req.N, req.Options()...)
		if err != nil {
			return err
		}
		res, err := s.RunToConvergence()
		if err != nil {
			return err
		}
		doc = service.SingleDoc(req, res)
	} else {
		opts := append(req.Options(), popcount.WithParallelism(par))
		ens, err := popcount.RunEnsemble(context.Background(), req.Alg(), req.N, req.Trials, opts...)
		if err != nil {
			return err
		}
		doc = service.EnsembleDoc(req, ens)
	}
	data, err := service.MarshalDoc(doc)
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	for _, tr := range doc.Trials {
		if !tr.Converged {
			return fmt.Errorf("trials missed convergence within the interaction cap")
		}
	}
	return nil
}

// runEnsemble runs the multi-trial path and prints per-run aggregates.
func runEnsemble(alg popcount.Algorithm, n, trials int, confirm int64, opts []popcount.Option) error {
	ens, err := popcount.RunEnsemble(context.Background(), alg, n, trials, opts...)
	if err != nil {
		return err
	}
	st := ens.Stats
	fmt.Printf("algorithm:    %s\n", alg)
	fmt.Printf("population:   %d agents\n", n)
	fmt.Printf("trials:       %d\n", st.Trials)
	fmt.Printf("converged:    %d/%d (%.0f%%)\n", st.Converged, st.Trials, 100*st.ConvergenceRate)
	if confirm > 0 {
		fmt.Printf("stable:       %d/%d (%.0f%%)\n", st.Stable, st.Trials, 100*st.StableRate)
	}
	fmt.Printf("interactions: mean %.0f  median %.0f  p10 %.0f  p90 %.0f\n",
		st.Interactions.Mean, st.Interactions.Median, st.Interactions.P10, st.Interactions.P90)
	fmt.Printf("estimate:     mean %.1f  median %.1f\n", st.Estimates.Mean, st.Estimates.Median)
	if st.Converged < st.Trials {
		return fmt.Errorf("%d trials missed convergence within the interaction cap", st.Trials-st.Converged)
	}
	return nil
}
