package service

import (
	"context"
	"fmt"

	"popcount"
)

// Abort stops the worker pool immediately, skipping the graceful
// drain's final checkpoint and state persistence — on-disk state is
// left exactly as a SIGKILL would leave it (job records still say
// "running", the last periodic checkpoint in place). Tests use it to
// exercise the crash-recovery path in process.
func (s *Server) Abort() {
	s.abortOne.Do(func() { close(s.aborted) })
	s.wg.Wait()
}

func (s *Server) abortRequested() bool {
	select {
	case <-s.aborted:
		return true
	default:
		return false
	}
}

// worker is one pool goroutine: it claims queued jobs until drain or
// abort.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.draining:
			return
		case <-s.aborted:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runOutcome says how a job run ended.
type runOutcome int

const (
	outDone runOutcome = iota
	outFailed
	outCancelled
	outRequeue // drain: persisted as queued for the next process
	outAbandon // abort: touch nothing, the "process" is dead
)

// runJob executes one job end to end: state transitions, result
// storage, checkpointing, metrics.
func (s *Server) runJob(j *Job) {
	if state, _, _ := j.Snapshot(); state != JobQueued {
		return // cancelled while queued
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.setCancel(cancel)
	defer j.setCancel(nil)
	j.setState(JobRunning, "")
	s.persist(j)

	doc, outcome, failMsg := s.dispatch(ctx, j)

	switch outcome {
	case outDone:
		data, err := MarshalDoc(doc)
		if err != nil {
			outcome, failMsg = outFailed, "encoding result: "+err.Error()
			break
		}
		if err := s.st.saveResult(j.ID, data); err != nil {
			outcome, failMsg = outFailed, "storing result: "+err.Error()
			break
		}
		s.st.removeCheckpoint(j.ID)
		j.setState(JobDone, "")
		s.persist(j)
		s.met.jobsFinished.Add(1)
	case outCancelled:
		s.st.removeCheckpoint(j.ID)
		j.setState(JobCancelled, "cancelled")
		s.persist(j)
		s.met.jobsFinished.Add(1)
	case outRequeue:
		// Graceful drain: back to queued on disk; the next process's
		// recovery requeues it (and resumes from the checkpoint, if one
		// was written).
		j.mu.Lock()
		j.state = JobQueued
		j.mu.Unlock()
		s.persist(j)
	case outAbandon:
		// Abort: leave memory and disk exactly as they are.
	}
	if outcome == outFailed {
		j.setState(JobFailed, failMsg)
		s.persist(j)
		s.met.jobsFinished.Add(1)
	}
}

// dispatch runs the job body behind a panic guard: a panicking
// protocol or engine fails that one job — recording the panic message
// in its job record and result error — instead of killing the worker
// goroutine and, with it, a share of the daemon's capacity.
func (s *Server) dispatch(ctx context.Context, j *Job) (doc ResultDoc, outcome runOutcome, failMsg string) {
	defer func() {
		if r := recover(); r != nil {
			s.met.workerPanics.Add(1)
			doc, outcome = ResultDoc{}, outFailed
			failMsg = fmt.Sprintf("worker panic: %v", r)
		}
	}()
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	if j.Req.Trials == 1 {
		return s.runSingle(ctx, j)
	}
	return s.runEnsembleJob(ctx, j)
}

// progressObserver builds the observer emitting throttled progress
// events (j.emit serializes concurrent ensemble trials internally).
func progressObserver(j *Job) popcount.Option {
	return popcount.WithObserver(func(snap popcount.Snapshot) {
		j.emit(Event{
			Type:         "progress",
			Trial:        snap.Trial,
			Interactions: snap.Interactions,
		})
	})
}

// progressInterval throttles progress events: frequent enough to keep
// streams lively, sparse enough to bound the event log.
func progressInterval(n int, cpEvery int64) int64 {
	iv := int64(n) * 8
	if cpEvery/2 > iv {
		iv = cpEvery / 2
	}
	return iv
}

// runSingle executes a single-trial job with periodic checkpointing.
//
// The loop leans on three engine properties: Interrupt stops a run at
// a convergence-poll boundary; RunToConvergence resumes from wherever
// the engine stands; Snapshot/Restore reproduce the engine bit for
// bit. Together they make checkpoints invisible to the trajectory —
// an interrupted-and-resumed job steps the exact interaction sequence
// of an uninterrupted one, so its result document is byte-identical.
func (s *Server) runSingle(ctx context.Context, j *Job) (ResultDoc, runOutcome, string) {
	req := j.Req
	alg := req.Alg()

	var simu *popcount.Simulation
	var lastCp int64
	snapshottable := true
	interrupt := func() bool {
		if ctx.Err() != nil || s.drainRequested() || s.abortRequested() {
			return true
		}
		return snapshottable && simu != nil && simu.Interactions()-lastCp >= s.cpEvery
	}
	runOpts := append(req.Options(),
		popcount.WithInterrupt(interrupt),
		popcount.WithObserveEvery(progressInterval(req.N, s.cpEvery)),
		progressObserver(j),
	)

	if blob := s.st.readCheckpoint(j.ID); blob != nil {
		if restored, err := popcount.RestoreSimulation(blob, runOpts...); err == nil {
			simu = restored
			lastCp = restored.Interactions()
			s.met.resumes.Add(1)
			j.emit(Event{Type: "resumed", Interactions: lastCp})
		} else {
			// A checkpoint that no longer restores (version skew,
			// corruption, truncation) falls back to a fresh run — losing
			// progress, not the job.
			s.met.checkpointRestoreFailures.Add(1)
			j.emit(Event{Type: "progress", Message: "checkpoint unusable, restarting: " + err.Error()})
		}
	}
	if simu == nil {
		fresh, err := popcount.NewSimulation(alg, req.N, runOpts...)
		if err != nil {
			return ResultDoc{}, outFailed, err.Error()
		}
		simu = fresh
	}

	startT := simu.Interactions()
	startStats := simu.Stats()
	defer func() {
		s.met.countInteractions(simu.Engine(), simu.Interactions()-startT)
		s.met.countShardStats(startStats, simu.Stats())
	}()

	for {
		res, err := simu.RunToConvergence()
		if err != nil {
			return ResultDoc{}, outFailed, err.Error()
		}
		if !res.Interrupted {
			return SingleDoc(req, res), outDone, ""
		}
		if s.abortRequested() {
			return ResultDoc{}, outAbandon, ""
		}
		if ctx.Err() != nil {
			j.emit(Event{Type: "progress", Interactions: simu.Interactions(), Message: "cancelled mid-run"})
			return ResultDoc{}, outCancelled, ""
		}
		draining := s.drainRequested()
		if snapshottable {
			blob, err := simu.Snapshot()
			if err != nil {
				// Not snapshottable after all (a scheduler with no
				// serialized form): run on without checkpoints.
				snapshottable = false
				j.emit(Event{Type: "progress", Message: "checkpointing disabled: " + err.Error()})
			} else if err := s.st.saveCheckpoint(j.ID, blob); err != nil {
				j.emit(Event{Type: "progress", Message: "warning: checkpoint write failed: " + err.Error()})
			} else {
				s.met.checkpoints.Add(1)
				j.emit(Event{Type: "checkpoint", Interactions: simu.Interactions()})
			}
		}
		lastCp = simu.Interactions()
		if draining {
			return ResultDoc{}, outRequeue, ""
		}
	}
}

// runEnsembleJob executes a multi-trial job via RunEnsemble. Ensembles
// are not checkpointed: a drain or crash reruns them from scratch.
func (s *Server) runEnsembleJob(ctx context.Context, j *Job) (ResultDoc, runOutcome, string) {
	req := j.Req
	opts := append(req.Options(),
		popcount.WithInterrupt(func() bool { return s.drainRequested() || s.abortRequested() }),
		popcount.WithObserveEvery(progressInterval(req.N, s.cpEvery)),
		progressObserver(j),
	)
	ens, err := popcount.RunEnsemble(ctx, req.Alg(), req.N, req.Trials, opts...)
	var total int64
	for _, tr := range ens.Trials {
		total += tr.Total
	}
	if kind, kerr := popcount.ParseEngineKind(req.Engine); kerr == nil {
		s.met.countInteractions(kind, total)
	}
	switch {
	case s.abortRequested():
		return ResultDoc{}, outAbandon, ""
	case err != nil && ctx.Err() != nil:
		done := 0
		for _, tr := range ens.Trials {
			if !tr.Interrupted {
				done++
			}
		}
		j.emit(Event{Type: "progress",
			Message: fmt.Sprintf("cancelled mid-ensemble: %d/%d trials completed", done, len(ens.Trials))})
		return ResultDoc{}, outCancelled, ""
	case err != nil:
		return ResultDoc{}, outFailed, err.Error()
	case s.drainRequested():
		return ResultDoc{}, outRequeue, ""
	}
	return EnsembleDoc(req, ens), outDone, ""
}
