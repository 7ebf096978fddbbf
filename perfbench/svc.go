package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"popcount"
	"popcount/internal/service"
)

// serviceCheckpointEvery pins popcountd's checkpoint cadence for
// service-mix. At the 4 Mi default only some n = 2¹¹ jobs checkpoint at
// all, which makes job times bimodal; at 2²⁰ every job writes a few.
const serviceCheckpointEvery = 1 << 20

// svcWorkload drives popcountd in process: service.New with its real
// Handler on a loopback listener, and clients that each submit a cold
// single-trial CountExact job on the exact count engine, follow its
// event stream to done, fetch and verify the result document, then
// make cache-served requests for jobs that already finished.
type svcWorkload struct {
	n, tinyN   int
	clients    int
	hitsPerJob int
	// prefix is the number of leading jobs every run completes; the
	// work fingerprint covers exactly them.
	prefix int
	// setups is the number of daemon starts timed for setup_s.
	setups int
	// replays is the number of leading jobs the traced run replays
	// through popcount with the daemon's checkpoint loop.
	replays int
}

var serviceMix = svcWorkload{n: 1 << 11, tinyN: 64, clients: 2, hitsPerJob: 4, prefix: 4, setups: 63, replays: 2}

func (w svcWorkload) size(cfg runConfig) int {
	if cfg.tiny {
		return w.tinyN
	}
	return w.n
}

// daemon is one in-process popcountd.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startDaemon starts a daemon on a fresh state directory and returns
// it with its set-up time: from service.New until /healthz answers.
func startDaemon(dir string, client *http.Client) (*daemon, time.Duration, error) {
	t0 := time.Now()
	srv, err := service.New(service.Config{Dir: dir, Workers: 2, CheckpointEvery: serviceCheckpointEvery})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, 0, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		d.hs.Serve(ln)
		close(d.done)
	}()
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.close()
			return nil, 0, fmt.Errorf("daemon never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops serving and drains the worker pool.
func (d *daemon) close() {
	d.hs.Close()
	<-d.done
	d.srv.Shutdown()
}

// jobRec is one cold job.
type jobRec struct {
	idx        int
	start, end time.Duration
	fail       string
	body       []byte // the submitted request
	result     []byte // the verified result document
	trial      service.TrialDoc
}

// hitRec is one cache-served request.
type hitRec struct {
	start, end time.Duration
	fail       string
}

func (j jobRec) latency() float64 {
	if j.fail != "" {
		return math.Inf(1)
	}
	return (j.end - j.start).Seconds()
}

func (h hitRec) latencyMs() float64 {
	if h.fail != "" {
		return math.Inf(1)
	}
	return 1e3 * (h.end - h.start).Seconds()
}

// svcClient is one closed-loop client. log is nil in untraced passes.
type svcClient struct {
	http   *http.Client
	base   string
	origin time.Time
	log    *spanLog
}

func (c *svcClient) now() time.Duration { return time.Since(c.origin) }

func (c *svcClient) begin(name string, parent, op int) int {
	if c.log == nil {
		return -1
	}
	return c.log.begin(name, parent, op)
}

func (c *svcClient) end(i int) {
	if c.log != nil {
		c.log.end(i)
	}
}

func (c *svcClient) add(name string, start, end time.Duration, parent, op int) {
	if c.log != nil {
		c.log.add(name, start, end, parent, op)
	}
}

type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// post submits a request body and decodes the job status.
func (c *svcClient) post(body []byte) (jobStatus, int, error) {
	var st jobStatus
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	return st, resp.StatusCode, json.Unmarshal(data, &st)
}

// get fetches a path and returns the body bytes.
func (c *svcClient) get(path string) ([]byte, int, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// follow reads the job's event stream to its terminal event and
// returns when the running and done events arrived.
func (c *svcClient) follow(id string) (running, done time.Duration, err error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	running = -1
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, 0, fmt.Errorf("events: %v", err)
		}
		switch ev.Type {
		case "running":
			running = c.now()
		case "done":
			done = c.now()
			if running < 0 {
				running = done
			}
			io.Copy(io.Discard, resp.Body)
			return running, done, nil
		case "failed", "cancelled":
			return 0, 0, fmt.Errorf("job %s: %s", ev.Type, ev.Message)
		}
	}
	return 0, 0, fmt.Errorf("event stream ended before done (%v)", sc.Err())
}

// coldJob submits job i and follows it to a verified result. Traced, it
// records a "job" span with children "submit" (POST), "queue" (POST
// response to the running event), "run" (running to done) and "result"
// (GET and verify).
func (c *svcClient) coldJob(i, n int, seed uint64) (rec jobRec) {
	rec.idx = i
	rec.body, _ = json.Marshal(service.JobRequest{Algorithm: "exact", N: n, Engine: "count", Seed: seed})
	rec.start = c.now()
	top := c.begin("job", -1, i)
	defer func() {
		rec.end = c.now()
		c.end(top)
	}()
	sub := c.begin("submit", top, i)
	st, code, err := c.post(rec.body)
	c.end(sub)
	if err != nil || code != http.StatusAccepted {
		rec.fail = fmt.Sprintf("submit: HTTP %d (%v)", code, err)
		return rec
	}
	queued := c.now()
	running, done, err := c.follow(st.ID)
	if err != nil {
		rec.fail = err.Error()
		return rec
	}
	c.add("queue", queued, running, top, i)
	c.add("run", running, done, top, i)
	res := c.begin("result", top, i)
	defer c.end(res)
	data, code, err := c.get("/v1/jobs/" + st.ID + "/result")
	if err != nil || code != http.StatusOK {
		rec.fail = fmt.Sprintf("result: HTTP %d (%v)", code, err)
		return rec
	}
	rec.fail = verifyDoc(data, n, seed, &rec.trial)
	if rec.fail == "" {
		rec.result = data
	}
	return rec
}

// verifyDoc checks a result document: one converged trial of the
// submitted request that counted exactly n.
func verifyDoc(data []byte, n int, seed uint64, trial *service.TrialDoc) string {
	var doc service.ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return "result document: " + err.Error()
	}
	if doc.Request.N != n || doc.Request.Seed != seed || doc.Request.Algorithm != "exact" || len(doc.Trials) != 1 {
		return "result document does not answer the submitted request"
	}
	t := doc.Trials[0]
	*trial = t
	switch {
	case !t.Converged:
		return fmt.Sprintf("not converged within %d interactions", t.Total)
	case t.Estimate != int64(n):
		return fmt.Sprintf("CountExact counted %d, want %d", t.Estimate, n)
	}
	return ""
}

// hit re-submits a finished job's request, which the daemon must serve
// from its result cache, and compares the served document with the cold
// one byte for byte.
func (c *svcClient) hit(target *jobRec, op int) (h hitRec) {
	h.start = c.now()
	sp := c.begin("hit", -1, op)
	defer func() {
		h.end = c.now()
		c.end(sp)
	}()
	st, code, err := c.post(target.body)
	if err != nil || code != http.StatusOK || st.State != "done" {
		h.fail = fmt.Sprintf("cache hit: HTTP %d state %q (%v)", code, st.State, err)
		return h
	}
	data, code, err := c.get("/v1/jobs/" + st.ID + "/result")
	if err != nil || code != http.StatusOK {
		h.fail = fmt.Sprintf("cache hit result: HTTP %d (%v)", code, err)
		return h
	}
	if !bytes.Equal(data, target.result) {
		h.fail = "cache-served document differs from the cold one"
	}
	return h
}

// svcPass is one closed-loop measurement against one daemon.
type svcPass struct {
	jobs       []jobRec // sorted by index
	hits       []hitRec
	laneEnds   []time.Duration
	spans      []span
	metrics    map[string]float64 // /metrics deltas over the pass
	setups     []time.Duration
	origin     time.Time // span clock origin
	start, end usage
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, MaxConnsPerHost: 4}}
}

// runPass starts a fresh daemon and drives it for dur. Jobs in flight
// at the deadline finish; clients start no new ones.
func (w svcWorkload) runPass(cfg runConfig, dur time.Duration, traced bool, name string) (svcPass, error) {
	var p svcPass
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	// Time daemon starts on one state directory — the first creates it,
	// the rest restart over it, as popcountd does — then serve the pass
	// from a fresh directory, so no earlier result is cached.
	for k := 0; k < w.setups; k++ {
		d, setup, err := startDaemon(filepath.Join(cfg.scratch, name+"-setup"), hc)
		if err != nil {
			return p, err
		}
		p.setups = append(p.setups, setup)
		d.close()
	}
	d, _, err := startDaemon(filepath.Join(cfg.scratch, name), hc)
	if err != nil {
		return p, err
	}
	defer d.close()
	before, err := scrape(hc, d.base)
	if err != nil {
		return p, err
	}

	n := w.size(cfg)
	p.start = readUsage()
	origin := time.Now()
	p.origin = origin
	deadline := origin.Add(dur)
	var next atomic.Int64
	type lane struct {
		jobs []jobRec
		hits []hitRec
		end  time.Duration
		log  *spanLog
	}
	lanes := make([]lane, w.clients)
	var wg sync.WaitGroup
	for l := range lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			c := &svcClient{http: hc, base: d.base, origin: origin}
			if traced {
				c.log = newSpanLog(origin)
				ln.log = c.log
			}
			var finished []*jobRec
			for {
				i := int(next.Add(1) - 1)
				if i >= w.prefix && time.Now().After(deadline) {
					break
				}
				job := c.coldJob(i, n, trialSeed(cfg.seed, i))
				ln.jobs = append(ln.jobs, job)
				if job.fail == "" {
					finished = append(finished, &job)
				}
				for h := 0; h < w.hitsPerJob && len(finished) > 0; h++ {
					ln.hits = append(ln.hits, c.hit(finished[max(0, len(finished)-1-h)], i))
				}
				ln.end = c.now()
			}
		}(&lanes[l])
	}
	wg.Wait()
	p.end = readUsage()
	after, err := scrape(hc, d.base)
	if err != nil {
		return p, err
	}
	p.metrics = map[string]float64{}
	for k, v := range after {
		p.metrics[k] = v - before[k]
	}
	var logs []*spanLog
	for _, ln := range lanes {
		p.jobs = append(p.jobs, ln.jobs...)
		p.hits = append(p.hits, ln.hits...)
		p.laneEnds = append(p.laneEnds, ln.end)
		if ln.log != nil {
			logs = append(logs, ln.log)
		}
	}
	sort.Slice(p.jobs, func(a, b int) bool { return p.jobs[a].idx < p.jobs[b].idx })
	p.spans = mergeLogs(logs)
	return p, nil
}

// scrape reads the daemon's Prometheus counters, keyed by metric name
// with labels.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if x, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = x
		}
	}
	return out, sc.Err()
}

const (
	mCheckpoints = "popcountd_checkpoints_total"
	mHits        = "popcountd_cache_hits_total"
	mMisses      = "popcountd_cache_misses_total"
	mCountIx     = `popcountd_interactions_total{engine="count"}`
)

// svcWork is the deterministic work of a set of jobs.
type svcWork struct {
	jobs                int
	interactions, total int64
	digest              string
}

func countJobs(jobs []jobRec) svcWork {
	var s svcWork
	h := sha256.New()
	for _, j := range jobs {
		s.jobs++
		s.interactions += j.trial.Interactions
		s.total += j.trial.Total
		h.Write(j.result)
	}
	s.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return s
}

func (s svcWork) String() string {
	return fmt.Sprintf("jobs=%d interactions=%d total=%d results=%s", s.jobs, s.interactions, s.total, s.digest)
}

func (w svcWorkload) prefixOf(p svcPass) []jobRec {
	var out []jobRec
	for _, j := range p.jobs {
		if j.idx < w.prefix {
			out = append(out, j)
		}
	}
	return out
}

// check verifies the pass's /metrics deltas against what the clients
// did: one miss per cold submit, one hit per cache-served request, and
// the count engine's interactions equal to the result documents'.
func (w svcWorkload) check(out *outcome, p svcPass, label string) {
	m := p.metrics
	all := countJobs(p.jobs)
	out.fingerprint = append(out.fingerprint, fmt.Sprintf("%smetrics jobs=%d hits=%d checkpoints=%g cache_hits=%g cache_misses=%g interactions_count=%g interactions_agent=%g interactions_batched=%g",
		label, len(p.jobs), len(p.hits), m[mCheckpoints], m[mHits], m[mMisses], m[mCountIx],
		m[`popcountd_interactions_total{engine="agent"}`], m[`popcountd_interactions_total{engine="count-batched"}`]))
	if int(m[mMisses]) != len(p.jobs) || int(m[mHits]) != len(p.hits) || int64(m[mCountIx]) != all.total {
		out.problems = append(out.problems, fmt.Sprintf("%s/metrics deltas disagree with the clients: %g misses for %d jobs, %g hits for %d requests, %g count-engine interactions for %d in result documents",
			label, m[mMisses], len(p.jobs), m[mHits], len(p.hits), m[mCountIx], all.total))
	}
}

// endToEnd records a pass's attempted/failed counts and end-to-end
// metrics; the gated names apply to the untraced run only (prefix "").
func (w svcWorkload) endToEnd(out *outcome, p svcPass, prefix string) {
	var lats, hitMs []float64
	failedJobs, failedHits := 0, 0
	for _, j := range p.jobs {
		lats = append(lats, j.latency())
		if j.fail != "" {
			failedJobs++
			out.fingerprint = append(out.fingerprint, fmt.Sprintf("failure job=%d %s", j.idx, j.fail))
		}
	}
	for _, h := range p.hits {
		hitMs = append(hitMs, h.latencyMs())
		if h.fail != "" {
			failedHits++
			out.fingerprint = append(out.fingerprint, "failure hit "+h.fail)
		}
	}
	attempted, failed := len(p.jobs)+len(p.hits), failedJobs+failedHits
	out.attempted += attempted
	out.failed += failed
	setup := median(seconds(p.setups))
	jps := throughput(len(p.jobs)-failedJobs, p.laneEnds)
	if prefix == "" {
		out.gated["setup_s"] = setup
		out.gated["ops_per_s"] = jps
		out.gated["op_s_p50"] = median(lats)
	}
	out.add(prefix+"setup_s", setup, "s")
	out.add(prefix+"jobs_per_s", jps, "1/s")
	out.add(prefix+"job_s_p50", median(lats), "s")
	if len(lats) >= p90Samples {
		out.add(prefix+"job_s_p90", quantile(lats, 0.9), "s")
	}
	if len(hitMs) > 0 {
		out.add(prefix+"hit_ms_p50", median(hitMs), "ms")
	}
	if len(hitMs) >= p90Samples {
		out.add(prefix+"hit_ms_p90", quantile(hitMs, 0.9), "ms")
	}
	out.add(prefix+"fail_rate", ratio(float64(failed), float64(attempted)), "fraction")
	out.add(prefix+"jobs", float64(len(p.jobs)), "count")
	out.add(prefix+"hits", float64(len(p.hits)), "count")
	out.add(prefix+"steal_share", p.end.stealShare(p.start), "fraction")
}

func (w svcWorkload) run(cfg runConfig) (*outcome, error) {
	out := &outcome{gated: map[string]float64{}}
	if !cfg.trace {
		p, err := w.runPass(cfg, cfg.dur, false, "plain")
		if err != nil {
			return nil, err
		}
		w.endToEnd(out, p, "")
		w.check(out, p, "")
		peakRSS(out)
		out.fingerprint = append(out.fingerprint,
			"prefix "+countJobs(w.prefixOf(p)).String(),
			"run "+countJobs(p.jobs).String())
		return out, nil
	}

	// Traced run: an untraced and a traced pass on fresh daemons over
	// the same seed list, then a replay of the leading jobs through
	// popcount with the daemon's checkpoint loop.
	plain, err := w.runPass(cfg, cfg.dur/2, false, "plain")
	if err != nil {
		return nil, err
	}
	traced, err := w.runPass(cfg, cfg.dur/2, true, "traced")
	if err != nil {
		return nil, err
	}
	w.endToEnd(out, plain, "untraced.")
	w.endToEnd(out, traced, "traced.")
	w.check(out, plain, "untraced.")
	w.check(out, traced, "traced.")
	fpPlain, fpTraced := countJobs(w.prefixOf(plain)), countJobs(w.prefixOf(traced))
	out.fingerprint = append(out.fingerprint, "prefix "+fpPlain.String(), "traced-prefix "+fpTraced.String())
	if fpPlain != fpTraced {
		out.problems = append(out.problems, "traced pass did different work from the untraced pass")
	}

	replayLog := newSpanLog(traced.origin)
	var replayed []trialRec
	for _, j := range w.prefixOf(traced)[:min(w.replays, w.prefix)] {
		rec := w.replay(cfg, j.idx, replayLog)
		if rec.fail == "" && (rec.res.Interactions != j.trial.Interactions || rec.res.Total != j.trial.Total) {
			rec.fail = fmt.Sprintf("replay of job %d ran %d interactions, the daemon %d", j.idx, rec.res.Total, j.trial.Total)
		}
		if rec.fail != "" {
			out.problems = append(out.problems, rec.fail)
		}
		replayed = append(replayed, rec)
	}
	out.spans = mergeLogs([]*spanLog{{spans: traced.spans}, replayLog})

	pr, err := runProbes(cfg)
	if err != nil {
		return nil, err
	}
	l := newLayerValues(pr, replayLog.spans)
	l.trials(replayed, replayed, "count")
	jobs := float64(len(traced.jobs))
	l.set("service.checkpoints_per_job", ratio(traced.metrics[mCheckpoints], jobs))
	l.set("service.cache_hit_ratio", ratio(traced.metrics[mHits], traced.metrics[mHits]+traced.metrics[mMisses]))
	l.set("trace.overhead_ratio", pairedOverhead(jobTimes(plain.jobs), jobTimes(traced.jobs)))
	svc := durations(traced.spans)
	for _, s := range []struct {
		span, name, unit string
		scale            float64
	}{
		{"submit", "service.submit_ms", "ms", 1e3},
		{"queue", "service.queue_ms", "ms", 1e3},
		{"run", "service.run_s", "s", 1},
		{"result", "service.result_ms", "ms", 1e3},
		{"hit", "service.hit_ms", "ms", 1e3},
	} {
		if d := svc[s.span]; len(d) > 0 {
			l.extra(s.name, s.scale*median(d), s.unit)
		}
	}
	l.emit(out)
	return out, nil
}

// jobTimes maps each verified job's index to its time.
func jobTimes(jobs []jobRec) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, j := range jobs {
		if j.fail == "" {
			out[j.idx] = j.end - j.start
		}
	}
	return out
}

// replay reruns job i through popcount the way popcountd's worker does:
// the exact count engine with an interrupt every serviceCheckpointEvery
// interactions, and at each one a Snapshot ("snapshot" span) and a
// RestoreSimulation ("restore" span) that the run then continues from,
// as a resumed job would. Each RunToConvergence segment is a "run"
// span with the observer's "poll" spans under it, all inside a
// "replay" span with a "setup" child.
func (w svcWorkload) replay(cfg runConfig, i int, log *spanLog) trialRec {
	rec := trialRec{idx: i}
	n := w.size(cfg)
	var s *popcount.Simulation
	var lastCp int64
	runSpan := -1
	opts := []popcount.Option{
		popcount.WithSeed(trialSeed(cfg.seed, i)),
		popcount.WithEngine(popcount.EngineCount),
		popcount.WithInterrupt(func() bool { return s.Interactions()-lastCp >= serviceCheckpointEvery }),
		popcount.WithObserver(func(popcount.Snapshot) {
			p := log.begin("poll", runSpan, i)
			s.Converged()
			log.end(p)
			rec.polls++
		}),
	}
	top := log.begin("replay", -1, i)
	defer log.end(top)
	sp := log.begin("setup", top, i)
	var err error
	s, err = popcount.NewSimulation(popcount.CountExact, n, opts...)
	log.end(sp)
	if err != nil {
		rec.fail = err.Error()
		return rec
	}
	base := s.Stats()
	for {
		runSpan = log.begin("run", top, i)
		res, err := s.RunToConvergence()
		log.end(runSpan)
		addStats(&rec.stats, s.Stats(), base)
		if err != nil || !res.Interrupted {
			rec.res = res
			rec.fail = verifyResult(popcount.CountExact, n, res, err)
			return rec
		}
		sn := log.begin("snapshot", top, i)
		blob, err := s.Snapshot()
		log.end(sn)
		if err != nil {
			rec.fail = "snapshot: " + err.Error()
			return rec
		}
		rec.snapBytes = max(rec.snapBytes, len(blob))
		rs := log.begin("restore", top, i)
		restored, err := popcount.RestoreSimulation(blob, opts...)
		log.end(rs)
		if err != nil {
			rec.fail = "restore: " + err.Error()
			return rec
		}
		s, lastCp = restored, restored.Interactions()
		base = s.Stats()
	}
}

// addStats adds the counters a run segment added (end − start) to acc.
func addStats(acc *popcount.EngineStats, end, start popcount.EngineStats) {
	acc.DeltaCalls += end.DeltaCalls - start.DeltaCalls
	acc.Epochs += end.Epochs - start.Epochs
	acc.Violations += end.Violations - start.Violations
	acc.HalfReuses += end.HalfReuses - start.HalfReuses
	acc.HalfDiscards += end.HalfDiscards - start.HalfDiscards
	acc.ShardEpochs += end.ShardEpochs - start.ShardEpochs
	acc.ShardBlocks += end.ShardBlocks - start.ShardBlocks
	acc.MergeConflicts += end.MergeConflicts - start.MergeConflicts
	acc.StealEvents += end.StealEvents - start.StealEvents
}
