package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testServer spins up a service instance over httptest. Cleanups run
// last-registered first, so the worker pool drains before the state
// directory is removed: a worker persisting a job record after the test
// has seen the job finish cannot race the removal.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func submit(t *testing.T, base string, req JobRequest) (jobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, base, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, base, id string, want JobState) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job reached %q (error %q), want %q", st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job did not reach %q in time", want)
	return jobStatus{}
}

func getResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// streamEventsUntil reads the NDJSON event stream until an event of
// the wanted type arrives, returning every event read.
func streamEventsUntil(t *testing.T, base, id, wantType string) []Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, e)
		if e.Type == wantType {
			return evs
		}
	}
	t.Fatalf("stream ended without %q event; got %+v", wantType, evs)
	return nil
}

// TestSubmitRunFetchStream is the core acceptance path: submit over
// HTTP, stream at least one event, fetch the parsed result document.
func TestSubmitRunFetchStream(t *testing.T) {
	_, hs := testServer(t, Config{})
	req := JobRequest{Algorithm: "approximate", N: 4096, Seed: 7, Engine: "count"}
	st, code := submit(t, hs.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if st.ID == "" || st.Req.Trials != 1 || st.Req.Seed != 7 {
		t.Fatalf("bad submit response %+v", st)
	}

	evs := streamEventsUntil(t, hs.URL, st.ID, "done")
	if len(evs) < 2 || evs[0].Type != "queued" {
		t.Fatalf("event log should open with queued: %+v", evs)
	}

	waitState(t, hs.URL, st.ID, JobDone)
	var doc ResultDoc
	if err := json.Unmarshal(getResult(t, hs.URL, st.ID), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Trials) != 1 || !doc.Trials[0].Converged {
		t.Fatalf("unexpected result document: %+v", doc)
	}
	if doc.Trials[0].Estimate < 2048 || doc.Trials[0].Estimate > 8192 {
		t.Fatalf("estimate %d far from n=4096", doc.Trials[0].Estimate)
	}
	if doc.Request.Algorithm != "approximate" || doc.Request.Engine != "count" {
		t.Fatalf("document request not canonicalized: %+v", doc.Request)
	}
}

// TestCacheByteIdentical pins the content-addressed cache: an
// identical resubmission is answered from the stored document, byte
// for byte, and /metrics records the hit.
func TestCacheByteIdentical(t *testing.T) {
	_, hs := testServer(t, Config{})
	req := JobRequest{Algorithm: "approximate", N: 2048, Seed: 3, Engine: "count"}
	st, _ := submit(t, hs.URL, req)
	waitState(t, hs.URL, st.ID, JobDone)
	first := getResult(t, hs.URL, st.ID)

	// Resubmit with an equivalent-but-differently-spelled request:
	// defaults spelled out, mixed-case algorithm.
	st2, code := submit(t, hs.URL, JobRequest{
		Algorithm: "Approximate", N: 2048, Seed: 3, Engine: "count", Trials: 1,
	})
	if code != http.StatusOK {
		t.Fatalf("resubmit status %d", code)
	}
	if st2.ID != st.ID {
		t.Fatalf("equivalent request got a different job: %s vs %s", st2.ID, st.ID)
	}
	if st2.State != JobDone {
		t.Fatalf("resubmit state %q, want done", st2.State)
	}
	second := getResult(t, hs.URL, st.ID)
	if !bytes.Equal(first, second) {
		t.Fatal("cached result bytes differ from original")
	}
	metrics := getText(t, hs.URL+"/metrics")
	if !strings.Contains(metrics, "popcountd_cache_hits_total 1") {
		t.Fatalf("metrics missing cache hit:\n%s", metrics)
	}
	if !strings.Contains(metrics, `popcountd_jobs{state="done"} 1`) {
		t.Fatalf("metrics missing done gauge:\n%s", metrics)
	}
}

// TestEnsembleJob runs a trials>1 job end to end and checks the
// aggregate block.
func TestEnsembleJob(t *testing.T) {
	_, hs := testServer(t, Config{})
	st, _ := submit(t, hs.URL, JobRequest{
		Algorithm: "approximate", N: 1024, Seed: 5, Engine: "count", Trials: 4,
	})
	waitState(t, hs.URL, st.ID, JobDone)
	var doc ResultDoc
	if err := json.Unmarshal(getResult(t, hs.URL, st.ID), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Trials) != 4 || doc.Stats.Trials != 4 {
		t.Fatalf("want 4 trials, got %+v", doc.Stats)
	}
	if doc.Stats.Converged != 4 {
		t.Fatalf("ensemble convergence: %+v", doc.Stats)
	}
}

// TestValidationErrors pins the 400 mapping of the typed sentinels.
func TestValidationErrors(t *testing.T) {
	_, hs := testServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"unknown algorithm", `{"algorithm":"parity","n":100}`},
		{"invalid n", `{"algorithm":"approximate","n":1}`},
		{"tokenbag on count engine", `{"algorithm":"tokenbag","n":100,"engine":"count"}`},
		{"count engine alias typo", `{"algorithm":"approximate","n":100,"engine":"counting"}`},
		{"unknown field", `{"algorithm":"approximate","n":100,"bogus":1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var ae apiError
			if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Error == "" {
				t.Fatalf("400 body should carry an error message (err %v)", err)
			}
		})
	}
}

// TestCancelMidRun cancels a long-running job via DELETE and checks it
// lands in cancelled with a terminal event.
func TestCancelMidRun(t *testing.T) {
	_, hs := testServer(t, Config{})
	st, _ := submit(t, hs.URL, JobRequest{
		Algorithm: "approximate", N: 1 << 18, Seed: 2, Engine: "count",
	})
	waitState(t, hs.URL, st.ID, JobRunning)
	delReq, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(delReq); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := getStatus(t, hs.URL, st.ID); st.State == JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job not cancelled in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	evs := streamEventsUntil(t, hs.URL, st.ID, string(JobCancelled))
	if len(evs) == 0 {
		t.Fatal("no events")
	}
}

// TestCrashRecoveryBitForBit is the tentpole acceptance test: a job
// killed mid-run (simulated SIGKILL via Abort) resumes from its last
// checkpoint under a fresh server over the same state directory, and
// the final result document is byte-identical to an uninterrupted
// run's.
func TestCrashRecoveryBitForBit(t *testing.T) {
	req := JobRequest{Algorithm: "approximate", N: 2048, Seed: 42, Engine: "count"}

	// Reference: uninterrupted run in its own state directory.
	_, refHS := testServer(t, Config{})
	refSt, _ := submit(t, refHS.URL, req)
	waitState(t, refHS.URL, refSt.ID, JobDone)
	want := getResult(t, refHS.URL, refSt.ID)

	// Interrupted run: checkpoint early and often, kill after the
	// first checkpoint lands.
	dir := t.TempDir()
	srvA, hsA := testServer(t, Config{Dir: dir, CheckpointEvery: 50_000})
	stA, _ := submit(t, hsA.URL, req)
	if stA.ID != refSt.ID {
		t.Fatalf("fingerprint mismatch across servers: %s vs %s", stA.ID, refSt.ID)
	}
	streamEventsUntil(t, hsA.URL, stA.ID, "checkpoint")
	srvA.Abort() // SIGKILL equivalent: no drain, no final checkpoint
	hsA.Close()

	// Recovery: a fresh daemon over the same state directory requeues
	// the job and resumes it from the checkpoint.
	_, hsB := testServer(t, Config{Dir: dir, CheckpointEvery: 50_000})
	waitState(t, hsB.URL, stA.ID, JobDone)
	got := getResult(t, hsB.URL, stA.ID)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed result differs from uninterrupted run\nwant: %s\ngot:  %s", want, got)
	}
	evs := streamEventsUntil(t, hsB.URL, stA.ID, "done")
	resumed := false
	for _, e := range evs {
		if e.Type == "resumed" {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("recovered job did not resume from a checkpoint")
	}
	metrics := getText(t, hsB.URL+"/metrics")
	if !strings.Contains(metrics, "popcountd_resumes_total 1") {
		t.Fatalf("metrics missing resume:\n%s", metrics)
	}
}

// TestGracefulDrainRequeues pins Shutdown semantics: a running job is
// checkpointed, persisted as queued, and finishes under the next
// server with its progress intact.
func TestGracefulDrainRequeues(t *testing.T) {
	req := JobRequest{Algorithm: "approximate", N: 2048, Seed: 9, Engine: "count"}
	dir := t.TempDir()
	srvA, hsA := testServer(t, Config{Dir: dir, CheckpointEvery: 50_000})
	st, _ := submit(t, hsA.URL, req)
	streamEventsUntil(t, hsA.URL, st.ID, "checkpoint")
	srvA.Shutdown()
	if got := getStatus(t, hsA.URL, st.ID); got.State != JobQueued {
		t.Fatalf("drained job state %q, want queued", got.State)
	}
	hsA.Close()

	_, hsB := testServer(t, Config{Dir: dir})
	waitState(t, hsB.URL, st.ID, JobDone)
	evs := streamEventsUntil(t, hsB.URL, st.ID, "done")
	resumed := false
	for _, e := range evs {
		if e.Type == "resumed" {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("drained job did not resume from its checkpoint")
	}
}

// TestFingerprintCanonicalization: spelled-out defaults and case
// variants hash identically; dynamics changes do not.
func TestFingerprintCanonicalization(t *testing.T) {
	base, err := JobRequest{Algorithm: "approximate", N: 500}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	same, err := JobRequest{Algorithm: "APPROXIMATE", N: 500, Trials: 1, Seed: 1, Engine: "agent"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() != same.Fingerprint() {
		t.Fatal("equivalent requests hash differently")
	}
	diff, err := JobRequest{Algorithm: "approximate", N: 500, Seed: 2}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() == diff.Fingerprint() {
		t.Fatal("different seeds hash identically")
	}
}

// TestUnknownJobRoutes pins 404/400 handling of the job routes.
func TestUnknownJobRoutes(t *testing.T) {
	_, hs := testServer(t, Config{})
	id := strings.Repeat("ab", 32)
	for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/result", "/v1/jobs/" + id + "/events"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/../etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
		resp.StatusCode != http.StatusMovedPermanently {
		t.Fatalf("traversal id: status %d", resp.StatusCode)
	}
}
