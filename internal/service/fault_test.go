package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFaultedJobEndToEnd runs a job with a fault plan through the
// HTTP API: the plan reaches the engine (the request echoes back
// canonicalized), the run completes, and the fingerprint separates
// faulted from fault-free submissions while folding equivalent plans
// together.
func TestFaultedJobEndToEnd(t *testing.T) {
	_, hs := testServer(t, Config{})
	req := JobRequest{
		Algorithm: "approximate", N: 2048, Seed: 7, Engine: "count",
		Faults: &FaultPlanRequest{
			Seed:   3,
			Bursts: []FaultEventRequest{{At: 2000, Agents: 32}},
			Churn:  []FaultEventRequest{{At: 4000, Agents: 16}},
		},
	}
	st, code := submit(t, hs.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if st.Req.Faults == nil || len(st.Req.Faults.Bursts) != 1 {
		t.Fatalf("fault plan lost in canonicalization: %+v", st.Req)
	}
	waitState(t, hs.URL, st.ID, JobDone)
	var doc ResultDoc
	if err := json.Unmarshal(getResult(t, hs.URL, st.ID), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Trials) != 1 || !doc.Trials[0].Converged {
		t.Fatalf("faulted job result: %+v", doc)
	}
	if doc.Request.Faults == nil {
		t.Fatal("result document dropped the fault plan")
	}

	// The same request without faults is a different job.
	plain := req
	plain.Faults = nil
	stPlain, _ := submit(t, hs.URL, plain)
	if stPlain.ID == st.ID {
		t.Fatal("faulted and fault-free requests share a fingerprint")
	}
}

// TestFaultInjectionJob pins a fault_injection job end to end on the
// case of the root package's TestFaultInjectionEngagesBackup: the field
// reaches the stable protocol as the fault plan's CorruptSearch knob
// (the run differs from the same request without it), and the
// fingerprint and the result document's bytes are the recorded ones, so
// cache keys and cached documents carry over.
func TestFaultInjectionJob(t *testing.T) {
	_, hs := testServer(t, Config{})
	run := func(req JobRequest) (string, []byte, ResultDoc) {
		t.Helper()
		st, code := submit(t, hs.URL, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		waitState(t, hs.URL, st.ID, JobDone)
		body := getResult(t, hs.URL, st.ID)
		var doc ResultDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Trials) != 1 || !doc.Trials[0].Converged || doc.Trials[0].Output != 7 {
			t.Fatalf("%+v: result %+v, want one converged trial with output ⌊log₂ 128⌋ = 7", req, doc.Trials)
		}
		return st.ID, body, doc
	}
	req := JobRequest{Algorithm: "stable-approximate", N: 128, Seed: 7, FaultInjection: true}
	id, body, doc := run(req)
	if want := "1ad2d1db7590cbcf53f0e22e03d3f9f7d91768464bd4fc11e23752e0dfc25f2f"; id != want {
		t.Errorf("fingerprint %s, recorded %s", id, want)
	}
	sum := sha256.Sum256(body)
	if got, want := hex.EncodeToString(sum[:]), "8cccc716f7a9473110dddafecda202dffc8321448179b9540273bee5f77d369d"; got != want {
		t.Errorf("result document SHA-256 %s, recorded %s:\n%s", got, want, body)
	}

	plain := req
	plain.FaultInjection = false
	_, _, plainDoc := run(plain)
	if doc.Trials[0].Interactions == plainDoc.Trials[0].Interactions {
		t.Fatalf("fault_injection run took %d interactions, the same as without it: the field did not reach the protocol",
			doc.Trials[0].Interactions)
	}
}

// TestFaultPlanFingerprint pins the cache-key behavior of fault plans:
// equivalent plans hash identically, a no-op plan hashes like no plan,
// and plan changes change the hash.
func TestFaultPlanFingerprint(t *testing.T) {
	base, err := JobRequest{Algorithm: "approximate", N: 500,
		Faults: &FaultPlanRequest{Bursts: []FaultEventRequest{{At: 100, Agents: 4}}},
	}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	same, err := JobRequest{Algorithm: "APPROXIMATE", N: 500, Trials: 1, Seed: 1, Engine: "agent",
		Faults: &FaultPlanRequest{Bursts: []FaultEventRequest{{At: 100, Agents: 4}}, Adversary: "none"},
	}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() != same.Fingerprint() {
		t.Fatal("equivalent fault plans hash differently")
	}

	plain, err := JobRequest{Algorithm: "approximate", N: 500}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() == plain.Fingerprint() {
		t.Fatal("faulted request hashes like a plain one")
	}
	noop, err := JobRequest{Algorithm: "approximate", N: 500, Faults: &FaultPlanRequest{Seed: 9}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if noop.Faults != nil {
		t.Fatalf("no-op plan survived canonicalization: %+v", noop.Faults)
	}
	if noop.Fingerprint() != plain.Fingerprint() {
		t.Fatal("no-op fault plan split the cache")
	}
	diff, err := JobRequest{Algorithm: "approximate", N: 500,
		Faults: &FaultPlanRequest{Bursts: []FaultEventRequest{{At: 100, Agents: 5}}},
	}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() == diff.Fingerprint() {
		t.Fatal("different burst sizes hash identically")
	}
}

// TestFaultPlanValidationErrors pins the 400 mapping of bad fault
// plans: structural errors, unknown adversaries, and incompatible
// algorithms all fail at submission, not in the worker.
func TestFaultPlanValidationErrors(t *testing.T) {
	_, hs := testServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"unknown adversary", `{"algorithm":"approximate","n":100,"faults":{"adversary":"mean"}}`},
		{"oversized burst", `{"algorithm":"approximate","n":100,"faults":{"bursts":[{"at":10,"agents":500}]}}`},
		{"negative rate", `{"algorithm":"approximate","n":100,"faults":{"corrupt_rate":-1}}`},
		{"random churn", `{"algorithm":"approximate","n":100,"faults":{"churn":[{"at":10,"agents":2,"random":true}]}}`},
		{"tokenbag with faults", `{"algorithm":"tokenbag","n":100,"faults":{"bursts":[{"at":10,"agents":2}]}}`},
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
		})
	}
}

// TestWorkerPanicFailsJob pins satellite robustness: a panic inside
// the job body fails that one job with the panic message, bumps the
// panic metric, and leaves the worker pool able to run the next job.
func TestWorkerPanicFailsJob(t *testing.T) {
	srv, hs := testServer(t, Config{})
	// Keyed on the seed so the hook is a pure read — no writes racing
	// the worker goroutines.
	srv.beforeRun = func(j *Job) {
		if j.Req.Seed == 666 {
			panic("deliberate test panic")
		}
	}
	st, _ := submit(t, hs.URL, JobRequest{Algorithm: "approximate", N: 1024, Seed: 666, Engine: "count"})
	streamEventsUntil(t, hs.URL, st.ID, string(JobFailed))
	got := getStatus(t, hs.URL, st.ID)
	if got.State != JobFailed || !strings.Contains(got.Error, "worker panic: deliberate test panic") {
		t.Fatalf("panicking job state %q error %q", got.State, got.Error)
	}
	metrics := getText(t, hs.URL+"/metrics")
	if !strings.Contains(metrics, "popcountd_worker_panics_total 1") {
		t.Fatalf("metrics missing worker panic:\n%s", metrics)
	}

	// The pool survived: a clean job still completes.
	st2, _ := submit(t, hs.URL, JobRequest{Algorithm: "approximate", N: 1024, Seed: 2, Engine: "count"})
	waitState(t, hs.URL, st2.ID, JobDone)
}

// TestTruncatedCheckpointRestart pins satellite robustness: a
// truncated checkpoint on recovery is detected, counted, and the job
// restarts from scratch — finishing with the same result document an
// uninterrupted run produces.
func TestTruncatedCheckpointRestart(t *testing.T) {
	req := JobRequest{Algorithm: "approximate", N: 2048, Seed: 21, Engine: "count"}

	// Reference: uninterrupted run.
	_, refHS := testServer(t, Config{})
	refSt, _ := submit(t, refHS.URL, req)
	waitState(t, refHS.URL, refSt.ID, JobDone)
	want := getResult(t, refHS.URL, refSt.ID)

	// Kill a checkpointing run mid-job, then corrupt its checkpoint.
	dir := t.TempDir()
	srvA, hsA := testServer(t, Config{Dir: dir, CheckpointEvery: 50_000})
	st, _ := submit(t, hsA.URL, req)
	streamEventsUntil(t, hsA.URL, st.ID, "checkpoint")
	srvA.Abort()
	hsA.Close()
	cp := filepath.Join(dir, "checkpoints", st.ID+".ckpt")
	info, err := os.Stat(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cp, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	// Recovery: the fresh daemon detects the bad checkpoint, restarts
	// the job from scratch, and still produces the reference bytes.
	_, hsB := testServer(t, Config{Dir: dir, CheckpointEvery: 50_000})
	waitState(t, hsB.URL, st.ID, JobDone)
	evs := streamEventsUntil(t, hsB.URL, st.ID, "done")
	restarted := false
	for _, e := range evs {
		if e.Type == "progress" && strings.Contains(e.Message, "checkpoint unusable") {
			restarted = true
		}
		if e.Type == "resumed" {
			t.Fatal("job resumed from a truncated checkpoint")
		}
	}
	if !restarted {
		t.Fatalf("no restart event in log: %+v", evs)
	}
	got := getResult(t, hsB.URL, st.ID)
	if string(got) != string(want) {
		t.Fatalf("restarted result differs from uninterrupted run\nwant: %s\ngot:  %s", want, got)
	}
	metrics := getText(t, hsB.URL+"/metrics")
	if !strings.Contains(metrics, "popcountd_checkpoint_restore_failures_total 1") {
		t.Fatalf("metrics missing restore failure:\n%s", metrics)
	}
}
