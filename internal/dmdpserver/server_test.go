package dmdpserver

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/experiments"
	"dmdp/internal/sched"
)

const testBudget = 50_000

// inlineProgram is a tiny store/load kernel for the inline-source path.
const inlineProgram = "\t.text\n" +
	"main:\n" +
	"\tli $t0, 100000000\n" +
	"\tli $t1, 0\n" +
	"loop:\n" +
	"\tsw $t1, 0($zero)\n" +
	"\tlw $t2, 0($zero)\n" +
	"\taddi $t1, $t1, 1\n" +
	"\taddi $t0, $t0, -1\n" +
	"\tbnez $t0, loop\n" +
	"\thalt\n"

// checkNoGoroutineLeak snapshots the goroutine count and asserts (with
// retries, since exits are asynchronous) that it returns to baseline —
// a goleak-style gate without the dependency.
func checkNoGoroutineLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// newTestServer starts a Server plus an httptest front end and
// registers ordered cleanup: scheduler shutdown, HTTP close, then the
// goroutine-leak gate (t.Cleanup runs after every test defer).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	leak := checkNoGoroutineLeak(t)
	if cfg.DefaultBudget == 0 {
		cfg.DefaultBudget = testBudget
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Abort()
		ts.Close()
		leak()
	})
	return s, ts
}

// postJob submits a job and decodes the response.
func postJob(t *testing.T, url string, body map[string]any) (int, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode (%d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// directSHA computes the stats SHA the daemon must reproduce, through
// the same runner machinery but with no daemon in the way.
func directSHA(t *testing.T, bench string, m config.Model, budget int64) string {
	t.Helper()
	r := experiments.NewRunner(experiments.Options{Budget: budget, Parallel: false})
	st, err := r.RunModel(bench, m)
	if err != nil {
		t.Fatal(err)
	}
	return statsSHA(st.MarshalCanonical())
}

func statsSHA(enc []byte) string {
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

func TestJobEndToEndMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, out := postJob(t, ts.URL, map[string]any{"bench": "hmmer", "model": "dmdp"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	want := directSHA(t, "hmmer", config.DMDP, testBudget)
	if got := out["stats_sha256"]; got != want {
		t.Fatalf("daemon stats sha %v, direct run %v — results diverge", got, want)
	}
	if out["workload"] != "hmmer" || out["model"] != "dmdp" {
		t.Fatalf("reply identity: %v", out)
	}
	if dl, _ := out["digest_line"].(string); !strings.Contains(dl, "inst=") {
		t.Fatalf("digest line missing: %v", out["digest_line"])
	}
}

func TestInlineSourceJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})

	code, out := postJob(t, ts.URL, map[string]any{"source": inlineProgram, "model": "baseline", "budget": "20k"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	st, _ := out["stats"].(map[string]any)
	if st == nil || st["instructions"].(float64) < 19_000 {
		t.Fatalf("inline run stats: %v", out)
	}
	if w, _ := out["workload"].(string); !strings.HasPrefix(w, "inline:") {
		t.Fatalf("workload label %q", w)
	}
	// Identical resubmission returns identical bits.
	code2, out2 := postJob(t, ts.URL, map[string]any{"source": inlineProgram, "model": "baseline", "budget": "20k"})
	if code2 != http.StatusOK || out2["stats_sha256"] != out["stats_sha256"] {
		t.Fatalf("resubmission diverged: %d %v vs %v", code2, out2["stats_sha256"], out["stats_sha256"])
	}
	_ = srv
}

// TestVerifyModeCatchesPoisonedInlineResult: under a verify-mode store
// an inline job's stored result is re-simulated and compared like every
// other result hit, so a poisoned entry fails the job with a verify
// mismatch instead of being served, and the entry is left as it was.
func TestVerifyModeCatchesPoisonedInlineResult(t *testing.T) {
	dir := t.TempDir()
	rw, err := artifact.Open(dir, artifact.RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Cache: rw})
	job := map[string]any{"source": inlineProgram, "model": "baseline", "budget": "20k"}
	if code, out := postJob(t, ts.URL, job); code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}

	cfg := config.Default(config.Baseline)
	key := artifact.ResultKey(artifact.TraceKey(sha256.Sum256([]byte(inlineProgram)), 20_000), cfg.Digest(), 20_000)
	st, ok := rw.LoadStats(key)
	if !ok {
		t.Fatal("inline result was not stored")
	}
	st.Cycles += 1_000_000
	rw.StoreStats(key, st)

	verify, err := artifact.Open(dir, artifact.Verify, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, vts := newTestServer(t, Config{Workers: 1, Cache: verify})
	code, out := postJob(t, vts.URL, job)
	if msg, _ := out["error"].(string); code != http.StatusInternalServerError || !strings.Contains(msg, "verify mismatch") {
		t.Fatalf("poisoned inline result under verify: status %d %v; want 500 with a verify mismatch", code, out)
	}
	if got, _ := verify.LoadStats(key); got == nil || got.Cycles != st.Cycles {
		t.Error("verify mode rewrote the poisoned entry")
	}
}

func TestConcurrentIdenticalJobsSimulateOnce(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4})

	const n = 8
	shas := make(chan string, n)
	for i := 0; i < n; i++ {
		go func() {
			code, out := postJobNoFatal(ts.URL, map[string]any{"bench": "bzip2", "model": "nosq"})
			if code != http.StatusOK {
				shas <- fmt.Sprintf("status %d", code)
				return
			}
			shas <- out["stats_sha256"].(string)
		}()
	}
	first := <-shas
	for i := 1; i < n; i++ {
		if got := <-shas; got != first {
			t.Fatalf("response %d diverged: %q vs %q", i, got, first)
		}
	}
	// The scheduler's key dedup plus the runner's result cache mean the
	// core executed exactly once regardless of arrival order.
	if sims := srv.Sims(); sims != 1 {
		t.Fatalf("%d core executions for %d identical jobs, want 1", sims, n)
	}
}

// postJobNoFatal is postJob for goroutines (no *testing.T calls off the
// test goroutine).
func postJobNoFatal(url string, body map[string]any) (int, map[string]any) {
	b, _ := json.Marshal(body)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func TestRateLimitSheds429WithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, TenantRate: 0.001, TenantBurst: 1})

	if code, out := postJob(t, ts.URL, map[string]any{"bench": "hmmer", "tenant": "alice"}); code != http.StatusOK {
		t.Fatalf("first job: %d %v", code, out)
	}
	b, _ := json.Marshal(map[string]any{"bench": "gcc", "tenant": "alice"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another tenant is unaffected.
	if code, out := postJob(t, ts.URL, map[string]any{"bench": "hmmer", "tenant": "bob"}); code != http.StatusOK {
		t.Fatalf("other tenant: %d %v", code, out)
	}
}

func TestQueueFullSheds429(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Occupy the only worker and fill the one queue slot with blocking
	// jobs submitted straight to the scheduler.
	block := make(chan struct{})
	running := make(chan struct{})
	h1, err := srv.sched.Submit(sched.Job{Run: func(ctx context.Context) (any, error) {
		close(running)
		<-block
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	h2, err := srv.sched.Submit(sched.Job{Run: func(ctx context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}

	code, out := postJob(t, ts.URL, map[string]any{"bench": "hmmer"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d (%v), want 429", code, out)
	}
	if out["kind"] != string(sched.ShedQueueFull) {
		t.Fatalf("kind %v, want %v", out["kind"], sched.ShedQueueFull)
	}
	close(block)
	h1.Result()
	h2.Result()
}

func TestDrainGraceful(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	// A job is mid-flight when the drain starts.
	block := make(chan struct{})
	running := make(chan struct{})
	h, err := srv.sched.Submit(sched.Job{Run: func(ctx context.Context) (any, error) {
		close(running)
		<-block
		return "finished", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-running

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitUntil(t, func() bool { return srv.Draining() })

	// Readiness flips; new jobs shed with 503.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d during drain, want 503", resp.StatusCode)
	}
	if code, out := postJob(t, ts.URL, map[string]any{"bench": "hmmer"}); code != http.StatusServiceUnavailable {
		t.Fatalf("job during drain: %d %v, want 503", code, out)
	}
	// Liveness holds throughout.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// The in-flight job completes and the drain finishes cleanly.
	close(block)
	if res := h.Result(); res.Err != nil || res.Value != "finished" {
		t.Fatalf("in-flight job lost to drain: %+v", res)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestJobDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, DefaultBudget: 5_000_000, MaxBudget: 10_000_000})

	code, out := postJob(t, ts.URL, map[string]any{
		"bench": "gcc", "budget": "5m", "deadline_ms": 1,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%v), want 504", code, out)
	}
	if out["kind"] != "deadline" {
		t.Fatalf("kind %v, want deadline", out["kind"])
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	for name, body := range map[string]map[string]any{
		"no workload":    {"model": "dmdp"},
		"both workloads": {"bench": "hmmer", "source": "x"},
		"bad bench":      {"bench": "nonesuch"},
		"bad model":      {"bench": "hmmer", "model": "quantum"},
		"bad budget":     {"bench": "hmmer", "budget": "-3"},
		"over budget":    {"bench": "hmmer", "budget": "900m"},
		"chaos disabled": {"bench": "hmmer", "chaos_panic": true},
		"huge ROB":       {"bench": "hmmer", "budget": "20k", "rob": 1 << 24},
	} {
		code, out := postJob(t, ts.URL, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", name, code, out)
		}
	}
}

func TestStatzAndStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Streamed job: accepted first, exactly one terminal event.
	b, _ := json.Marshal(map[string]any{"bench": "hmmer", "model": "perfect", "stream": true})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 2 || events[0]["event"] != "accepted" {
		t.Fatalf("stream events: %v", events)
	}
	terminal := 0
	for _, ev := range events {
		switch ev["event"] {
		case "done", "error":
			terminal++
		}
	}
	last := events[len(events)-1]
	if terminal != 1 || last["event"] != "done" {
		t.Fatalf("want exactly one terminal done event at the end, got %v", events)
	}
	done := last["done"].(map[string]any)
	if done["stats_sha256"] == "" {
		t.Fatalf("done event without stats sha: %v", done)
	}

	// /statz reflects the completed job.
	sresp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var statz statzReply
	if err := json.NewDecoder(sresp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	if statz.Sched.Completed < 1 || statz.Sims < 1 {
		t.Fatalf("statz after a job: %+v", statz)
	}
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
