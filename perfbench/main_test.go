package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyOptions runs a workload at self-test size with its files under
// the test's temporary directory.
func tinyOptions(t *testing.T, workload string, traced bool) options {
	dir := t.TempDir()
	return options{
		workload: workload, seed: 3, traced: traced, tiny: true,
		tmpDir: filepath.Join(dir, "tmp"), spansOut: filepath.Join(dir, "spans.json"),
	}
}

// TestWorkloadsReportEveryMetric runs every workload untraced and traced
// at a tiny size: each run must pass its output checks, report exactly
// the declared metrics with their units, and (traced) write spans that
// nest with non-negative self times.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range []string{"detail", "sampled", "suite"} {
		for _, traced := range []bool{false, true} {
			opt := tinyOptions(t, w, traced)
			res, sum, err := run(opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(sum) != 64 {
				t.Errorf("%s: output digest %q", w, sum)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, d.Name, v, d.Unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			checkSpans(t, w, opt.spansOut)
		}
	}
}

// checkSpans re-reads a traced run's spans: they must nest inside their
// parents, and every self time must be non-negative.
func checkSpans(t *testing.T, w, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", w, err)
	}
	var out struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("%s: %v", w, err)
	}
	if len(out.Spans) == 0 {
		t.Fatalf("%s: no spans", w)
	}
	children := make(map[int]int64)
	for _, s := range out.Spans {
		if s.Self < 0 || s.End < s.Start {
			t.Errorf("%s: span %+v", w, s)
		}
		if s.Parent != 0 {
			p := out.Spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %s escapes parent %s", w, s.Name, p.Name)
			}
			children[s.Parent] += s.dur()
		}
	}
	// The layer calls under each top-level span run one after another
	// and account for nearly all of it.
	for _, s := range out.Spans {
		if s.Parent == 0 && (children[s.ID] > s.dur() || children[s.ID] < s.dur()*9/10) {
			t.Errorf("%s: top-level %s span of %d ns has children summing to %d ns", w, s.Name, s.dur(), children[s.ID])
		}
	}
}

// TestBrokenOutputCheckFails flips one byte of the cold run's recorded
// canonical bytes, which the default-config sweep must reproduce: the
// untraced and the traced sweep each count it as one failed operation.
func TestBrokenOutputCheckFails(t *testing.T) {
	for _, traced := range []bool{false, true} {
		opt := tinyOptions(t, "sampled", traced)
		if err := os.MkdirAll(opt.tmpDir, 0o755); err != nil {
			t.Fatal(err)
		}
		b := &bench{opt: opt, jobs: 2, led: newLedger(), probe: newHostProbe()}
		s := newSampled(b)
		defer s.close()
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		if err := s.setup(b, tr, 0); err != nil {
			t.Fatal(err)
		}
		cold := b.led.seen["gcc/dmdp"]
		cold[len(cold)/2] ^= 0x20
		if err := s.round(b, tr, 0); err != nil {
			t.Fatal(err)
		}
		if b.led.failed != 1 {
			t.Errorf("traced=%v: %d failed operations, want 1", traced, b.led.failed)
		}
	}
}

// TestColdStartFails deletes the warm-state records between the cold
// run and the sweep. The first sweep run of each proxy then cannot use
// the cached plan (its warm state is gone), profiles again and counts
// as failed; that pass rewrites the records the later runs hit.
func TestColdStartFails(t *testing.T) {
	opt := tinyOptions(t, "sampled", false)
	if err := os.MkdirAll(opt.tmpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	b := &bench{opt: opt, jobs: 2, led: newLedger(), probe: newHostProbe()}
	s := newSampled(b)
	defer s.close()
	if err := s.setup(b, nil, 0); err != nil {
		t.Fatal(err)
	}
	warm, err := filepath.Glob(filepath.Join(s.storeDir, "*.warm"))
	if err != nil || len(warm) == 0 {
		t.Fatalf("no warm records to delete (%v)", err)
	}
	for _, f := range warm {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.round(b, nil, 0); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(s.proxies)); b.led.failed != want {
		t.Errorf("%d sweep runs failed, want %d", b.led.failed, want)
	}
}

// TestScaledSquaresProbeRatio pins the host-speed scaling: a probe at
// probeRef leaves a time alone, and a probe twice as slow quarters it.
func TestScaledSquaresProbeRatio(t *testing.T) {
	d := 3 * time.Second
	if got := scaled(d, probeRef); got != 3 {
		t.Errorf("scaled at probeRef = %v s, want 3", got)
	}
	if got := scaled(d, 2*probeRef); got != 0.75 {
		t.Errorf("scaled at 2×probeRef = %v s, want 0.75", got)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	ss := []*span{{Start: 10, End: 20}, {Start: 15, End: 30}, {Start: 40, End: 45}, {Start: 41, End: 42}}
	if got := covered(ss); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json, the
// program's metric declarations and README.md's table in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program declares %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
	for _, w := range cfg.Workloads {
		b := &bench{opt: options{workload: w.Name}, led: newLedger()}
		if _, err := newWorkload(b); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if !strings.Contains(string(readme), "`"+d.Name+"`") {
			t.Errorf("README.md does not describe %s", d.Name)
		}
	}
}
