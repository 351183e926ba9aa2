package workload

import (
	"strings"
	"testing"
)

func TestSuiteComposition(t *testing.T) {
	if got := len(Names()); got != 21 {
		t.Fatalf("expected 21 benchmarks, got %d", got)
	}
	if got := len(IntNames()); got != 10 {
		t.Fatalf("expected 10 Integer benchmarks, got %d", got)
	}
	if got := len(FloatNames()); got != 11 {
		t.Fatalf("expected 11 Float benchmarks, got %d", got)
	}
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate benchmark %q", n)
		}
		seen[n] = true
	}
}

func TestGet(t *testing.T) {
	s, ok := Get("hmmer")
	if !ok || s.Name != "hmmer" || s.Class != Int {
		t.Fatalf("Get(hmmer) = %+v, %v", s, ok)
	}
	if _, ok := Get("nonexistent"); ok {
		t.Fatal("Get must fail for unknown names")
	}
}

func TestAllProxiesAssembleAndRun(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			tr, err := s.BuildTrace(20000)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if len(tr.Entries) != 20000 {
				t.Fatalf("trace has %d entries, want 20000 (budget)", len(tr.Entries))
			}
			if tr.Loads == 0 || tr.Stores == 0 {
				t.Fatalf("proxy has no memory traffic: %d loads, %d stores", tr.Loads, tr.Stores)
			}
		})
	}
}

func TestSourcesAreDeterministic(t *testing.T) {
	for _, s := range All() {
		a, b := s.Source(), s.Source()
		if a != b {
			t.Fatalf("%s: nondeterministic source generation", s.Name)
		}
	}
}

func TestSignaturesDocumented(t *testing.T) {
	for _, s := range All() {
		if s.Signature == "" {
			t.Errorf("%s: missing signature documentation", s.Name)
		}
		if !strings.Contains(s.Source(), "# signature:") {
			t.Errorf("%s: source missing signature comment", s.Name)
		}
	}
}

func TestOCProxiesHaveCollidingLoads(t *testing.T) {
	// Benchmarks built on the occasionally-colliding kernel must show
	// loads whose last writer is a nearby store.
	for _, name := range []string{"bzip2", "gromacs", "astar", "hmmer"} {
		s, _ := Get(name)
		tr, err := s.BuildTrace(30000)
		if err != nil {
			t.Fatal(err)
		}
		var nearDeps int64
		for i := range tr.Entries {
			e := &tr.Entries[i]
			if e.IsLoad() && e.DepStore > 0 && tr.DepDist(i) <= 4 {
				nearDeps++
			}
		}
		if nearDeps < 100 {
			t.Errorf("%s: only %d near-distance dependent loads", name, nearDeps)
		}
	}
}

func TestStreamProxiesMostlyIndependent(t *testing.T) {
	for _, name := range []string{"leslie3d", "bwaves"} {
		s, _ := Get(name)
		tr, err := s.BuildTrace(30000)
		if err != nil {
			t.Fatal(err)
		}
		var near, loads int64
		for i := range tr.Entries {
			e := &tr.Entries[i]
			if e.IsLoad() {
				loads++
				if e.DepStore > 0 && tr.DepDist(i) <= 8 {
					near++
				}
			}
		}
		if loads == 0 || float64(near)/float64(loads) > 0.2 {
			t.Errorf("%s: %d/%d near-dependent loads; streaming should be mostly independent", name, near, loads)
		}
	}
}

func TestPartialWordProxyUsesHalfwords(t *testing.T) {
	s, _ := Get("bzip2")
	src := s.Source()
	if !strings.Contains(src, "lhu") || !strings.Contains(src, "sh ") {
		t.Error("bzip2 proxy must use halfword accesses (Fig. 13)")
	}
}

func TestSilentStoresPresentInHmmer(t *testing.T) {
	s, _ := Get("hmmer")
	tr, err := s.BuildTrace(30000)
	if err != nil {
		t.Fatal(err)
	}
	var silent int64
	for i := range tr.Entries {
		if tr.Entries[i].IsStore() && tr.Entries[i].Silent() {
			silent++
		}
	}
	if silent < 100 {
		t.Errorf("hmmer proxy has only %d silent stores", silent)
	}
}

// BenchmarkProgramMCF times assembling mcf's proxy, the largest part of
// a trace build's setup before emulation.
func BenchmarkProgramMCF(b *testing.B) {
	s, _ := Get("mcf")
	for i := 0; i < b.N; i++ {
		if _, err := s.Program(); err != nil {
			b.Fatal(err)
		}
	}
}
