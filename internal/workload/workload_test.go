package workload

import (
	"encoding/hex"
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

// TestSourceHashPinned pins every proxy's SourceHash, the workload half
// of persistent trace and result keys: a change to how the source text is
// generated must leave every byte of it, and so every stored artifact's
// key, as it was.
func TestSourceHashPinned(t *testing.T) {
	want := map[string]string{
		"perl":     "104e0b5a43aee57bb145c0fed6389f112fd415af0224eee62a028fbaaf70c7ae",
		"bzip2":    "948595d991d46504928fce8aa170a7f6b999904fdeb8616a163c716d522840d6",
		"gcc":      "4271e28656cce06f831f81c77d4d90e0b7a0f91bb4af61bd18fbc7c5dad72253",
		"mcf":      "2fdace508390fe2b306a934823fa6746e140414ac2bb7fa296d854f05fa4b14d",
		"gobmk":    "042ef749901cdd5ebb41c5f9c2a29aee859552f250a1aa245dc683cdef58113d",
		"hmmer":    "49f8ef3f368018ec57a38385c365448f3d9356332b77fc30f139eb55923af35b",
		"sjeng":    "511944e50b18fa51d080d3918290b12432478ea20ea2f391f97be5f5af695295",
		"lib":      "b6c3d5f79fd8ee58d557c0ecb4713ed0f1fb31d255771027f1fd8534776540b1",
		"h264ref":  "96829f829cebf5fcb73677b7628307d41386e17c78696717cdf9b3c9d96d2160",
		"astar":    "b6cc4a52a72be2dede86ffa882f779d9e6514ae587a7b95f22bb03db9b8da49f",
		"bwaves":   "c2530cc48ecbc4cf3916023930bdf127a76a31fd35e7ed73db330e1537bcb6f2",
		"milc":     "7e7244f9f6d97296617baf2b3b3b5d3eadcc662ee0ed0a55db5e7f121fd6144f",
		"zeusmp":   "497e723038a5642b18f4198c1b7ac82263d734c5e369885a60f22b2a3db2d730",
		"gromacs":  "e757b907beeeb8cd144d97e5c0769e680f2fa5391cf8e45717128281850b0bbc",
		"leslie3d": "d2b94c34d0afeaf541de1521c6c604924aa7f5b835564200ae4ed360fb5dfa3c",
		"namd":     "e59555b5c5fca07a229dffa712bb4f2da93e798054ddeb4c509662ffed775e4c",
		"Gems":     "3d364d9979a9b08e2a62c3b51a4b0ef34ee66fd8320d735921a0ef101e9b087e",
		"tonto":    "d56788472e47adf8280bf38887a713c62eb532f06c3d88062cfdc133abca407b",
		"lbm":      "04ea5f524bf0c7217c44c8e28a8c0a1f9f6392305f2695087525b3d8eca8df63",
		"wrf":      "ce2356b45336720573c8458701a9d74eb8c9c7af0dc827980b084a7d113eea21",
		"sphinx3":  "daa478a1d6396ee31f65cdb02f154279def2f632eb958bdc7f8231d3196dd376",
	}
	if len(want) != len(All()) {
		t.Fatalf("%d pinned hashes for %d proxies", len(want), len(All()))
	}
	for _, s := range All() {
		h := s.SourceHash()
		if got := hex.EncodeToString(h[:]); got != want[s.Name] {
			t.Errorf("%s: SourceHash %s, pinned %s", s.Name, got, want[s.Name])
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
