package memdep

import (
	"testing"
	"testing/quick"
)

// ---------- T-SSBF ----------

func TestTSSBFInsertLookup(t *testing.T) {
	f := NewTSSBF(DefaultTSSBFConfig())
	f.Insert(0x1000, 0xf, 10)
	if got := f.Lookup(0x1000, 0xf); got != 10 {
		t.Fatalf("lookup = %d, want 10", got)
	}
}

func TestTSSBFYoungestWins(t *testing.T) {
	f := NewTSSBF(DefaultTSSBFConfig())
	f.Insert(0x1000, 0xf, 10)
	f.Insert(0x1000, 0xf, 20)
	if got := f.Lookup(0x1000, 0xf); got != 20 {
		t.Fatalf("lookup = %d, want youngest 20", got)
	}
}

func TestTSSBFBABOverlap(t *testing.T) {
	f := NewTSSBF(DefaultTSSBFConfig())
	f.Insert(0x1000, 0b0011, 5) // store wrote low half
	// Disjoint BAB does not tag-match: the lookup takes the conservative
	// miss path (set minimum — here coincidentally also 5, so check the
	// miss counter rather than the value).
	before := f.TagMisses
	f.Lookup(0x1000, 0b1100)
	if f.TagMisses != before+1 {
		t.Fatal("disjoint BAB must take the miss path")
	}
	if got := f.Lookup(0x1000, 0b0010); got != 5 || f.TagMisses != before+1 {
		t.Fatalf("overlapping BAB should match, got %d", got)
	}
}

func TestTSSBFMissReturnsSetMinimum(t *testing.T) {
	cfg := TSSBFConfig{Sets: 1, Ways: 4} // everything in one set
	f := NewTSSBF(cfg)
	f.Insert(0x1000, 0xf, 30)
	f.Insert(0x2000, 0xf, 10)
	f.Insert(0x3000, 0xf, 20)
	// A miss (different tag) returns the smallest SSN in the set.
	if got := f.Lookup(0x9000, 0xf); got != 10 {
		t.Fatalf("miss lookup = %d, want set minimum 10", got)
	}
}

func TestTSSBFEmptySetReturnsZero(t *testing.T) {
	f := NewTSSBF(DefaultTSSBFConfig())
	if got := f.Lookup(0x4000, 0xf); got != 0 {
		t.Fatalf("empty lookup = %d", got)
	}
}

func TestTSSBFFIFOEviction(t *testing.T) {
	cfg := TSSBFConfig{Sets: 1, Ways: 2}
	f := NewTSSBF(cfg)
	f.Insert(0x1000, 0xf, 1)
	f.Insert(0x2000, 0xf, 2)
	f.Insert(0x3000, 0xf, 3) // evicts ssn 1
	if got := f.Lookup(0x1000, 0xf); got == 1 {
		t.Fatal("oldest entry should have been evicted")
	}
	if got := f.Lookup(0x2000, 0xf); got != 2 {
		t.Fatalf("ssn 2 should remain, got %d", got)
	}
}

func TestTSSBFAliasingIsConservative(t *testing.T) {
	// A different word address never tag-matches (the tag is the full
	// word address); it takes the conservative miss path, whose result
	// (the set minimum) may still name the other store's SSN — that is
	// the structure's intended conservatism, not a false positive.
	f := NewTSSBF(TSSBFConfig{Sets: 2, Ways: 4})
	f.Insert(0x1000, 0xf, 50)
	before := f.TagMisses
	f.Lookup(0x1008, 0xf)
	if f.TagMisses != before+1 {
		t.Fatal("different word address must take the miss path")
	}
}

func TestTSSBFLookupCovering(t *testing.T) {
	f := NewTSSBF(DefaultTSSBFConfig())
	f.Insert(0x1000, 0b0011, 7) // store wrote the low half
	ssn, match, covered := f.LookupCovering(0x1000, 0b0001)
	if ssn != 7 || !match || !covered {
		t.Fatalf("byte within stored half: ssn=%d match=%v covered=%v", ssn, match, covered)
	}
	ssn, match, covered = f.LookupCovering(0x1000, 0b0111)
	if ssn != 7 || !match || covered {
		t.Fatalf("wider load must not be covered: ssn=%d match=%v covered=%v", ssn, match, covered)
	}
	if _, match, _ = f.LookupCovering(0x9000, 0b1111); match {
		t.Fatal("different word must not tag-match")
	}
}

func TestTSSBFInvalidateLine(t *testing.T) {
	f := NewTSSBF(DefaultTSSBFConfig())
	f.InvalidateLine(0x2000, 16)
	for off := uint32(0); off < 16; off += 4 {
		got := f.Lookup(0x2000+off, 0xf)
		if got != InvalidatedSSN {
			t.Fatalf("word 0x%x = %d, want the InvalidatedSSN sentinel", 0x2000+off, got)
		}
		// The sentinel must trip both re-execution checks for every
		// possible real SSN — that is the whole point of it.
		if !NeedsReexecCacheSourced(got, 1<<40) || !NeedsReexecStoreSourced(got, 1<<40) {
			t.Fatal("invalidated word did not force re-execution")
		}
	}
}

// Property: after inserting a store, looking it up with any overlapping
// BAB returns an SSN >= that store's (it or a younger alias).
func TestTSSBFNeverForgetsYoungest(t *testing.T) {
	f := NewTSSBF(DefaultTSSBFConfig())
	ssn := int64(0)
	check := func(addr uint32, bab uint8) bool {
		if bab == 0 {
			bab = 0xf
		}
		ssn++
		wa := addr &^ 3
		f.Insert(wa, bab, ssn)
		got := f.Lookup(wa, bab)
		return got == ssn
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// ---------- SVW policy ----------

func TestSVWPolicy(t *testing.T) {
	// Cache-sourced: re-exec iff colliding > nvul.
	if NeedsReexecCacheSourced(5, 10) {
		t.Error("store committed before read: no reexec")
	}
	if NeedsReexecCacheSourced(10, 10) {
		t.Error("equal SSN: store included in read: no reexec")
	}
	if !NeedsReexecCacheSourced(11, 10) {
		t.Error("younger colliding store: reexec")
	}
	// Store-sourced: re-exec iff mismatch.
	if NeedsReexecStoreSourced(7, 7) {
		t.Error("matching predicted store: no reexec")
	}
	if !NeedsReexecStoreSourced(8, 7) || !NeedsReexecStoreSourced(6, 7) {
		t.Error("different store: reexec")
	}
}

// ---------- SDP ----------

func TestSDPMissPredictsIndependent(t *testing.T) {
	s := NewSDP(DefaultSDPConfig(false))
	if _, ok := s.Predict(0x400100, 0); ok {
		t.Fatal("cold SDP should miss")
	}
}

func TestSDPLearnsDistance(t *testing.T) {
	s := NewSDP(DefaultSDPConfig(false))
	s.TrainWrong(0x400100, 0, 3) // discover dependence at distance 3
	p, ok := s.Predict(0x400100, 0)
	if !ok || p.Dist != 3 {
		t.Fatalf("prediction %+v ok=%v", p, ok)
	}
	if !p.Confident {
		t.Fatal("fresh entry starts at ConfInit=64 > 63: confident")
	}
}

func TestSDPPathSensitivePriority(t *testing.T) {
	s := NewSDP(DefaultSDPConfig(false))
	pc := uint32(0x400100)
	// Train with history 0x5 (PS index pc^5) and distance 2.
	s.TrainWrong(pc, 0x5, 2)
	p, ok := s.Predict(pc, 0x5)
	if !ok || !p.PathSensitive || p.Dist != 2 {
		t.Fatalf("PS prediction %+v", p)
	}
	// A different history misses PS but hits PI.
	p, ok = s.Predict(pc, 0xa3)
	if !ok || p.PathSensitive {
		t.Fatalf("expected PI fallback, got %+v ok=%v", p, ok)
	}
}

func TestSDPPathSensitiveDifferentDistances(t *testing.T) {
	s := NewSDP(DefaultSDPConfig(false))
	pc := uint32(0x400200)
	s.TrainWrong(pc, 0x1, 2)
	s.TrainWrong(pc, 0x2, 5)
	// PI now holds the last-trained distance; PS disambiguates per path.
	p1, _ := s.Predict(pc, 0x1)
	p2, _ := s.Predict(pc, 0x2)
	if p1.Dist != 2 || p2.Dist != 5 {
		t.Fatalf("path-sensitive distances %d/%d, want 2/5", p1.Dist, p2.Dist)
	}
}

func TestSDPBalancedVsBiasedConfidence(t *testing.T) {
	bal := NewSDP(DefaultSDPConfig(false))
	bia := NewSDP(DefaultSDPConfig(true))
	pc := uint32(0x400300)
	for _, s := range []*SDP{bal, bia} {
		s.TrainWrong(pc, 0, 1) // conf=64
		for i := 0; i < 36; i++ {
			s.TrainCorrect(pc, 0, 1) // conf=100
		}
	}
	// One misprediction.
	bal.TrainWrong(pc, 0, 2)
	bia.TrainWrong(pc, 0, 2)
	cb, _ := bal.Confidence(pc, 0)
	ci, _ := bia.Confidence(pc, 0)
	if cb != 99 {
		t.Fatalf("balanced conf = %d, want 99", cb)
	}
	if ci != 50 {
		t.Fatalf("biased conf = %d, want 50", ci)
	}
	// Balanced is still confident; biased fell below the threshold.
	pb, _ := bal.Predict(pc, 0)
	pi, _ := bia.Predict(pc, 0)
	if !pb.Confident || pi.Confident {
		t.Fatalf("confidence flags: balanced=%v biased=%v", pb.Confident, pi.Confident)
	}
}

func TestSDPConfidenceSaturates(t *testing.T) {
	s := NewSDP(DefaultSDPConfig(false))
	pc := uint32(0x400400)
	s.TrainWrong(pc, 0, 1)
	for i := 0; i < 200; i++ {
		s.TrainCorrect(pc, 0, 1)
	}
	c, _ := s.Confidence(pc, 0)
	if c != 127 {
		t.Fatalf("conf = %d, want saturation at 127", c)
	}
	// Balanced decrement floors at 0.
	for i := 0; i < 300; i++ {
		s.TrainWrong(pc, 0, 1)
	}
	c, _ = s.Confidence(pc, 0)
	if c != 0 {
		t.Fatalf("conf = %d, want floor 0", c)
	}
}

func TestSDPLRUWithinSet(t *testing.T) {
	cfg := DefaultSDPConfig(false)
	cfg.Sets = 1
	cfg.Ways = 2
	s := NewSDP(cfg)
	s.TrainWrong(0x100, 0, 1)
	s.TrainWrong(0x200, 0, 2)
	s.TrainCorrect(0x100, 0, 1) // touch 0x100
	s.TrainWrong(0x300, 0, 3)   // evicts 0x200
	if _, ok := s.Predict(0x100, 0); !ok {
		t.Fatal("0x100 evicted despite recent use")
	}
	if p, ok := s.Predict(0x200, 0); ok && p.Dist == 2 {
		t.Fatal("0x200 should have been evicted")
	}
}

// ---------- Store Sets ----------

func TestStoreSetsViolationCreatesDependence(t *testing.T) {
	s := NewStoreSets(1024, 128)
	loadPC, storePC := uint32(0x400100), uint32(0x400200)
	if s.LoadRenamed(loadPC) != 0 {
		t.Fatal("cold load should be unconstrained")
	}
	s.OnViolation(loadPC, storePC)
	s.StoreRenamed(storePC, 42)
	if got := s.LoadRenamed(loadPC); got != 42 {
		t.Fatalf("load should wait for store 42, got %d", got)
	}
	s.StoreExecuted(storePC, 42)
	if got := s.LoadRenamed(loadPC); got != 0 {
		t.Fatalf("after store executes load is unconstrained, got %d", got)
	}
}

func TestStoreSetsStoreOrdering(t *testing.T) {
	s := NewStoreSets(1024, 128)
	s.OnViolation(0x100, 0x200)
	s.OnViolation(0x100, 0x300) // merge: same set now
	prev := s.StoreRenamed(0x200, 10)
	if prev != 0 {
		t.Fatalf("first store unconstrained, got %d", prev)
	}
	prev = s.StoreRenamed(0x300, 11)
	if prev != 10 {
		t.Fatalf("second store in set must order behind 10, got %d", prev)
	}
}

func TestStoreSetsInvalidate(t *testing.T) {
	s := NewStoreSets(1024, 128)
	s.OnViolation(0x100, 0x200)
	s.StoreRenamed(0x200, 50)
	s.Invalidate(40) // store 50 squashed
	if got := s.LoadRenamed(0x100); got != 0 {
		t.Fatalf("squashed store still constrains load: %d", got)
	}
}

func TestStoreSetsMergeKeepsLowerID(t *testing.T) {
	s := NewStoreSets(1024, 128)
	s.OnViolation(0x100, 0x200) // set 0
	s.OnViolation(0x300, 0x400) // set 1
	s.OnViolation(0x100, 0x400) // merge: both end up in set 0
	id1 := s.ssit[s.index(0x100)]
	id2 := s.ssit[s.index(0x400)]
	if id1 != id2 {
		t.Fatalf("merge failed: %d vs %d", id1, id2)
	}
}

// ---------- SSN ----------

func TestSSNOrderingInvariant(t *testing.T) {
	var ssn SSN
	ssn.Rename = 10
	ssn.Retire = 7
	ssn.Commit = 5
	if !(ssn.Commit <= ssn.Retire && ssn.Retire <= ssn.Rename) {
		t.Fatal("SSN registers must be monotone: commit <= retire <= rename")
	}
}

// TestNewSDPAllocatesPerTable pins the table layout: each of the two
// tables is one flat tag array and one flat payload array.
func TestNewSDPAllocatesPerTable(t *testing.T) {
	cfg := DefaultSDPConfig(true)
	if n := testing.AllocsPerRun(5, func() { NewSDP(cfg) }); n > 7 {
		t.Fatalf("NewSDP made %.0f allocations, want <= 7 (predictor, 2 x (table, tags, payloads))", n)
	}
}
