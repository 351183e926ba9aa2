package difftest

import (
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/faults"
	"dmdp/internal/progen"
)

// A small randomized sweep: every preset, several seeds, all five
// models, zero divergence. The CI sweep (cmd/difftest) runs the same
// harness over 10k seeds; this keeps `go test ./...` fast while still
// exercising every model × preset combination.
func TestLockstepCleanSweep(t *testing.T) {
	opt := Options{Budget: 3000}
	presets := progen.Presets()
	for _, p := range presets {
		for seed := uint64(1); seed <= 4; seed++ {
			lines, div, err := RunSeed(seed, p.Name, p.Knobs, opt)
			if err != nil {
				t.Fatalf("infrastructure failure: %v", err)
			}
			if div != nil {
				t.Fatalf("divergence:\n%s", div.Bundle())
			}
			if len(lines) != len(config.Models) {
				t.Fatalf("seed %d: %d digest lines, want %d", seed, len(lines), len(config.Models))
			}
		}
	}
}

// RunSeed's digest lines must be a pure function of (seed, knobs): the
// CLI builds its aggregate sweep digest from them, and -j1/-j8 output
// must be byte-identical.
func TestRunSeedDeterministic(t *testing.T) {
	p := progen.Presets()[0]
	a, _, err := RunSeed(11, p.Name, p.Knobs, Options{Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunSeed(11, p.Name, p.Knobs, Options{Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("digest line %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// Injected architectural value corruption (internal/faults) must be
// caught by the lockstep hook — not the downstream oracle — and must
// minimize to a small runnable repro.
func TestLockstepCatchesInjectedCorruption(t *testing.T) {
	opt := Options{
		Budget: 3000,
		Faults: faults.Config{Seed: 5, ValueCorruptRate: 1},
	}
	p := progen.Presets()[0]
	_, div, err := RunSeed(3, p.Name, p.Knobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("value corruption at rate 1 not caught")
	}
	se, ok := div.Err.(*core.SimError)
	if !ok {
		t.Fatalf("divergence error is %T, want *core.SimError", div.Err)
	}
	if se.Kind != core.ErrLockstep {
		t.Fatalf("divergence kind %q, want %q (the lockstep observer must fire before the oracle)", se.Kind, core.ErrLockstep)
	}

	r := div.Minimize(opt)
	if r.Static > 50 {
		t.Fatalf("minimized repro has %d static instructions, want <= 50:\n%s", r.Static, r.Source)
	}
	if !div.Check(opt)(r.Source) {
		t.Fatal("minimized repro does not reproduce the failure")
	}
}

// A silently corrupted trace — the exact failure mode a broken artifact
// cache would produce — must be caught even though the core's built-in
// oracle can't see it (the oracle compares against the same corrupted
// trace). The lockstep emulator is the independent reference.
func TestLockstepCatchesTraceCorruption(t *testing.T) {
	p := progen.Presets()[0]
	src := progen.Generate(9, p.Knobs)
	tr, err := BuildTrace(src, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the data value of the first store in the trace: the core
	// will faithfully commit the wrong byte pattern.
	idx := -1
	for i := range tr.Entries {
		if tr.Entries[i].IsStore() {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Skip("no store in trace")
	}
	tr.Entries[idx].Value ^= 0xdead_beef

	_, err = Lockstep(config.Default(config.DMDP), tr)
	if err == nil {
		t.Fatal("corrupted trace not caught by lockstep")
	}
	se, ok := err.(*core.SimError)
	if !ok || se.Kind != core.ErrLockstep {
		t.Fatalf("got %v, want an ErrLockstep SimError", err)
	}
}

// CommittedImage must fold stores still pending in the store buffer into
// the snapshot: the core can reach done with an undrained SB, and the
// final-memory comparison depends on seeing those bytes.
func TestLockstepFinalMemoryIncludesPendingStores(t *testing.T) {
	// Covered implicitly by every clean sweep (the comparison runs at
	// the end of each Lockstep call and generated programs end with
	// stores near the halt), but pin one config explicitly.
	p, _ := progen.PresetByName("storeheavy")
	src := progen.Generate(2, p)
	tr, err := BuildTrace(src, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range config.Models {
		if _, err := Lockstep(config.Default(m), tr); err != nil {
			t.Fatalf("model %s: %v", m, err)
		}
	}
}
