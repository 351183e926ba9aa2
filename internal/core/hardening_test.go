package core

import (
	"errors"
	"strings"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/faults"
	"dmdp/internal/trace"
)

// runHardened simulates without failing the test on error, returning the
// stats or the structured SimError.
func runHardened(t *testing.T, tr *trace.Trace, cfg config.Config) (*Stats, *SimError) {
	t.Helper()
	c, err := New(cfg, tr)
	if err != nil {
		t.Fatalf("new core: %v", err)
	}
	st, err := c.Run()
	if err == nil {
		return st, nil
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("run returned a non-structured error: %v", err)
	}
	return nil, se
}

// Fault-free runs must pass every commit-time oracle check on every
// model: one check per retired instruction, zero divergences, zero
// injected faults.
func TestOracleCleanRunAllModels(t *testing.T) {
	tr := traceOf(t, ocPattern, 50000)
	for _, m := range allModels {
		st := runModel(t, tr, m)
		if st.OracleChecks != st.Instructions {
			t.Errorf("%s: %d oracle checks for %d instructions", m, st.OracleChecks, st.Instructions)
		}
		if st.Faults.Total() != 0 {
			t.Errorf("%s: injected faults reported on a fault-free run: %+v", m, st.Faults)
		}
	}
}

// Benign faults attack the speculative machinery only: the SVW/T-SSBF
// verification must absorb them and the run must still retire the whole
// trace with every oracle check passing. Predicate corruption is the one
// class allowed to escape to the oracle (the T-SSBF filter has false
// negatives), in which case the abort must be a structured divergence.
func TestBenignFaultClassesConverge(t *testing.T) {
	tr := traceOf(t, ocPattern, 50000)
	golden := runModel(t, tr, config.DMDP)
	cases := []struct {
		name      string
		fc        faults.Config
		count     func(faults.Counts) int64
		mayOracle bool
	}{
		{"prediction-flip", faults.Config{Seed: 1, PredictionFlipRate: 0.05},
			func(c faults.Counts) int64 { return c.PredictionFlips }, false},
		{"force-lowconf", faults.Config{Seed: 2, ForceLowConfRate: 0.2},
			func(c faults.Counts) int64 { return c.ForcedLowConf }, false},
		{"predicate-corrupt", faults.Config{Seed: 3, PredicateCorruptRate: 0.05},
			func(c faults.Counts) int64 { return c.PredicateCorruptions }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default(config.DMDP).WithFaults(tc.fc)
			st, se := runHardened(t, tr, cfg)
			if se != nil {
				if !tc.mayOracle {
					t.Fatalf("benign %s fault broke the run: %v", tc.name, se)
				}
				if se.Kind != ErrOracle {
					t.Fatalf("escaped %s fault must surface as an oracle divergence, got %v", tc.name, se)
				}
				return
			}
			if st.Instructions != golden.Instructions {
				t.Fatalf("retired %d instructions, golden run retired %d", st.Instructions, golden.Instructions)
			}
			if st.OracleChecks != st.Instructions {
				t.Fatalf("%d oracle checks for %d instructions", st.OracleChecks, st.Instructions)
			}
			if tc.count(st.Faults) == 0 {
				t.Fatalf("no %s faults were injected: %+v", tc.name, st.Faults)
			}
		})
	}
}

// Same (program, config, seed) must reproduce exactly — cycles and
// injected-fault counts included.
func TestFaultInjectionDeterministic(t *testing.T) {
	tr := traceOf(t, ocPattern, 30000)
	cfg := config.Default(config.DMDP).WithFaults(faults.Config{Seed: 9, PredictionFlipRate: 0.05})
	a := runCfg(t, tr, cfg)
	b := runCfg(t, tr, cfg)
	if a.Cycles != b.Cycles || a.Faults != b.Faults {
		t.Fatalf("same seed diverged: %d/%d cycles, %+v vs %+v", a.Cycles, b.Cycles, a.Faults, b.Faults)
	}
	if a.Faults.PredictionFlips == 0 {
		t.Fatal("no prediction flips injected")
	}
}

// Architectural corruption at retire must never slip past the oracle:
// the run aborts with a fully populated diagnostic bundle.
func TestOracleCatchesValueCorruption(t *testing.T) {
	tr := traceOf(t, ocPattern, 50000)
	cfg := config.Default(config.DMDP).WithFaults(faults.Config{Seed: 7, ValueCorruptRate: 0.001})
	_, se := runHardened(t, tr, cfg)
	if se == nil {
		t.Fatal("corrupted load value retired without an oracle divergence")
	}
	if se.Kind != ErrOracle {
		t.Fatalf("kind %q, want %q", se.Kind, ErrOracle)
	}
	if se.Cycle <= 0 {
		t.Errorf("diagnostic missing cycle: %d", se.Cycle)
	}
	if se.PC == 0 || se.Disasm == "" {
		t.Errorf("diagnostic missing faulting instruction: pc=0x%x disasm=%q", se.PC, se.Disasm)
	}
	if se.Got == se.Want {
		t.Errorf("divergence values not captured: got=want=0x%x", se.Got)
	}
	if len(se.LastRetired) < 8 {
		t.Errorf("only %d last-retired entries, want >= 8", len(se.LastRetired))
	}
	b := se.Bundle()
	for _, want := range []string{"oracle", "last", se.Disasm, "pipeline:"} {
		if !strings.Contains(b, want) {
			t.Errorf("bundle missing %q:\n%s", want, b)
		}
	}
}

func TestWatchdogMaxCycles(t *testing.T) {
	tr := traceOf(t, acPattern, 100000)
	cfg := config.Default(config.DMDP).WithWatchdog(100, 0)
	_, se := runHardened(t, tr, cfg)
	if se == nil {
		t.Fatal("run outlived a 100-cycle budget")
	}
	if se.Kind != ErrWatchdog {
		t.Fatalf("kind %q, want %q", se.Kind, ErrWatchdog)
	}
	if se.Cycle < 100 || se.Cycle > 101 {
		t.Errorf("tripped at cycle %d, want ~100", se.Cycle)
	}
	if !strings.Contains(se.Msg, "cycle budget") {
		t.Errorf("message %q does not name the budget", se.Msg)
	}
}

// A no-retire window shorter than the front-end depth trips before the
// first instruction can possibly retire — a guaranteed "deadlock".
func TestWatchdogNoRetireWindow(t *testing.T) {
	tr := traceOf(t, acPattern, 100000)
	cfg := config.Default(config.DMDP).WithWatchdog(0, 3)
	_, se := runHardened(t, tr, cfg)
	if se == nil {
		t.Fatal("3-cycle no-retire window never tripped")
	}
	if se.Kind != ErrWatchdog {
		t.Fatalf("kind %q, want %q", se.Kind, ErrWatchdog)
	}
	if se.Retired != 0 {
		t.Errorf("tripped after %d retirements, want 0", se.Retired)
	}
	if !strings.Contains(se.Msg, "no retirement") {
		t.Errorf("message %q does not name the stall", se.Msg)
	}
	if se.Pipeline.FetchIdx == 0 && se.Pipeline.ROB == 0 && se.Pipeline.FetchQueue == 0 {
		t.Errorf("pipeline snapshot empty: %+v", se.Pipeline)
	}
}

// A refcount underflow surfaces as a structured error naming the
// instruction whose release triggered it, not a panic.
func TestRefcountUnderflowSurfaces(t *testing.T) {
	tr := traceOf(t, aluLoop, 1000)
	c, err := New(config.Default(config.Baseline), tr)
	if err != nil {
		t.Fatalf("new core: %v", err)
	}
	p := c.rf.alloc()
	c.rf.dropProducer(p)
	c.rf.dropProducer(p)
	c.checkRefs(0)
	se := c.simErr
	if se == nil {
		t.Fatal("underflow not surfaced")
	}
	if se.Kind != ErrRefcount {
		t.Fatalf("kind %q, want %q", se.Kind, ErrRefcount)
	}
	if se.PC != tr.Entries[0].PC || se.Disasm == "" {
		t.Errorf("underflow not attributed to the releasing instruction: %+v", se)
	}
	if !strings.Contains(se.Msg, "negative refcount") {
		t.Errorf("message %q does not name the underflow", se.Msg)
	}
	if !c.done {
		t.Error("failed core must stop simulating")
	}
}
