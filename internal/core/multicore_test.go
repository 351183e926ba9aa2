package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dmdp/internal/asm"
	"dmdp/internal/config"
	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/trace"
)

// threadTraces assembles a single multi-thread source (entry labels
// thread0:, thread1:, ...) and collects one isolated trace per thread.
func threadTraces(t *testing.T, src string, n int, max int64) []*trace.Trace {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	trs := make([]*trace.Trace, n)
	for i := 0; i < n; i++ {
		sym := fmt.Sprintf("thread%d", i)
		e, ok := p.Symbols[sym]
		if !ok {
			t.Fatalf("no %s label", sym)
		}
		tp := *p
		tp.Entry = e
		tr, err := emu.Run(&tp, max)
		if err != nil {
			t.Fatalf("emulate %s: %v", sym, err)
		}
		if !tr.HitHalt {
			t.Fatalf("%s did not halt", sym)
		}
		trs[i] = tr
	}
	return trs
}

func runMachine(t *testing.T, cfg MachineConfig, trs []*trace.Trace) (*Machine, *MachineStats) {
	t.Helper()
	m, err := NewMachine(cfg, trs)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("machine run: %v", err)
	}
	return m, st
}

// Store-buffering litmus (SB): the canonical SC-vs-TSO discriminator.
// Each thread warms only the line it loads (so the racing load hits
// near issue) and leaves its own store line cold: under TSO the store
// then drains slowly after retirement, which is exactly the window the
// legal r1=r2=0 reordering needs.
const sbSource = `
	.data
	.align 6
sbX:	.word 0
	.align 6
sbY:	.word 0
	.text
thread0:
	la $t1, sbX
	la $t2, sbY
	lw $t4, 0($t2)
	li $t0, 1
	sw $t0, 0($t1)
	lw $t3, 0($t2)
	halt
thread1:
	la $t1, sbY
	la $t2, sbX
	lw $t4, 0($t2)
	li $t0, 1
	sw $t0, 0($t1)
	lw $t3, 0($t2)
	halt
`

// SB with a widened speculation window: a cold private-line load sits
// between warming and the race, so the racing load (an L1 hit, issued
// out of order) samples its value ~a hundred cycles before it can
// retire. The enforced machine re-reads at retire; the weakened one
// keeps the stale sample — this shape is the seeded-bug detector.
const sbWindowSource = `
	.data
	.align 6
sbX:	.word 0
	.align 6
sbY:	.word 0
	.align 6
priv0:	.word 0
	.align 6
priv1:	.word 0
	.text
thread0:
	la $t1, sbX
	la $t2, sbY
	la $t5, priv0
	lw $t4, 0($t2)      # warm y (cold miss)
	li $t7, 200         # delay: let the warming miss settle in the L1
d0:	addi $t7, $t7, -1
	bnez $t7, d0
	li $t0, 1
	lw $t6, 0($t5)      # cold private miss: delays the retire burst
	sw $t0, 0($t1)
	lw $t3, 0($t2)      # racing load: L1 hit, samples far before retire
	halt
thread1:
	la $t1, sbY
	la $t2, sbX
	la $t5, priv1
	lw $t4, 0($t2)
	li $t7, 200
d1:	addi $t7, $t7, -1
	bnez $t7, d1
	li $t0, 1
	lw $t6, 0($t5)
	sw $t0, 0($t1)
	lw $t3, 0($t2)
	halt
`

// Message-passing litmus (MP): data then flag; the observer must not
// see the flag without the data under SC or TSO.
const mpSource = `
	.data
	.align 6
mpData:	.word 0
	.align 6
mpFlag:	.word 0
	.text
thread0:
	la $t1, mpData
	la $t2, mpFlag
	li $t0, 1
	sw $t0, 0($t1)
	sw $t0, 0($t2)
	halt
thread1:
	la $t1, mpFlag
	la $t2, mpData
	lw $t4, 0($t1)
	lw $t4, 0($t2)
	lw $t3, 0($t1)
	lw $t4, 0($t2)
	halt
`

func sbMachineConfig(model config.Model, mm MemModel, seed uint64) MachineConfig {
	cfg := DefaultMachineConfig(2, model, mm)
	cfg.Seed = seed
	cfg.MaxGlobalCycles = 2_000_000
	return cfg
}

// sbOutcome runs an SB-shaped source and returns (r1, r2) = ($t3 on
// core 0, $t3 on core 1).
func sbOutcome(t *testing.T, src string, model config.Model, mm MemModel, seed uint64, weaken bool) (uint32, uint32) {
	t.Helper()
	trs := threadTraces(t, src, 2, 1000)
	cfg := sbMachineConfig(model, mm, seed)
	cfg.Weaken = weaken
	m, _ := runMachine(t, cfg, trs)
	return m.FinalRegs(0)[isa.T0+3], m.FinalRegs(1)[isa.T0+3]
}

// TestMachineSingleCoreSemantics anchors the semantic layer: a 1-core
// machine must reproduce exactly the isolated emulator's architectural
// state (registers and memory), since there is nobody to race with.
func TestMachineSingleCoreSemantics(t *testing.T) {
	tr := traceOf(t, ocPattern, 100000)
	for _, mm := range []MemModel{MemSC, MemTSO} {
		cfg := DefaultMachineConfig(1, config.DMDP, mm)
		cfg.Seed = 7
		cfg.MaxGlobalCycles = 5_000_000
		m, st := runMachine(t, cfg, []*trace.Trace{tr})
		if st.Instructions != int64(len(tr.Entries)) {
			t.Fatalf("%v: retired %d of %d", mm, st.Instructions, len(tr.Entries))
		}
		// Reference: run the emulator to completion.
		e := emu.New(tr.Prog)
		var buf [256]trace.Entry
		for !e.Halted() {
			if _, err := e.Step(buf[:]); err != nil {
				t.Fatalf("emu: %v", err)
			}
		}
		if got := m.FinalRegs(0); got != e.Regs {
			t.Fatalf("%v: semantic registers diverge from emulator:\n got %v\nwant %v", mm, got, e.Regs)
		}
		for _, sym := range []string{"x0", "x1"} {
			a := tr.Prog.Symbols[sym]
			if got, want := m.ReadShared(a, 4), e.Mem.Read(a, 4); got != want {
				t.Fatalf("%v: %s: semantic memory %d, emulator %d", mm, sym, got, want)
			}
		}
		if st.StaleReadsKept != 0 {
			t.Fatalf("%v: single core kept %d stale reads", mm, st.StaleReadsKept)
		}
	}
}

// TestMachineDeterminism: identical (config, seed) must give
// byte-identical digests; the machine has no hidden nondeterminism —
// and no goroutines at all (the leak gate pins the lockstep loop as
// strictly single-threaded, so traces can be shared across machines).
func TestMachineDeterminism(t *testing.T) {
	before := runtime.NumGoroutine()
	defer func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	digest := func(seed uint64) string {
		trs := threadTraces(t, sbSource, 2, 1000)
		_, st := runMachine(t, sbMachineConfig(config.DMDP, MemTSO, seed), trs)
		return strings.Join(st.DigestLines(), "\n")
	}
	for _, seed := range []uint64{0, 1, 42} {
		if a, b := digest(seed), digest(seed); a != b {
			t.Fatalf("seed %d: two runs differ:\n%s\n----\n%s", seed, a, b)
		}
	}
}

// TestMachineSBNeverWeakUnderSC: under the enforced SC machine, the
// non-SC outcome r1=r2=0 must never appear, for any model or seed.
func TestMachineSBNeverWeakUnderSC(t *testing.T) {
	for _, model := range []config.Model{config.Baseline, config.DMDP} {
		for _, src := range []string{sbSource, sbWindowSource} {
			for seed := uint64(0); seed < 15; seed++ {
				r1, r2 := sbOutcome(t, src, model, MemSC, seed, false)
				if r1 == 0 && r2 == 0 {
					t.Fatalf("%s seed %d: SB produced r1=0,r2=0 under enforced SC", model, seed)
				}
			}
		}
	}
}

// TestMachineSBWeakenedProducesViolation: the deliberately weakened
// build must let the stale-sample reordering through for at least one
// seed — this is the bug the litmus harness exists to catch.
func TestMachineSBWeakenedProducesViolation(t *testing.T) {
	trs := threadTraces(t, sbWindowSource, 2, 1000)
	for seed := uint64(0); seed < 200; seed++ {
		cfg := sbMachineConfig(config.DMDP, MemSC, seed)
		cfg.Weaken = true
		cfg.MaxStagger = 256 // cross-core DRAM contention skews starts by ~100 cycles
		m, _ := runMachine(t, cfg, trs)
		if m.FinalRegs(0)[isa.T0+3] == 0 && m.FinalRegs(1)[isa.T0+3] == 0 {
			return
		}
	}
	t.Fatal("weakened SC machine never produced SB r1=0,r2=0 in 200 seeds")
}

// TestMachineSBWeakOutcomeUnderTSO: under TSO the r1=r2=0 outcome is
// legal (both stores sit in store buffers past both loads) and the
// machine should actually exhibit it.
func TestMachineSBWeakOutcomeUnderTSO(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		if r1, r2 := sbOutcome(t, sbSource, config.DMDP, MemTSO, seed, false); r1 == 0 && r2 == 0 {
			return
		}
	}
	t.Fatal("TSO machine never exhibited the legal SB r1=0,r2=0 outcome in 200 seeds")
}

// TestMachineMPUnderSCAndTSO: message passing must hold under both
// enforced models: flag observed ⇒ data observed.
func TestMachineMPUnderSCAndTSO(t *testing.T) {
	trs := threadTraces(t, mpSource, 2, 1000)
	for _, mm := range []MemModel{MemSC, MemTSO} {
		for seed := uint64(0); seed < 25; seed++ {
			cfg := sbMachineConfig(config.DMDP, mm, seed)
			m, _ := runMachine(t, cfg, trs)
			flag := m.FinalRegs(1)[isa.T0+3]
			data := m.FinalRegs(1)[isa.T0+4]
			if flag == 1 && data == 0 {
				t.Fatalf("%v seed %d: MP observed flag without data", mm, seed)
			}
		}
	}
}

// TestMachineStatsTraffic: cross-core stores must generate remote
// invalidations and (non-weakened) T-SSBF stamps, and the digest must
// mention them — the counters are the litmus suite's observability.
func TestMachineStatsTraffic(t *testing.T) {
	trs := threadTraces(t, sbSource, 2, 1000)
	_, st := runMachine(t, sbMachineConfig(config.DMDP, MemTSO, 3), trs)
	if st.RemoteInvalidations == 0 {
		t.Error("no remote invalidations despite cross-core stores")
	}
	if st.RemoteStamps == 0 {
		t.Error("no T-SSBF sentinel stamps despite cross-core stores")
	}
	if st.DrainEvents == 0 {
		t.Error("no drain events under TSO")
	}
	if st.IPC() <= 0 {
		t.Error("non-positive machine IPC")
	}
	if len(st.DigestLines()) != 2+len(st.PerCore) {
		t.Errorf("digest shape: %d lines for %d cores", len(st.DigestLines()), len(st.PerCore))
	}
}

// TestMachineRejectsBadConfig: core-count/trace-count mismatch and
// non-TSO per-core drain policies are configuration errors.
func TestMachineRejectsBadConfig(t *testing.T) {
	trs := threadTraces(t, sbSource, 2, 1000)
	cfg := sbMachineConfig(config.DMDP, MemSC, 0)
	if _, err := NewMachine(cfg, trs[:1]); err == nil {
		t.Error("accepted 2-core config with 1 trace")
	}
	bad := cfg
	bad.Core.Consistency = config.RMO
	if _, err := NewMachine(bad, trs); err == nil {
		t.Error("accepted RMO per-core consistency")
	}
}
