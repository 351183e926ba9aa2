package core

import (
	"context"
	"fmt"
	"time"

	"dmdp/internal/cache"
	"dmdp/internal/config"
	"dmdp/internal/dram"
	"dmdp/internal/faults"
	"dmdp/internal/trace"
)

// This file is the multicore machine: N timing cores stepped in global
// lockstep over a shared coherent L2, with cross-core store visibility
// delivered as remote line invalidations plus T-SSBF sentinel stamps
// (the paper's §IV-F plumbing made real instead of synthetic). Each
// core's DMDP machinery — T-SSBF, SDP, cloaking, predication, retire
// re-execution — stays private; the machine only couples the cores at
// the two consistency-relevant points: store visibility (retire under
// SC, store-buffer drain under TSO) and load value resolution at retire
// (the semantic coupling layer in mcsem.go).
//
// The cores remain trace-driven: each replays its thread's isolated
// trace, so all intra-core speculation checks stay valid. Concurrent
// semantics (what value a load really sees under this interleaving) are
// computed by the semantic layer at the retire boundary, which is sound
// because litmus programs keep addresses and control flow independent
// of shared data (the machine verifies this and fails otherwise).

// MemModel selects the consistency contract the machine enforces and
// the litmus checker verifies against the I2E reference.
type MemModel int

const (
	// MemSC: sequential consistency. Stores become globally visible at
	// retirement; every load effectively reads at retirement.
	MemSC MemModel = iota
	// MemTSO: total store order. Stores become globally visible when the
	// timing store buffer drains them (FIFO), and loads may forward from
	// the core's own pending stores.
	MemTSO
)

func (m MemModel) String() string {
	if m == MemTSO {
		return "tso"
	}
	return "sc"
}

// ParseMemModel parses "sc" or "tso".
func ParseMemModel(s string) (MemModel, error) {
	switch s {
	case "sc":
		return MemSC, nil
	case "tso":
		return MemTSO, nil
	}
	return 0, fmt.Errorf("unknown memory model %q (want sc or tso)", s)
}

// MachineConfig describes a multicore machine.
type MachineConfig struct {
	Cores int
	// Core is the per-core timing configuration. The machine forces
	// DisableFastForward (lockstep stepping needs every core on the same
	// global clock), clears fault injection, and requires TSO
	// store-buffer draining.
	Core config.Config
	// MemModel selects the store-visibility point and the contract the
	// semantic layer enforces.
	MemModel MemModel
	// Seed drives the interleaving: per-core start stagger and per-cycle
	// stall jitter are drawn from per-core splitmix64 streams.
	Seed uint64
	// StallProb is the per-core per-cycle probability of skipping the
	// cycle (interleaving diversity). Zero disables jitter.
	StallProb float64
	// MaxStagger bounds the per-core start offset drawn from the seed.
	MaxStagger int64
	// Semantics attaches the semantic coupling layer: per-core
	// architectural register files and a globally ordered memory whose
	// values are resolved at retire. Off = timing-only (IPC studies);
	// cross-core invalidations still fire at store drain.
	Semantics bool
	// Weaken disables the enforcement: remote stores no longer stamp the
	// T-SSBF sentinel, and the retire-time backstop re-read is skipped,
	// so stale early cache samples survive to the architectural state.
	// This is the deliberately broken build the litmus checker must
	// catch (SB r1=r2=0 under SC and friends).
	Weaken bool
	// MaxGlobalCycles bounds the global clock (0 = rely on the per-core
	// watchdogs only).
	MaxGlobalCycles int64
}

// DefaultMachineConfig returns an n-core machine over the given per-core
// model with litmus-grade defaults: semantics on, moderate interleaving
// jitter.
func DefaultMachineConfig(n int, model config.Model, mm MemModel) MachineConfig {
	return MachineConfig{
		Cores:      n,
		Core:       config.Default(model),
		MemModel:   mm,
		StallProb:  0.2,
		MaxStagger: 32,
		Semantics:  true,
	}
}

// NewReplicated builds a timing-only n-core machine that replays tr on
// every core under the per-core configuration cfg: a homogeneous-rate
// contention study over the shared L2. It has no semantic layer (that is
// for litmus programs) and no stall jitter, so the cores run in
// deterministic lockstep and seed only skews their starts.
func NewReplicated(cfg config.Config, n int, seed uint64, tr *trace.Trace) (*Machine, error) {
	mc := DefaultMachineConfig(n, cfg.Model, MemTSO)
	mc.Core = cfg
	mc.Seed = seed
	mc.StallProb = 0
	mc.Semantics = false
	traces := make([]*trace.Trace, max(n, 0))
	for i := range traces {
		traces[i] = tr
	}
	return NewMachine(mc, traces)
}

// MachineStats aggregates a multicore run. Machine-level counters live
// here, deliberately outside core.Stats (whose canonical codec and
// golden digests are frozen).
type MachineStats struct {
	GlobalCycles int64
	Instructions int64 // retired, summed over cores

	// Cross-core visibility traffic.
	DrainEvents         int64 // store-buffer entries drained (all cores)
	RemoteInvalidations int64 // line invalidations delivered to remote L1s
	RemoteStamps        int64 // T-SSBF sentinel stampings delivered

	// Enforcement outcomes for non-re-executed cache-sourced loads whose
	// word was globally written after their sample cycle: the backstop
	// re-read them at retire (enforced) or — weakened build — the stale
	// sample was kept.
	EnforcedReads  int64
	StaleReadsKept int64

	PerCore        []Stats
	SimWallClockNS int64
}

// IPC returns aggregate retired instructions per global cycle.
func (s *MachineStats) IPC() float64 {
	if s.GlobalCycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.GlobalCycles)
}

// DigestLines renders the machine counters in a fixed order (no map
// iteration anywhere: the lines are byte-identical across runs and -j
// widths for identical inputs).
func (s *MachineStats) DigestLines() []string {
	lines := []string{
		fmt.Sprintf("machine cycles=%d instructions=%d ipc=%.4f", s.GlobalCycles, s.Instructions, s.IPC()),
		fmt.Sprintf("machine drains=%d rinval=%d rstamps=%d enforced=%d stale=%d",
			s.DrainEvents, s.RemoteInvalidations, s.RemoteStamps, s.EnforcedReads, s.StaleReadsKept),
	}
	for i := range s.PerCore {
		c := &s.PerCore[i]
		lines = append(lines, fmt.Sprintf("core%d cycles=%d instructions=%d reexecs=%d invals=%d",
			i, c.Cycles, c.Instructions, c.Reexecs, c.Invalidations))
	}
	return lines
}

// mcRand is a splitmix64 stream (stable across Go versions, one stream
// per core so jitter decisions never shift between cores).
type mcRand struct{ s uint64 }

func (r *mcRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *mcRand) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

func (r *mcRand) chance(p float64) bool {
	return float64(r.next()>>11)/(1<<53) < p
}

// Machine runs N cores in global lockstep.
type Machine struct {
	cfg   MachineConfig
	cores []*Core
	sem   *mcSem // nil when cfg.Semantics is off

	g       int64 // global cycle
	rngs    []mcRand
	stagger []int64
	// l2g maps each core's local cycle L (1-based) to the global cycle it
	// executed on: l2g[i][L-1]. Only maintained with semantics attached.
	l2g [][]int64

	window int64 // per-core no-retire watchdog window
	stats  MachineStats
}

// NewMachine builds the machine over one isolated trace per core. With
// semantics attached, every trace must carry its program and initial
// memory, and all initial images must agree (same program, different
// entry points).
func NewMachine(cfg MachineConfig, traces []*trace.Trace) (*Machine, error) {
	if cfg.Cores < 1 || cfg.Cores != len(traces) {
		return nil, fmt.Errorf("machine: %d cores but %d traces", cfg.Cores, len(traces))
	}
	if cfg.Core.Consistency != config.TSO {
		return nil, fmt.Errorf("machine: per-core consistency must be TSO (in-order drain); got %v", cfg.Core.Consistency)
	}
	cc := cfg.Core
	cc.DisableFastForward = true
	cc.Faults = faults.Config{}

	m := &Machine{
		cfg:     cfg,
		cores:   make([]*Core, cfg.Cores),
		rngs:    make([]mcRand, cfg.Cores),
		stagger: make([]int64, cfg.Cores),
		window:  cc.Watchdog.NoRetireWindow,
	}
	if m.window <= 0 {
		m.window = config.DefaultNoRetireWindow
	}
	for i := range m.cores {
		c, err := New(cc, traces[i])
		if err != nil {
			return nil, fmt.Errorf("machine: core %d: %w", i, err)
		}
		m.cores[i] = c
	}
	l2 := cache.NewCache(cc.Hierarchy.L2)
	dr := dram.New(cc.Hierarchy.DRAM)
	for _, c := range m.cores {
		c.hier.L2 = l2
		c.hier.DRAM = dr
	}
	// Per-core interleaving streams: seed mixed with the core index so
	// every (seed, core) pair is an independent splitmix sequence.
	for i := range m.rngs {
		m.rngs[i] = mcRand{s: cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))}
		if cfg.MaxStagger > 0 {
			m.stagger[i] = m.rngs[i].intn(cfg.MaxStagger + 1)
		}
	}
	if cfg.Semantics {
		sem, err := newMCSem(m, traces)
		if err != nil {
			return nil, err
		}
		m.sem = sem
		m.l2g = make([][]int64, cfg.Cores)
	}
	for i, c := range m.cores {
		i := i
		c.AttachCommitHook(func(rec CommitRecord) error { return m.onRetire(i, rec) })
		c.drainHook = func(e *sbEntry) { m.onDrain(i, e) }
	}
	return m, nil
}

// coreFinished reports whether core i has retired everything AND made
// all of its stores globally visible (timing store buffer drained and,
// under TSO semantics, the semantic buffer too). A halted core keeps
// being stepped until then so other cores observe its final stores.
func (m *Machine) coreFinished(i int) bool {
	c := m.cores[i]
	if len(c.tr.Entries) == 0 {
		return true
	}
	if !c.done || !c.sb.empty() {
		return false
	}
	return m.sem == nil || len(m.sem.sbs[i]) == 0
}

// Run steps all cores to completion and returns the machine statistics.
// Like Core.Run, it returns a copy that does not keep the machine alive.
func (m *Machine) Run() (*MachineStats, error) { return m.RunContext(context.Background()) }

// RunContext is Run bounded by ctx: like Core.RunContext it polls ctx
// every cancelPollInterval global cycles and fails with a structured
// ErrCanceled SimError once ctx is done. The poll does not touch
// simulation state, so an unfired ctx leaves the statistics unchanged.
func (m *Machine) RunContext(ctx context.Context) (*MachineStats, error) {
	start := time.Now()
	done := ctx.Done()
	for {
		alive := false
		for i := range m.cores {
			if !m.coreFinished(i) {
				alive = true
				break
			}
		}
		if !alive {
			break
		}
		m.g++
		if max := m.cfg.MaxGlobalCycles; max > 0 && m.g > max {
			return nil, &SimError{Kind: ErrWatchdog, Idx: -1,
				Msg: fmt.Sprintf("machine: global cycle budget %d exhausted", max)}
		}
		if done != nil && m.g%cancelPollInterval == 0 {
			select {
			case <-done:
				return nil, &SimError{Kind: ErrCanceled, Idx: -1, Cycle: m.g, Model: m.cfg.Core.Model.String(),
					Msg: fmt.Sprintf("machine: run cancelled: %v", ctx.Err())}
			default:
			}
		}
		for i, c := range m.cores {
			if m.coreFinished(i) || m.g <= m.stagger[i] {
				continue
			}
			if m.cfg.StallProb > 0 && m.rngs[i].chance(m.cfg.StallProb) {
				continue
			}
			if m.l2g != nil {
				m.l2g[i] = append(m.l2g[i], m.g)
			}
			c.step(m.window, 0)
			if c.simErr != nil {
				return nil, fmt.Errorf("machine: core %d: %w", i, c.simErr)
			}
			if m.sem != nil && m.sem.err != nil {
				return nil, m.sem.err
			}
		}
	}
	m.stats.GlobalCycles = m.g
	m.stats.PerCore = make([]Stats, len(m.cores))
	for i, c := range m.cores {
		m.finalizeCore(c)
		m.stats.PerCore[i] = c.stats
		m.stats.Instructions += c.stats.Instructions
	}
	m.stats.SimWallClockNS = time.Since(start).Nanoseconds()
	st := m.stats
	return &st, nil
}

// finalizeCore mirrors the stats finalization RunContext performs for a
// single-core run (the machine drives step directly, bypassing it).
func (m *Machine) finalizeCore(c *Core) {
	c.stats.Cycles = c.now - c.cycleBase
	c.stats.L1MissRate = c.hier.L1D.MissRate()
	c.stats.L2MissRate = c.hier.L2.MissRate()
	c.stats.L2Accesses = c.hier.L2.Accesses
	c.stats.DRAMAccesses = c.hier.DRAM.Reads + c.hier.DRAM.Writes
	c.stats.TLBAccesses = c.tlb.Accesses
}

// globalOf translates core i's local cycle to the global cycle it ran
// on. Local cycles are 1-based; out-of-range values clamp.
func (m *Machine) globalOf(i int, local int64) int64 {
	l := m.l2g[i]
	switch {
	case local <= 0 || len(l) == 0:
		return 0
	case local > int64(len(l)):
		return l[len(l)-1]
	default:
		return l[local-1]
	}
}

// onRetire is the commit-stream hook for core i: with semantics
// attached it executes the retiring instruction against the semantic
// architectural state (resolving the load value from the global memory
// order) and, under SC, publishes retiring stores immediately. A
// returned error vetoes the retirement (surfacing as ErrLockstep).
func (m *Machine) onRetire(i int, rec CommitRecord) error {
	if m.sem == nil {
		return nil
	}
	return m.sem.retire(i, rec)
}

// onDrain fires when core i's store buffer makes entry e's bytes
// visible: the TSO global visibility point. The semantic layer (if any)
// publishes the matching semantic store; in every mode the drained
// line is invalidated in all remote cores.
func (m *Machine) onDrain(i int, e *sbEntry) {
	m.stats.DrainEvents++
	if m.sem != nil {
		if m.cfg.MemModel == MemTSO {
			m.sem.drain(i, e)
		}
		// Under SC semantics the store was already published (and remote
		// cores invalidated) at retirement; the timing drain is only a
		// pipeline event.
		return
	}
	m.remoteInvalidate(i, e.addr)
}

// remoteInvalidate delivers the coherence consequence of core src
// writing addr: every other core's L1 drops the line and — unless the
// build is weakened — its T-SSBF records the invalidation sentinel so
// vulnerable in-flight loads re-execute at retire (paper §IV-F). The
// line stays resident in the shared L2 (the write updates it).
func (m *Machine) remoteInvalidate(src int, addr uint32) {
	for j, c := range m.cores {
		if j == src {
			continue
		}
		line := addr &^ uint32(c.hier.LineBytes()-1)
		c.hier.L1D.Invalidate(line)
		m.stats.RemoteInvalidations++
		c.stats.Invalidations++
		if !m.cfg.Weaken && c.cfg.Model != config.Baseline {
			c.tssbf.InvalidateLine(line, c.hier.LineBytes())
			c.stats.TSSBFWrites += int64(c.hier.LineBytes() / 4)
			m.stats.RemoteStamps++
		}
	}
}
