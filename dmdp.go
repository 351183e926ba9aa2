// Package dmdp is the public API of the Dynamic Memory Dependence
// Predication reproduction (Jin & Önder, ISCA 2018): a cycle-level
// out-of-order processor model with four store-load communication
// mechanisms — a baseline store-queue machine, NoSQ, DMDP and a Perfect
// oracle — plus the synthetic SPEC CPU2006 proxy workloads and the
// harness that regenerates every table and figure of the paper's
// evaluation.
//
// Quick start:
//
//	cfg := dmdp.DefaultConfig(dmdp.DMDP)
//	st, err := dmdp.RunWorkload(cfg, "hmmer", 100_000)
//	fmt.Printf("IPC %.2f, MPKI %.2f\n", st.IPC(), st.MPKI())
//
// Arbitrary programs in the simulator's MIPS-I-like assembly can be run
// with RunSource. See the examples/ directory and DESIGN.md.
package dmdp

import (
	"context"
	"fmt"

	"dmdp/internal/asm"
	"dmdp/internal/cliutil"
	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/emu"
	"dmdp/internal/faults"
	"dmdp/internal/isa"
	"dmdp/internal/power"
	"dmdp/internal/sampling"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// Model selects the store-load communication mechanism.
type Model = config.Model

// The four simulated models.
const (
	Baseline = config.Baseline
	NoSQ     = config.NoSQ
	DMDP     = config.DMDP
	Perfect  = config.Perfect
	FnF      = config.FnF
)

// Consistency selects the store buffer commit ordering.
type Consistency = config.Consistency

// Memory consistency models.
const (
	TSO = config.TSO
	RMO = config.RMO
)

// Config is the machine description; obtain one from DefaultConfig and
// adjust with its With* methods.
type Config = config.Config

// Stats is the result of one simulation.
type Stats = core.Stats

// EnergyResult is the power model's output.
type EnergyResult = power.Result

// Trace is an analyzed correct-path execution.
type Trace = trace.Trace

// DefaultConfig returns the paper's 8-wide baseline machine configured
// for the given model.
func DefaultConfig(m Model) Config { return config.Default(m) }

// Workloads lists the 21 SPEC CPU2006 proxy benchmarks (Integer suite
// first, paper order).
func Workloads() []string { return workload.Names() }

// IntWorkloads lists the Integer suite.
func IntWorkloads() []string { return workload.IntNames() }

// FloatWorkloads lists the Float suite.
func FloatWorkloads() []string { return workload.FloatNames() }

// WorkloadSource returns the generated assembly of a proxy benchmark.
func WorkloadSource(name string) (string, error) {
	s, ok := workload.Get(name)
	if !ok {
		return "", fmt.Errorf("dmdp: unknown workload %q", name)
	}
	return s.Source(), nil
}

// BuildWorkloadTrace assembles, emulates and analyzes a proxy benchmark
// for at most maxInstr instructions.
func BuildWorkloadTrace(name string, maxInstr int64) (*Trace, error) {
	s, ok := workload.Get(name)
	if !ok {
		return nil, fmt.Errorf("dmdp: unknown workload %q", name)
	}
	return s.BuildTrace(maxInstr)
}

// BuildTrace assembles src (MIPS-I-like assembly; see internal/asm) and
// runs it functionally for at most maxInstr instructions, returning the
// analyzed trace.
func BuildTrace(src string, maxInstr int64) (*Trace, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return emu.Run(p, maxInstr)
}

// Run simulates an analyzed trace under cfg.
func Run(cfg Config, tr *Trace) (*Stats, error) {
	c, err := core.New(cfg, tr)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// RunWorkload simulates a proxy benchmark under cfg for at most maxInstr
// instructions.
func RunWorkload(cfg Config, name string, maxInstr int64) (*Stats, error) {
	tr, err := BuildWorkloadTrace(name, maxInstr)
	if err != nil {
		return nil, err
	}
	return Run(cfg, tr)
}

// RunSource assembles and simulates an assembly program.
func RunSource(cfg Config, src string, maxInstr int64) (*Stats, error) {
	tr, err := BuildTrace(src, maxInstr)
	if err != nil {
		return nil, err
	}
	return Run(cfg, tr)
}

// Energy evaluates the reference power model over a run's statistics.
func Energy(st *Stats) EnergyResult { return power.Compute(st, power.DefaultParams()) }

// SimError is the structured failure a hardened run returns: a
// commit-time oracle divergence, a tripped watchdog, a trace desync or a
// register refcount underflow, with the cycle, PC, disassembly, the last
// retired instructions and a pipeline occupancy snapshot. Extract it
// with errors.As and render the full diagnostic with its Bundle method.
type SimError = core.SimError

// FaultConfig configures the deterministic fault injector (set it on
// Config.Faults or via Config.WithFaults; the zero value disables
// injection).
type FaultConfig = faults.Config

// FaultCounts reports injected faults by class (Stats.Faults).
type FaultCounts = faults.Counts

// WatchdogConfig bounds a run's total cycles and no-retire window
// (Config.Watchdog or Config.WithWatchdog).
type WatchdogConfig = config.Watchdog

// PipeTracer records per-instruction pipeline stage timings.
type PipeTracer = core.PipeTracer

// RunTraced simulates tr under cfg with pipeline tracing enabled for the
// first maxRecords retired instructions; render the result with
// PipeTracer.Render.
func RunTraced(cfg Config, tr *Trace, maxRecords int) (*Stats, *PipeTracer, error) {
	c, err := core.New(cfg, tr)
	if err != nil {
		return nil, nil, err
	}
	pt := c.AttachTracer(maxRecords)
	st, err := c.Run()
	if err != nil {
		return nil, nil, err
	}
	return st, pt, nil
}

// LoadObject parses a DMO1 binary object produced by cmd/dmdpasm -o and
// runs it functionally for at most maxInstr instructions, returning the
// analyzed trace.
func LoadObject(data []byte, maxInstr int64) (*Trace, error) {
	p, err := isa.UnmarshalProgram(data)
	if err != nil {
		return nil, err
	}
	return emu.Run(p, maxInstr)
}

// SampledResult is the weighted aggregate of a sampled simulation.
type SampledResult = sampling.Combined

// RunSampled estimates a run of tr under cfg by simulating only the
// intervals the sampling spec selects (the paper's SimPoint-style
// methodology, §V) and combining their statistics by weight. The spec
// takes the -sample syntax of the command-line tools: "auto", "auto:K"
// or "COUNTxLEN", optionally "+WARMUP". Each interval starts cold, like
// the paper's checkpoints.
func RunSampled(cfg Config, tr *Trace, spec string) (*SampledResult, error) {
	sp, err := cliutil.ParseSampleSpec(spec)
	if err != nil {
		return nil, err
	}
	out, err := sampling.Execute(context.Background(), cfg, sampling.Request{
		Spec: sp, Budget: int64(len(tr.Entries)), Jobs: 1, Trace: tr,
	})
	if err != nil {
		return nil, err
	}
	return out.Combined, nil
}
