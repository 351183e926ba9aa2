// Command dmdpsim runs one proxy benchmark (or an assembly file) under
// one store-load communication model and prints the run's statistics.
//
// Usage:
//
//	dmdpsim -bench hmmer -model dmdp -instr 300000
//	dmdpsim -file prog.s -model nosq
//	dmdpsim -bench gcc -sample 10x1000+200
//	dmdpsim -bench gcc -instr 100M -sample auto -checkpoint -cache rw -j 8
//	dmdpsim -bench gcc -cache rw
//	dmdpsim -list
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dmdp"
	"dmdp/internal/artifact"
	"dmdp/internal/asm"
	"dmdp/internal/cliutil"
	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/profiling"
	"dmdp/internal/sampling"
)

func main() {
	var (
		benchName = flag.String("bench", "hmmer", "proxy benchmark name (see -list)")
		file      = flag.String("file", "", "assembly file to run instead of a proxy benchmark")
		modelName = flag.String("model", "dmdp", "model: baseline | nosq | dmdp | perfect | fnf")
		instr     = flag.String("instr", "300000", "instruction budget (accepts 300000, 300_000, 300k)")
		sbSize    = flag.Int("sb", 0, "store buffer entries (0 = default 32)")
		width     = flag.Int("width", 0, "issue width (0 = default 8)")
		rob       = flag.Int("rob", 0, "ROB entries (0 = default 256)")
		physRegs  = flag.Int("physregs", 0, "physical registers (0 = default 320)")
		rmo       = flag.Bool("rmo", false, "use RMO consistency instead of TSO")
		cores     = flag.Int("cores", 1, "run N copies of the workload on an N-core machine over a shared L2 (timing-only)")
		mcSeed    = flag.Uint64("mcseed", 0, "multicore interleaving seed (with -cores > 1)")
		list      = flag.Bool("list", false, "list proxy benchmarks and exit")
		pipeview  = flag.Int("pipeview", 0, "render a pipeline view of the first N retired instructions")
		src       = flag.Bool("source", false, "print the benchmark's generated assembly and exit")
		sample    = flag.String("sample", "", "interval sampling: auto | auto:K | COUNTxLEN, optionally +WARMUP (e.g. auto:8+2k, 10x1000+200)")
		ckpt      = flag.Bool("checkpoint", false, "stream the sampled run and persist/restore its checkpoints and plan in the artifact cache (needs -cache rw or ro)")
		warmF     = flag.Bool("warm", false, "functionally warm caches/TLB/predictors from the profiling pass before each sampled interval (needs -sample; forced off with -flip)")
		jobs      = flag.Int("j", 1, "sampled-interval worker-pool width (results are byte-identical at any width)")
		sampFull  = flag.String("samplefull", "auto", "also simulate the full trace and report sampled-vs-full IPC error: auto (only for budgets <= 5M) | on | off")
		maxCycles = flag.Int64("maxcycles", 0, "abort with a diagnostic after N simulated cycles (0 = unlimited)")
		flipRate  = flag.Float64("flip", 0, "inject dependence-prediction flips at this rate (hardening demo)")
		faultSeed = flag.Int64("faultseed", 1, "fault injector seed (with -flip)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file")
		cache     = cliutil.RegisterCache(flag.CommandLine)
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "dmdpsim:", err)
		}
	}()

	if *list {
		fmt.Println("Integer:", strings.Join(dmdp.IntWorkloads(), " "))
		fmt.Println("Float:  ", strings.Join(dmdp.FloatWorkloads(), " "))
		return
	}

	budget, err := cliutil.ParseInstr(*instr)
	if err != nil {
		fatal(fmt.Errorf("-instr: %w", err))
	}
	store, err := cache.Open()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if line := store.Summary(); line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}()

	model, err := config.ParseModel(*modelName)
	if err != nil {
		fatal(err)
	}
	cfg := dmdp.DefaultConfig(model)
	if *sbSize > 0 {
		cfg = cfg.WithStoreBuffer(*sbSize)
	}
	if *width > 0 {
		cfg = cfg.WithIssueWidth(*width)
	}
	if *rob > 0 {
		cfg = cfg.WithROB(*rob)
	}
	if *physRegs > 0 {
		cfg = cfg.WithPhysRegs(*physRegs)
	}
	if *rmo {
		cfg = cfg.WithConsistency(dmdp.RMO)
	}
	if *maxCycles != 0 { // negative values reach Validate and are rejected there
		cfg = cfg.WithWatchdog(*maxCycles, 0)
	}
	if *flipRate != 0 {
		cfg = cfg.WithFaults(dmdp.FaultConfig{Seed: *faultSeed, PredictionFlipRate: *flipRate})
	}

	if *src {
		s, err := dmdp.WorkloadSource(*benchName)
		if err != nil {
			fatal(err)
		}
		fmt.Print(s)
		return
	}

	// The workload is the bytes it is built from: the generated proxy
	// source, or the raw -file contents (source or object alike). They
	// are produced once; the trace key hashes them, and the trace build
	// and the streaming path both load the program from them.
	var text []byte
	if *file != "" {
		text, err = os.ReadFile(*file)
	} else {
		var s string
		s, err = dmdp.WorkloadSource(*benchName)
		text = []byte(s)
	}
	if err != nil {
		fatal(err)
	}
	traceKey := artifact.TraceKey(sha256.Sum256(text), budget)
	name := workloadName(*benchName, *file)

	// loadProg loads the program without emulating it — the streaming
	// sampled path re-materializes only the planned intervals, so 100M+
	// budgets never hold a full trace in memory.
	loadProg := func() (*isa.Program, error) { return asm.Load(text) }

	// loadTrace builds the trace through the trace store: decode on hit,
	// build + persist on miss.
	loadTrace := func() *dmdp.Trace {
		tr, err := store.Trace(traceKey, name, func() (*dmdp.Trace, error) {
			prog, err := loadProg()
			if err != nil {
				return nil, err
			}
			return emu.Run(prog, budget)
		})
		if err != nil {
			fatal(err)
		}
		return tr
	}

	if *cores > 1 {
		if *rmo {
			fatal(fmt.Errorf("-cores requires TSO per-core consistency (drop -rmo)"))
		}
		if *sample != "" || *pipeview > 0 || *flipRate != 0 {
			fatal(fmt.Errorf("-cores is incompatible with -sample, -pipeview and -flip"))
		}
		runMulticore(cfg, model, *cores, *mcSeed, loadTrace())
		return
	}
	if *sample != "" {
		runSampled(sampleRun{
			cfg: cfg, model: model, budget: budget,
			spec: *sample, full: *sampFull, jobs: *jobs, checkpoint: *ckpt, warm: *warmF,
			store: store, traceKey: traceKey,
			loadTrace: loadTrace, loadProg: loadProg,
		})
		return
	}
	if *pipeview > 0 {
		st, pt, err := dmdp.RunTraced(cfg, loadTrace(), *pipeview)
		if err != nil {
			fatal(err)
		}
		pt.Render(os.Stdout)
		fmt.Println()
		printStats(model, st)
		return
	}

	// Plain runs go through the result store. Fault-injected runs take
	// the zero key, which is never persisted: hardening demos should
	// always exercise the real simulator.
	var resultKey artifact.Key
	if *flipRate == 0 {
		resultKey = artifact.ResultKey(traceKey, cfg.Digest(), budget)
	}
	st, err := store.Result(resultKey, name, model.String(), func() (*dmdp.Stats, error) {
		return dmdp.Run(cfg, loadTrace())
	})
	if err != nil {
		fatal(err)
	}
	printStats(model, st)
}

func workloadName(bench, file string) string {
	if file != "" {
		return file
	}
	return bench
}

// fullCompareLimit is the largest budget -samplefull auto compares
// against a full run (a full run would defeat the point of sampling a
// 100M budget).
const fullCompareLimit = 5_000_000

// sampleRun bundles everything the sampled path needs from main.
type sampleRun struct {
	cfg        dmdp.Config
	model      dmdp.Model
	budget     int64
	spec       string
	full       string // -samplefull: auto | on | off
	jobs       int
	checkpoint bool
	warm       bool
	store      *artifact.Store
	traceKey   artifact.Key
	loadTrace  func() *dmdp.Trace
	loadProg   func() (*isa.Program, error)
}

// runSampled exercises the checkpointed sampling methodology (paper §V):
// plan intervals (BBV phase clustering for auto specs, centered
// systematic sampling otherwise), simulate them on a deterministic
// worker pool, and combine by weight. The trace is loaded only when the
// full-run comparison needs it, and then sliced unless -checkpoint is
// set; every other run streams, restoring intervals from architectural
// checkpoints. The path, timing and warming lines go to stderr so
// stdout stays byte-identical across hosts, -j widths and cache states.
func runSampled(r sampleRun) {
	spec, err := cliutil.ParseSampleSpec(r.spec)
	if err != nil {
		fatal(fmt.Errorf("-sample: %w", err))
	}
	switch r.full {
	case "auto", "on", "off":
	default:
		fatal(fmt.Errorf("-samplefull %q (want auto, on or off)", r.full))
	}
	compareFull := r.full == "on" || (r.full == "auto" && r.budget <= fullCompareLimit)

	req := sampling.Request{
		Spec: spec, Budget: r.budget, Jobs: r.jobs,
		Checkpoint: r.checkpoint, Store: r.store, TraceKey: r.traceKey,
		Warm: r.warm,
	}
	var fullTrace *dmdp.Trace
	if compareFull {
		fullTrace = r.loadTrace()
		req.Trace = fullTrace
	} else {
		prog, err := r.loadProg()
		if err != nil {
			fatal(err)
		}
		req.Prog = prog
	}

	start := time.Now()
	out, err := sampling.Execute(context.Background(), r.cfg, req)
	if err != nil {
		fatal(err)
	}
	sampledWall := time.Since(start)

	c := out.Combined
	fmt.Printf("model              %s\n", r.model)
	fmt.Printf("sampling spec      %s\n", spec.String())
	fmt.Printf("plan               %d intervals over %d entries\n", len(out.Plan.Intervals), out.Total)
	fmt.Printf("sampled instrs     %d of %d (%.1f%%)\n",
		c.TotalInstructions, out.Total,
		100*float64(c.TotalInstructions)/float64(out.Total))
	fmt.Printf("sampled IPC        %.4f\n", c.WeightedIPC)
	fmt.Printf("sampled MPKI       %.3f\n", c.WeightedMPKI)
	if compareFull {
		full, err := dmdp.Run(r.cfg, fullTrace)
		if err != nil {
			fatal(err)
		}
		fullIPC := full.IPC()
		fmt.Printf("full IPC           %.4f\n", fullIPC)
		fmt.Printf("full MPKI          %.3f\n", full.MPKI())
		fmt.Printf("IPC error          %+.2f%%\n", 100*(c.WeightedIPC-fullIPC)/fullIPC)
	}
	// The path, warming accounting and timing go to stderr: stdout must
	// stay byte-identical across -j widths and cold/warm artifact caches.
	path := "materialized"
	if out.Streamed {
		path = "streamed"
	}
	if out.PlanCached {
		path += " (cached plan)"
	}
	fmt.Fprintf(os.Stderr, "sampling path      %s\n", path)
	if out.Warmed {
		fmt.Fprintf(os.Stderr, "functional warming warmed %d of %d intervals (%d cold starts), %.1f KiB of snapshots installed\n",
			out.WarmedIntervals, out.WarmedIntervals+out.ColdStartIntervals,
			out.ColdStartIntervals, float64(out.WarmSnapshotBytes)/1024)
		if out.WarmNanos > 0 {
			fmt.Fprintf(os.Stderr, "warming throughput %.1f Mentries/s over the profiling pass (%d entries)\n",
				float64(out.WarmEntries)*1e3/float64(out.WarmNanos), out.WarmEntries)
		}
	}
	fmt.Fprintf(os.Stderr, "sampled wall clock %.3fs (%d intervals, -j %d)\n",
		sampledWall.Seconds(), len(out.Plan.Intervals), r.jobs)
}

// runMulticore replicates the workload trace across an N-core machine
// over a shared L2 (core.NewReplicated: timing-only, deterministic
// lockstep, the seed only skews starts). Each core runs the same
// isolated trace, so the aggregate IPC against the single-core run
// isolates shared-hierarchy effects.
func runMulticore(cfg dmdp.Config, model dmdp.Model, n int, seed uint64, tr *dmdp.Trace) {
	m, err := core.NewReplicated(cfg, n, seed, tr)
	if err != nil {
		fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model              %s\n", model)
	fmt.Printf("cores              %d (shared L2, seed %d)\n", n, seed)
	fmt.Printf("global cycles      %d\n", st.GlobalCycles)
	fmt.Printf("instructions       %d\n", st.Instructions)
	fmt.Printf("aggregate IPC      %.3f\n", st.IPC())
	fmt.Printf("remote invals      %d (T-SSBF stamps %d)\n", st.RemoteInvalidations, st.RemoteStamps)
	fmt.Printf("SB drains          %d\n", st.DrainEvents)
	for i := range st.PerCore {
		c := &st.PerCore[i]
		fmt.Printf("core %-2d            IPC %.3f, %d instr, %d reexecs, %d invals, L1 miss %.1f%%\n",
			i, c.IPC(), c.Instructions, c.Reexecs, c.Invalidations, 100*c.L1MissRate)
	}
	if st.SimWallClockNS > 0 {
		fmt.Fprintf(os.Stderr, "sim wall clock     %.3fs\n", float64(st.SimWallClockNS)/1e9)
	}
}

func printStats(model dmdp.Model, st *dmdp.Stats) {
	e := dmdp.Energy(st)
	fmt.Printf("model              %s\n", model)
	fmt.Printf("instructions       %d\n", st.Instructions)
	fmt.Printf("uops               %d\n", st.Uops)
	fmt.Printf("cycles             %d\n", st.Cycles)
	fmt.Printf("IPC                %.3f\n", st.IPC())
	fmt.Printf("loads              %d (direct %d, bypass %d, delayed %d, predicated %d)\n",
		st.TotalLoads(), st.LoadCount[0], st.LoadCount[1], st.LoadCount[2], st.LoadCount[3])
	fmt.Printf("mean load time     %.2f cycles (p50<=%d, p90<=%d, p99<=%d)\n",
		st.MeanLoadExecTime(),
		st.LoadLatencyPercentile(50), st.LoadLatencyPercentile(90), st.LoadLatencyPercentile(99))
	fmt.Printf("low-conf loads     %d (mean %.2f cycles)\n", st.LowConfCount, st.MeanLowConfExecTime())
	fmt.Printf("cloaks             %d\n", st.Cloaks)
	fmt.Printf("predications       %d\n", st.Predications)
	fmt.Printf("delayed loads      %d\n", st.DelayedLoads)
	fmt.Printf("dep mispredicts    %d (%.2f MPKI; direct %d, bypass %d, delayed %d, predicated %d)\n",
		st.DepMispredicts, st.MPKI(),
		st.DepMispredictsByCat[0], st.DepMispredictsByCat[1], st.DepMispredictsByCat[2], st.DepMispredictsByCat[3])
	fmt.Printf("re-executions      %d (stall %.1f cyc/1k instr)\n", st.Reexecs, st.ReexecStallsPerKilo())
	fmt.Printf("SB-full stalls     %.1f cyc/1k instr\n", st.SBStallsPerKilo())
	fmt.Printf("branch mispredicts %d\n", st.BranchMispredicts)
	fmt.Printf("L1 miss rate       %.1f%%\n", 100*st.L1MissRate)
	fmt.Printf("energy             %.1f uJ (EPI %.1f pJ)\n", e.TotalPJ/1e6, e.EPI)
	fmt.Printf("EDP                %.3e pJ*cyc\n", e.EDP)
	fmt.Printf("oracle checks      %d\n", st.OracleChecks)
	if st.SimWallClockNS > 0 {
		fmt.Printf("sim wall clock     %.3fs (%.0f instr/s host throughput)\n",
			float64(st.SimWallClockNS)/1e9, st.SimIPS())
	}
	if st.Faults.Total() > 0 {
		fmt.Printf("injected faults    %d (flips %d, lowconf %d, predicate %d, value %d)\n",
			st.Faults.Total(), st.Faults.PredictionFlips, st.Faults.ForcedLowConf,
			st.Faults.PredicateCorruptions, st.Faults.ValueCorruptions)
	}
}

// fatal prints the error — the full diagnostic bundle when the
// simulation died on a structured SimError — and exits non-zero.
func fatal(err error) {
	var se *dmdp.SimError
	if errors.As(err, &se) {
		fmt.Fprintln(os.Stderr, "dmdpsim: simulation failed")
		fmt.Fprintln(os.Stderr, se.Bundle())
	} else {
		fmt.Fprintln(os.Stderr, "dmdpsim:", err)
	}
	os.Exit(1)
}
