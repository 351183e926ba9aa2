package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/emu"
	"dmdp/internal/experiments"
	"dmdp/internal/workload"
)

// suite renders every experiment of experiments.All() at a small budget
// on a Runner with one worker per CPU and a fresh artifact store. It is
// the only workload where the experiment runner, its scheduler and the
// result store do real work, and it runs the core as many short
// simulations instead of a few long ones. A round consumes its runner
// (results stay cached in it), so the suite sets up before every round.
// It runs the paper's fixed matrix and ignores the seed.
type suite struct {
	budget   int64
	jobs     int
	tmpDir   string
	runner   *experiments.Runner
	store    *artifact.Store
	storeDir string

	// Traced-pass accumulators.
	setupPasses, rounds    int64
	asm, emu, analyze      time.Duration
	emuInstr               int64
	warmup                 time.Duration
	sampErr, mcIPC, rest   time.Duration
	warmupCPU, renderCPU   float64
	warmupWall, renderWall time.Duration
	sims, declared         int64
	setupIO, roundIO       artifact.Counters
	runs                   coreAcc
}

func newSuite(b *bench) *suite {
	budget := int64(20_000)
	if b.opt.tiny {
		budget = 2_000
	}
	if b.opt.seed != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: suite runs the paper's fixed matrix and ignores --seed")
	}
	return &suite{budget: budget, jobs: b.jobs, tmpDir: b.opt.tmpDir}
}

func (s *suite) setupsUpFront() int { return 0 }

func (s *suite) close() {
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
		s.storeDir = ""
	}
}

// setup builds a fresh runner over a fresh store and builds every
// proxy's trace through it. A traced pass first attributes the build
// by calling the assembler, emulator and dependence analysis directly.
func (s *suite) setup(b *bench, tr *tracer, parent int) error {
	id := tr.begin("artifact.open", parent, 0)
	s.close()
	store, dir, err := openStore(s.tmpDir, "suite-store-")
	tr.end(id)
	if err != nil {
		return err
	}
	s.store, s.storeDir = store, dir
	s.runner = experiments.NewRunner(experiments.Options{
		Budget: s.budget, Parallel: true, Jobs: s.jobs, Cache: store,
	})
	for _, name := range workload.Names() {
		op := b.nextOp()
		if tr != nil {
			if err := s.attribute(tr, parent, op, name); err != nil {
				return err
			}
		}
		id = tr.begin("experiments.trace", parent, op)
		_, err := s.runner.Trace(name)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	if tr != nil {
		s.setupPasses++
		addCounters(&s.setupIO, artifact.Counters{}, store.Counters())
	}
	return nil
}

// attribute times the pieces of one trace build.
func (s *suite) attribute(tr *tracer, parent, op int, name string) error {
	spec, ok := workload.Get(name)
	if !ok {
		return fmt.Errorf("unknown proxy %q", name)
	}
	id := tr.begin("asm.program", parent, op)
	prog, err := spec.Program()
	s.asm += tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("emu.run", parent, op)
	t, err := emu.RunCtx(context.Background(), prog, s.budget)
	s.emu += tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("trace.analyze", parent, op)
	t.Analyze()
	s.analyze += tr.end(id)
	s.emuInstr += int64(len(t.Entries))
	return nil
}

// round runs every declared simulation on the pool, then renders every
// experiment. Each render is one operation, and so is each failure the
// runner records.
func (s *suite) round(b *bench, tr *tracer, parent int) error {
	r := s.runner
	all := experiments.All()
	before := s.store.Counters()

	// CPU and wall time of the warm-up and of the renders, for the
	// scheduler's busy fractions.
	var warmupCPU, renderCPU float64
	var warmupWall, renderWall, warmup time.Duration
	b.measure(tr, parent, "warmup", func() {
		cpu0, t0 := cpuSeconds(), time.Now()
		id := tr.begin("experiments.warmup", parent, 0)
		// WarmUp's error only aggregates the failures the runner
		// records; they are counted below.
		_ = r.WarmUp(all...)
		warmup = tr.end(id)
		warmupCPU, warmupWall = cpuSeconds()-cpu0, time.Since(t0)
	})

	// The renders are timed as one operation: a forced collection
	// before each of them would cost more than most renders.
	var sampErr, mcIPC, rest time.Duration
	b.measure(tr, parent, "render", func() {
		cpu0, t0 := cpuSeconds(), time.Now()
		for _, e := range all {
			id := tr.begin("experiments.render."+e.ID, parent, b.nextOp())
			out, err := e.Run(r)
			d := tr.end(id)
			switch e.ID {
			case "samp-err":
				sampErr += d
			case "mc-ipc":
				mcIPC += d
			default:
				rest += d
			}
			if err == nil && strings.TrimSpace(out) == "" {
				err = errors.New("rendered empty")
			}
			if err == nil {
				err = b.led.output("render/"+e.ID, []byte(out))
			}
			b.led.op("suite render "+e.ID, err)
		}
		renderCPU, renderWall = cpuSeconds()-cpu0, time.Since(t0)
	})
	for _, f := range r.Failures() {
		b.led.op("suite run "+f.Bench+" "+f.Label, f.Err)
	}
	if tr == nil {
		return nil
	}
	s.rounds++
	s.warmup += warmup
	s.sampErr, s.mcIPC, s.rest = s.sampErr+sampErr, s.mcIPC+mcIPC, s.rest+rest
	s.warmupCPU += warmupCPU
	s.warmupWall += warmupWall
	s.renderCPU += renderCPU
	s.renderWall += renderWall
	addCounters(&s.roundIO, before, s.store.Counters())

	id := tr.begin("bench.collect", parent, 0)
	defer tr.end(id)
	s.sims += r.Sims()
	s.collectRuns(r, all)
	return nil
}

// collectRuns reads the runner's cached result of every distinct
// declared run (a cache hit, no simulation) and accounts its core time
// from the wall clock the core records for each Run.
func (s *suite) collectRuns(r *experiments.Runner, all []experiments.Experiment) {
	type runID struct {
		bench  string
		digest config.Digest
	}
	defaults := make(map[runID]string)
	for _, p := range detailProxies {
		for _, m := range detailModels {
			cfg := config.Default(m)
			defaults[runID{p, cfg.Digest()}] = coreRateName(p, m.String())
		}
	}
	seen := make(map[runID]bool)
	for _, e := range all {
		if e.Runs == nil {
			continue
		}
		for _, spec := range e.Runs(r) {
			s.declared++
			id := runID{spec.Bench, spec.Cfg.Digest()}
			if seen[id] {
				continue
			}
			seen[id] = true
			st, err := r.Run(spec.Bench, spec.Cfg, spec.Label)
			if err != nil {
				continue // already counted as a failed operation
			}
			s.runs.add(defaults[id], st, 0, time.Duration(st.SimWallClockNS), 0)
		}
	}
	s.runs.passes++
}

func (s *suite) layers(m map[string]float64) {
	if s.setupPasses > 0 {
		n := float64(s.setupPasses)
		m["asm.program_ms"] = s.asm.Seconds() * 1e3 / n
		m["emu.minst_per_s"] = ratio(float64(s.emuInstr)/1e6, (s.emu - s.analyze).Seconds())
		m["trace.analyze_minst_per_s"] = ratio(float64(s.emuInstr)/1e6, s.analyze.Seconds())
	}
	if s.rounds == 0 {
		return
	}
	n := float64(s.rounds)
	setIO(m, s.setupIO, float64(s.setupPasses), s.roundIO, n)
	m["experiments.warmup_s"] = s.warmup.Seconds() / n
	m["experiments.render_s.samp-err"] = s.sampErr.Seconds() / n
	m["experiments.render_s.mc-ipc"] = s.mcIPC.Seconds() / n
	m["experiments.render_s.rest"] = s.rest.Seconds() / n
	m["experiments.dedup_frac"] = ratio(float64(s.sims), float64(s.declared))
	m["sched.busy_frac.warmup"] = ratio(s.warmupCPU, s.warmupWall.Seconds()*float64(s.jobs))
	m["sched.busy_frac.render"] = ratio(s.renderCPU, s.renderWall.Seconds()*float64(s.jobs))
	s.runs.layers(m, false, false)
}
