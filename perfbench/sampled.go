package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/isa"
	"dmdp/internal/sampling"
	"dmdp/internal/sched"
	"dmdp/internal/warm"
)

// sampled is checkpointed, functionally warmed sampled simulation of gcc
// (compute-bound, small checkpoints) and lbm (streaming, large
// checkpoint and warm records). Each setup pass runs one cold streamed
// Execute per proxy into a fresh artifact store, which fills the plan,
// checkpoints and warm records. Each round then sweeps cached Executes
// over machine variants that share the warm key: the default machine,
// 4-issue and a 512-entry ROB. A DMDP to NoSQ switch would not share it
// (the store-distance predictor config differs), so it would re-run the
// whole profiling pass instead of measuring the cached path.
type sampled struct {
	budget  int64
	seed    int64
	jobs    int
	tmpDir  string
	spec    sampling.Spec
	proxies []sampledProxy
	// store is the latest setup pass's store; the rounds read it.
	store    *artifact.Store
	storeDir string

	// Traced-pass accumulators.
	asm                    time.Duration
	setupPasses, rounds    int64
	profileInstr           int64
	profile                time.Duration
	warmEntries, warmNanos int64
	setupIO, roundIO       artifact.Counters
	planLookups, planHits  int64
	warmed, coldStarts     int64
	restore, install       time.Duration
	intervals              int64
	detailedInstr          int64
	pools                  time.Duration
	runs                   coreAcc
}

type sampledProxy struct {
	name string
	prog *isa.Program
	key  artifact.Key
}

// sweepConfigs are the machine variants of a round; the first is the
// machine of the cold run.
var sweepConfigs = []struct {
	name string
	cfg  config.Config
}{
	{"dmdp", config.Default(config.DMDP)},
	{"dmdp-issue4", config.Default(config.DMDP).WithIssueWidth(4)},
	{"dmdp-rob512", config.Default(config.DMDP).WithROB(512)},
}

func newSampled(b *bench) *sampled {
	budget := int64(8_000_000)
	if b.opt.tiny {
		budget = 200_000
	}
	return &sampled{
		budget: budget, seed: b.opt.seed, jobs: b.jobs, tmpDir: b.opt.tmpDir,
		spec: sampling.Spec{Auto: true, K: 8},
	}
}

func (s *sampled) setupsUpFront() int { return 3 }

func (s *sampled) close() {
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
		s.storeDir = ""
	}
}

// openStore opens a read-write artifact store in a fresh temporary
// directory under parent.
func openStore(parent, pattern string) (*artifact.Store, string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return nil, "", err
	}
	store, err := artifact.Open(dir, artifact.RW, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return store, dir, nil
}

func (s *sampled) request(p sampledProxy) sampling.Request {
	return sampling.Request{
		Spec: s.spec, Budget: s.budget, Jobs: s.jobs,
		Checkpoint: true, Store: s.store, TraceKey: p.key, Warm: true, Prog: p.prog,
	}
}

func (s *sampled) planKey(p sampledProxy) artifact.Key {
	return artifact.PlanKey(p.key, s.spec.String(), sampling.PlannerVersion)
}

// setup assembles the proxies and runs the cold sampled simulation of
// each into a fresh store, replacing the previous pass's store.
func (s *sampled) setup(b *bench, tr *tracer, parent int) error {
	id := tr.begin("artifact.open", parent, 0)
	s.close()
	store, dir, err := openStore(s.tmpDir, "sampled-store-")
	tr.end(id)
	if err != nil {
		return err
	}
	s.store, s.storeDir = store, dir
	s.proxies = s.proxies[:0]
	for _, name := range []string{"gcc", "lbm"} {
		spec, err := heldOut(name, s.seed)
		if err != nil {
			return err
		}
		op := b.nextOp()
		id := tr.begin("asm.program", parent, op)
		prog, err := spec.Program()
		s.asm += tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("workload.source_hash", parent, op)
		p := sampledProxy{name, prog, artifact.TraceKey(spec.SourceHash(), s.budget)}
		tr.end(id)
		s.proxies = append(s.proxies, p)

		var comb *sampling.Combined
		if tr == nil {
			var out *sampling.Outcome
			out, err = sampling.Execute(context.Background(), sweepConfigs[0].cfg, s.request(p))
			if err == nil {
				comb = out.Combined
				err = warmCheck(out.WarmedIntervals, out.ColdStartIntervals)
			}
		} else {
			comb, err = s.tracedCold(tr, parent, op, p)
		}
		if err == nil {
			err = b.led.output(name+"/"+sweepConfigs[0].name, comb.MarshalCanonical())
		}
		b.led.op("sampled cold "+name, err)
	}
	if tr != nil {
		s.setupPasses++
		addCounters(&s.setupIO, artifact.Counters{}, store.Counters())
	}
	return nil
}

// tracedCold performs the cold Execute one public piece at a time:
// profiling pass, planning, plan persistence and the interval run. The
// sweep that follows must hit the plan stored here and reproduce the
// result byte for byte, so a drift from Execute shows as failed
// operations.
func (s *sampled) tracedCold(tr *tracer, parent, op int, p sampledProxy) (*sampling.Combined, error) {
	cfg := sweepConfigs[0].cfg
	wcfg := warm.ConfigFrom(cfg)
	id := tr.begin("sampling.build_stream", parent, op)
	stream, err := sampling.BuildStream(context.Background(), p.prog, s.budget, chunkLen(s.budget), s.store, p.key, true, &wcfg)
	s.profile += tr.end(id)
	if err != nil {
		return nil, err
	}
	s.profileInstr += stream.Total
	s.warmEntries += stream.WarmEntries
	s.warmNanos += stream.WarmNanos

	id = tr.begin("sampling.auto_plan", parent, op)
	plan, err := stream.AutoPlan(s.spec.Phases())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	plan.Warmup = s.spec.Warmup
	id = tr.begin("artifact.store_plan", parent, op)
	s.store.StorePlan(s.planKey(p), planRecord(plan, stream))
	tr.end(id)

	id = tr.begin("sampling.run_plan", parent, op)
	defer tr.end(id)
	return sampling.RunPlan(context.Background(), cfg, plan, stream.Source(plan), s.jobs)
}

// chunkLen mirrors the checkpoint spacing Execute derives from the
// budget: 1%, clamped to [1k, 1M] and to the budget.
func chunkLen(budget int64) int {
	c := budget / 100
	c = max(c, 1000)
	c = min(c, 1_000_000, budget)
	return int(c)
}

func planRecord(p sampling.Plan, st *sampling.Stream) *artifact.PlanRecord {
	rec := &artifact.PlanRecord{ChunkLen: int64(st.ChunkLen), Total: st.Total, Warmup: int64(p.Warmup), HitHalt: st.HitHalt}
	for _, iv := range p.Intervals {
		rec.Intervals = append(rec.Intervals, artifact.PlanInterval{Start: int64(iv.Start), End: int64(iv.End), Weight: iv.Weight})
	}
	return rec
}

func planFromRecord(rec *artifact.PlanRecord) sampling.Plan {
	p := sampling.Plan{Warmup: int(rec.Warmup)}
	for _, iv := range rec.Intervals {
		p.Intervals = append(p.Intervals, sampling.Interval{Start: int(iv.Start), End: int(iv.End), Weight: iv.Weight})
	}
	return p
}

// warmCheck fails a sampled run in which any interval started cold.
func warmCheck(warmed, cold int64) error {
	if cold > 0 || warmed == 0 {
		return fmt.Errorf("%d cold-start intervals, %d warmed", cold, warmed)
	}
	return nil
}

// round sweeps the cached sampled run of every proxy over sweepConfigs.
func (s *sampled) round(b *bench, tr *tracer, parent int) error {
	before := s.store.Counters()
	for _, p := range s.proxies {
		for _, c := range sweepConfigs {
			key := p.name + "/" + c.name
			var comb *sampling.Combined
			var err error
			if tr == nil {
				var out *sampling.Outcome
				b.measure(nil, parent, key, func() {
					out, err = sampling.Execute(context.Background(), c.cfg, s.request(p))
				})
				if err == nil {
					comb = out.Combined
					if !out.PlanCached {
						err = errors.New("missed the cached plan")
					} else {
						err = warmCheck(out.WarmedIntervals, out.ColdStartIntervals)
					}
				}
			} else {
				rate := ""
				if c.name == sweepConfigs[0].name {
					rate = coreRateName(p.name, c.name)
				}
				b.measure(tr, parent, key, func() {
					comb, err = s.tracedCached(tr, parent, b.nextOp(), p, c.cfg, rate)
				})
			}
			if err == nil {
				err = b.led.output(key, comb.MarshalCanonical())
			}
			b.led.op("sampled sweep "+key, err)
		}
	}
	if tr != nil {
		s.rounds++
		s.runs.passes++
		addCounters(&s.roundIO, before, s.store.Counters())
	}
	return nil
}

// warmSource is the part of a sampling source that serves warm state.
type warmSource interface{ IntervalWarm(i int) []byte }

// tracedCached performs a cached Execute one public piece at a time:
// plan lookup, then per interval (on the worker pool) checkpoint
// restore, core construction, warm-state install and the detailed run.
// It combines the intervals the way RunPlan does, so the canonical bytes
// compare with the untraced rounds'. rate names the core.minst_per_s.*
// metric the intervals count toward, if any.
func (s *sampled) tracedCached(tr *tracer, parent, op int, p sampledProxy, cfg config.Config, rate string) (*sampling.Combined, error) {
	wcfg := warm.ConfigFrom(cfg)
	id := tr.begin("artifact.load_plan", parent, op)
	rec, ok := s.store.LoadPlan(s.planKey(p))
	tr.end(id)
	s.planLookups++
	if !ok || rec.ChunkLen != int64(chunkLen(s.budget)) {
		return nil, errors.New("missed the cached plan")
	}
	s.planHits++
	plan := planFromRecord(rec)
	id = tr.begin("sampling.open_stream", parent, op)
	src := sampling.OpenStream(p.prog, int(rec.ChunkLen), rec.Total, rec.HitHalt, s.store, p.key, &wcfg).Source(plan)
	tr.end(id)
	ws, ok := src.(warmSource)
	if !ok {
		return nil, errors.New("sampling source serves no warm state")
	}

	n := len(plan.Intervals)
	type slot struct {
		st                        *core.Stats
		err                       error
		restore, nw, install, run time.Duration
		entries                   int
		warmed                    bool
	}
	slots := make([]slot, n)
	pool := tr.begin("sched.pool", parent, op)
	sched.PoolCtx(context.Background(), s.jobs, n, func(i int) {
		sl := &slots[i]
		iv := tr.begin("sampling.interval", pool, op)
		defer tr.end(iv)
		sid := tr.begin("sampling.restore", iv, op)
		sub, warmN, err := src.IntervalTrace(i)
		sl.restore = tr.end(sid)
		if err != nil {
			sl.err = err
			return
		}
		sl.entries = len(sub.Entries)
		runCfg := cfg
		runCfg.WarmupInstructions = int64(warmN)
		sid = tr.begin("core.new", iv, op)
		c, err := core.New(runCfg, sub)
		sl.nw = tr.end(sid)
		if err != nil {
			sl.err = err
			return
		}
		if snap := ws.IntervalWarm(i); snap != nil {
			sid = tr.begin("warm.install", iv, op)
			err = c.InstallWarmState(snap)
			sl.install = tr.end(sid)
			sl.warmed = err == nil
		}
		sid = tr.begin("core.run", iv, op)
		sl.st, sl.err = c.RunContext(context.Background())
		sl.run = tr.end(sid)
	})
	s.pools += tr.end(pool)

	stats := make([]*core.Stats, n)
	cold := int64(0)
	for i, sl := range slots {
		if sl.err != nil {
			return nil, sl.err
		}
		iv := plan.Intervals[i]
		if sl.st.Instructions != int64(iv.End-iv.Start) {
			return nil, fmt.Errorf("interval [%d,%d) measured %d instructions", iv.Start, iv.End, sl.st.Instructions)
		}
		stats[i] = sl.st
		s.intervals++
		s.restore += sl.restore
		s.install += sl.install
		s.detailedInstr += int64(sl.entries)
		s.runs.add(rate, sl.st, sl.nw, sl.run, 0)
		if sl.warmed {
			s.warmed++
		} else {
			cold++
		}
	}
	s.coldStarts += cold
	if err := warmCheck(int64(n)-cold, cold); err != nil {
		return nil, err
	}
	return combine(plan, stats), nil
}

// combine weights interval results in plan order with the accumulation
// sequence of sampling.RunPlan, so equal inputs give equal bytes.
func combine(plan sampling.Plan, stats []*core.Stats) *sampling.Combined {
	var out sampling.Combined
	var wsum float64
	for i, iv := range plan.Intervals {
		st := stats[i]
		out.Results = append(out.Results, sampling.IntervalResult{Interval: iv, Stats: st})
		out.WeightedIPC += iv.Weight * st.IPC()
		out.WeightedMPKI += iv.Weight * st.MPKI()
		out.TotalInstructions += st.Instructions
		out.TotalCycles += st.Cycles
		wsum += iv.Weight
	}
	if wsum > 0 {
		out.WeightedIPC /= wsum
		out.WeightedMPKI /= wsum
	}
	return &out
}

// addCounters adds the store traffic between two counter snapshots.
func addCounters(acc *artifact.Counters, a, b artifact.Counters) {
	acc.BytesWritten += b.BytesWritten - a.BytesWritten
	acc.BytesRead += b.BytesRead - a.BytesRead
	acc.Writes += b.Writes - a.Writes
}

func (s *sampled) layers(m map[string]float64) {
	if s.setupPasses > 0 {
		n := float64(s.setupPasses)
		m["asm.program_ms"] = s.asm.Seconds() * 1e3 / n
		m["sampling.profile_minst_per_s"] = ratio(float64(s.profileInstr)/1e6, s.profile.Seconds())
		m["warm.update_mentries_per_s"] = ratio(float64(s.warmEntries)*1e3, float64(s.warmNanos))
		setIO(m, s.setupIO, n, s.roundIO, float64(s.rounds))
	}
	if s.rounds > 0 {
		m["sampling.plan_hit_frac"] = ratio(float64(s.planHits), float64(s.planLookups))
		m["warm.warmed_frac"] = ratio(float64(s.warmed), float64(s.warmed+s.coldStarts))
		m["sampling.restore_ms"] = ratio(s.restore.Seconds()*1e3, float64(s.intervals))
		m["warm.install_ms"] = ratio(s.install.Seconds()*1e3, float64(s.intervals))
		m["sampling.interval_minst_per_s"] = ratio(float64(s.detailedInstr)/1e6, s.pools.Seconds())
	}
	s.runs.layers(m, true, false)
}

// setIO writes the artifact.* metrics: the store traffic of one setup
// pass plus one round, each averaged over its traced passes.
func setIO(m map[string]float64, setup artifact.Counters, setups float64, round artifact.Counters, rounds float64) {
	per := func(v int64, n float64) float64 { return ratio(float64(v), n) }
	m["artifact.write_mib"] = (per(setup.BytesWritten, setups) + per(round.BytesWritten, rounds)) / mib
	m["artifact.read_mib"] = (per(setup.BytesRead, setups) + per(round.BytesRead, rounds)) / mib
	m["artifact.entries_written"] = per(setup.Writes, setups) + per(round.Writes, rounds)
}
