package sampling

import (
	"context"
	"fmt"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/isa"
	"dmdp/internal/trace"
	"dmdp/internal/warm"
)

// Request describes one sampled simulation for Execute. Execute slices
// Trace, a trace the caller already holds, unless Checkpoint is set;
// otherwise it streams from Prog, or from Trace's own program when Prog
// is nil. Checkpoints, plans and warm records therefore belong to the
// streamed source alone.
type Request struct {
	Spec Spec
	// Budget is the instruction budget the program runs for. Both
	// sources derive the auto-plan chunk length from it, so a program
	// that halts early gets one plan whichever source serves it.
	Budget int64
	// Jobs is the interval worker-pool width (<=1 serial). Results are
	// byte-identical at any width.
	Jobs int
	// Checkpoint streams the run and persists/consumes its checkpoints,
	// plan and warm records in Store under TraceKey.
	Checkpoint bool
	Store      *artifact.Store
	TraceKey   artifact.Key
	// Warm enables functional warming: cache/TLB/predictor tag state is
	// modelled during the profiling pass and installed before each
	// interval's detailed simulation. Ignored (forced off) under fault
	// injection, like fast-forward: a corrupted run must execute every
	// instruction of every model the same way.
	Warm bool

	Trace *trace.Trace
	Prog  *isa.Program
}

// Outcome is a sampled simulation result plus the plan that produced it.
type Outcome struct {
	Combined *Combined
	Plan     Plan
	// Total is the executed/observed instruction count the plan was laid
	// out over; Streamed reports that the streamed source served the
	// intervals.
	Total    int64
	Streamed bool
	// PlanCached reports that the plan (and stream geometry) came from
	// the artifact cache, skipping the profiling pass entirely.
	PlanCached bool

	// Warmed reports that functional warming was active for this run
	// (requested and not disabled by fault injection).
	Warmed bool
	// WarmedIntervals/ColdStartIntervals count intervals that installed
	// warm state vs. those that fell back to a cold start (missing or
	// corrupt warm artifacts). Cold starts are correct but less
	// representative; samp-err labels them.
	WarmedIntervals    int64
	ColdStartIntervals int64
	// WarmSnapshotBytes totals the warm snapshot bytes installed.
	WarmSnapshotBytes int64
	// WarmEntries/WarmNanos account the profiling-pass warming work
	// (throughput = WarmEntries / WarmNanos; zero when the plan cache
	// skipped the profiling pass).
	WarmEntries int64
	WarmNanos   int64
}

// autoChunkLen picks the BBV chunk length (= checkpoint spacing and
// representative interval length) for an auto plan: 1% of the budget,
// clamped to [1k, 1M] and to the budget itself.
func autoChunkLen(budget int64) int {
	c := budget / 100
	if c < 1000 {
		c = 1000
	}
	if c > 1_000_000 {
		c = 1_000_000
	}
	if c > budget {
		c = budget
	}
	return int(c)
}

// Execute plans and runs one sampled simulation end to end:
//
//   - sliced (a held trace, no Checkpoint): the plan is computed over the
//     trace (BBV clustering for auto specs, centered systematic sampling
//     otherwise) and intervals are extracted in one rolling pass.
//   - streamed (otherwise): one chunked emulator pass computes BBVs and
//     captures architectural checkpoints without materializing the
//     trace; intervals are then re-materialized independently (and in
//     parallel) from their nearest checkpoint. With Checkpoint set, the
//     plan and checkpoints persist, so a re-run skips the profiling pass.
//
// Either way the intervals run on a deterministic worker pool and combine
// into a Combined that is byte-identical at any Jobs width.
func Execute(ctx context.Context, cfg config.Config, req Request) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err // before warming builds caches from cfg
	}
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	if req.Budget <= 0 {
		return nil, fmt.Errorf("sampling: budget %d must be positive", req.Budget)
	}
	wcfg := warmConfig(cfg, req)
	var out *Outcome
	var src Source
	var err error
	if req.Trace != nil && !req.Checkpoint {
		out, src, err = sliceTrace(req, wcfg)
	} else {
		prog := req.Prog
		if prog == nil && req.Trace != nil {
			prog = req.Trace.Prog
		}
		if prog == nil {
			return nil, fmt.Errorf("sampling: request holds neither a trace nor a program")
		}
		out, src, err = stream(ctx, req, prog, wcfg)
	}
	if err != nil {
		return nil, err
	}
	if out.Combined, err = RunPlan(ctx, cfg, out.Plan, src, req.Jobs); err != nil {
		return nil, err
	}
	if wcfg != nil {
		out.Warmed = true
		out.WarmedIntervals, out.ColdStartIntervals, out.WarmSnapshotBytes = src.warmStats()
	}
	return out, nil
}

// warmConfig resolves the functional-warming configuration for a
// request: nil when warming is off or fault injection forces it off.
func warmConfig(cfg config.Config, req Request) *warm.Config {
	if !req.Warm || cfg.Faults.Enabled() {
		return nil
	}
	wc := warm.ConfigFrom(cfg)
	return &wc
}

// sliceTrace plans over the held trace and builds its materialized
// source.
func sliceTrace(req Request, wcfg *warm.Config) (*Outcome, Source, error) {
	tr := req.Trace
	total := len(tr.Entries)
	var plan Plan
	var err error
	if req.Spec.Auto {
		chunkLen := autoChunkLen(req.Budget)
		plan, err = AutoPlan(ChunkBBVs(tr.Entries, chunkLen), chunkLen, req.Spec.Phases())
	} else {
		plan, err = Uniform(total, req.Spec.Len, req.Spec.Count)
	}
	if err != nil {
		return nil, nil, err
	}
	plan.Warmup = req.Spec.Warmup
	src, err := NewTraceSource(tr, plan, wcfg)
	if err != nil {
		return nil, nil, err
	}
	return &Outcome{Plan: plan, Total: int64(total)}, src, nil
}

// stream plans over a streamed execution of prog, or reopens the stream
// from a cached plan, and binds its source.
func stream(ctx context.Context, req Request, prog *isa.Program, wcfg *warm.Config) (*Outcome, Source, error) {
	// Checkpoint spacing is budget-derived for systematic specs too, not
	// Spec.Len: tying it to the interval length made `-sample 1x1000` at a
	// 100M budget snapshot 100k checkpoints (each an O(dirty pages) delta —
	// quadratic, effectively a hang), while a 50M interval length would
	// have buffered a 2.8 GB chunk. Interval extraction only needs *some*
	// checkpoint at or before each begin; the spacing bounds the re-emulated
	// prefix, so 1% of budget (clamped to [1k, 1M]) serves every spec.
	chunkLen := autoChunkLen(req.Budget)
	out := &Outcome{Streamed: true}

	// A cached plan skips the profiling pass: the stream is reopened with
	// just the recorded geometry and intervals restore from stored
	// checkpoints. The plan is only honored when its checkpoints, and
	// with warming requested its warm state, still load — otherwise a
	// store whose checkpoints were dropped, or a cold earlier run, would
	// pin every re-run to re-emulation from the start or to cold starts
	// forever; one fresh profiling pass republishes them instead.
	planKey := artifact.PlanKey(req.TraceKey, req.Spec.String(), PlannerVersion)
	if req.Checkpoint && req.Store != nil {
		if rec, ok := req.Store.LoadPlan(planKey); ok && rec.ChunkLen == int64(chunkLen) && planRecordValid(rec) {
			s := OpenStream(prog, chunkLen, rec.Total, rec.HitHalt, req.Store, req.TraceKey, wcfg)
			if p := planFromRecord(rec); s.planUsable(p) {
				p.Warmup = req.Spec.Warmup
				out.Plan, out.Total, out.PlanCached = p, rec.Total, true
				return out, s.Source(p), nil
			}
		}
	}
	s, err := BuildStream(ctx, prog, req.Budget, chunkLen, req.Store, req.TraceKey, req.Checkpoint, wcfg)
	if err != nil {
		return nil, nil, err
	}
	if req.Spec.Auto {
		out.Plan, err = s.AutoPlan(req.Spec.Phases())
	} else {
		out.Plan, err = Uniform(int(s.Total), req.Spec.Len, req.Spec.Count)
	}
	if err != nil {
		return nil, nil, err
	}
	out.Plan.Warmup = req.Spec.Warmup
	s.keepResumeState(out.Plan)
	if req.Checkpoint && req.Store != nil {
		req.Store.StorePlan(planKey, planToRecord(out.Plan, s))
	}
	out.Total = s.Total
	out.WarmEntries, out.WarmNanos = s.WarmEntries, s.WarmNanos
	return out, s.Source(out.Plan), nil
}

// ChunkBBVs computes the basic-block vector of every full chunkLen-sized
// chunk of entries (the materialized-trace counterpart of the streaming
// profiling pass).
func ChunkBBVs(entries []trace.Entry, chunkLen int) [][BBVDim]float64 {
	var out [][BBVDim]float64
	var acc BBVAccum
	for i := 0; i+chunkLen <= len(entries); i += chunkLen {
		for j := i; j < i+chunkLen; j++ {
			acc.Add(&entries[j])
		}
		out = append(out, acc.Finish())
	}
	return out
}

func planToRecord(p Plan, s *Stream) *artifact.PlanRecord {
	rec := &artifact.PlanRecord{
		ChunkLen: int64(s.ChunkLen),
		Total:    s.Total,
		Warmup:   int64(p.Warmup),
		HitHalt:  s.HitHalt,
	}
	for _, iv := range p.Intervals {
		rec.Intervals = append(rec.Intervals, artifact.PlanInterval{
			Start: int64(iv.Start), End: int64(iv.End), Weight: iv.Weight,
		})
	}
	return rec
}

func planFromRecord(rec *artifact.PlanRecord) Plan {
	p := Plan{Warmup: int(rec.Warmup)}
	for _, iv := range rec.Intervals {
		p.Intervals = append(p.Intervals, Interval{
			Start: int(iv.Start), End: int(iv.End), Weight: iv.Weight,
		})
	}
	return p
}

// planRecordValid sanity-checks a decoded plan record before trusting it
// (a structurally valid file can still carry an impossible plan).
func planRecordValid(rec *artifact.PlanRecord) bool {
	if rec.Total <= 0 || len(rec.Intervals) == 0 || rec.Warmup < 0 {
		return false
	}
	for _, iv := range rec.Intervals {
		if iv.Start < 0 || iv.End <= iv.Start || iv.End > rec.Total || iv.Weight <= 0 {
			return false
		}
	}
	return true
}
