// Package sampling implements interval sampling in the spirit of the
// paper's SimPoint methodology (§V): instead of simulating a whole
// program, weighted intervals are simulated independently — each from a
// cold start, like the paper's checkpoints, which carry only the memory
// image and architectural registers — and their statistics are combined
// by weight. The paper compensates for cold predictors with large (100M)
// intervals; this package makes the interval length a parameter.
package sampling

import (
	"fmt"

	"dmdp/internal/core"
	"dmdp/internal/trace"
)

// Interval is a half-open [Start, End) range of trace indices with a
// SimPoint-style weight.
type Interval struct {
	Start, End int
	Weight     float64
}

// Plan is a set of intervals to simulate.
type Plan struct {
	Intervals []Interval
	// Warmup prepends up to this many trace entries before each
	// interval; they execute (warming caches and predictors) but their
	// statistics are discarded. The paper's checkpoints start cold and
	// compensate with interval size (§V); warmup is the explicit
	// alternative.
	Warmup int
}

// WithWarmup returns a copy of the plan using n warmup entries per
// interval.
func (p Plan) WithWarmup(n int) Plan {
	p.Warmup = n
	return p
}

// Uniform builds a plan of count intervals of length intervalLen spread
// evenly across a trace of traceLen entries, equally weighted (systematic
// sampling — the degenerate SimPoint configuration).
//
// Each interval is centered within its stride (SMARTS-style systematic
// sampling). Starting intervals at i*stride instead would bias sampling
// toward the head: entry 0 would always be measured and the traceLen mod
// count tail would never be, which systematically misestimates programs
// whose phases drift over time.
func Uniform(traceLen, intervalLen, count int) (Plan, error) {
	if traceLen <= 0 || intervalLen <= 0 || count <= 0 {
		return Plan{}, fmt.Errorf("sampling: non-positive plan parameters")
	}
	if intervalLen*count > traceLen {
		return Plan{}, fmt.Errorf("sampling: %d intervals of %d exceed trace length %d",
			count, intervalLen, traceLen)
	}
	var p Plan
	for i := 0; i < count; i++ {
		// Center of stride i in real arithmetic is (2i+1)*traceLen/(2*count);
		// consecutive centers are >= stride >= intervalLen apart, so the
		// intervals never overlap.
		center := ((2*int64(i) + 1) * int64(traceLen)) / int64(2*count)
		start := int(center) - intervalLen/2
		if start < 0 {
			start = 0
		}
		if start+intervalLen > traceLen {
			start = traceLen - intervalLen
		}
		p.Intervals = append(p.Intervals, Interval{
			Start:  start,
			End:    start + intervalLen,
			Weight: 1.0 / float64(count),
		})
	}
	return p, nil
}

// Slice extracts one interval as a standalone trace: the memory image is
// rolled forward to the interval start (exactly what the paper's
// checkpoints capture — "the complete memory data segment, the register
// file and the PC"; caches and predictors start cold), and the
// dependence analysis is recomputed within the interval, so loads whose
// writers predate the interval read their values from the image, as on
// the real checkpointed machine.
func Slice(tr *trace.Trace, iv Interval) (*trace.Trace, error) {
	if iv.Start < 0 || iv.End > len(tr.Entries) || iv.Start >= iv.End {
		return nil, fmt.Errorf("sampling: interval [%d,%d) out of range (trace %d)",
			iv.Start, iv.End, len(tr.Entries))
	}
	img := tr.InitMem.Clone()
	for i := 0; i < iv.Start; i++ {
		e := &tr.Entries[i]
		if e.IsStore() {
			img.Write(e.Addr, uint32(e.Size), e.Value)
		}
	}
	return subTrace(tr, iv.Start, iv.End, img), nil
}

// IntervalResult pairs an interval with its simulation statistics.
type IntervalResult struct {
	Interval Interval
	Stats    *core.Stats
}

// Combined is the weighted aggregate of a sampled simulation.
type Combined struct {
	Results []IntervalResult
	// WeightedIPC combines interval IPCs by weight (the SimPoint
	// estimator for whole-program IPC).
	WeightedIPC float64
	// WeightedMPKI combines memory dependence mispredictions per 1k
	// instructions by weight.
	WeightedMPKI float64
	// TotalInstructions and TotalCycles sum over the simulated
	// intervals (unweighted).
	TotalInstructions, TotalCycles int64
}
