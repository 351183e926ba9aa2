package sampling

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"dmdp/internal/mem"
	"dmdp/internal/trace"
	"dmdp/internal/warm"
)

// Source supplies the standalone sub-trace for each interval of a plan,
// and the warm state to install before it. IntervalTrace must be safe
// for concurrent calls with distinct indices (RunPlan invokes it from
// pool workers).
type Source interface {
	// IntervalTrace returns interval i extended backwards by the plan's
	// warmup (clamped at the trace start) as a runnable trace, plus the
	// number of warmup entries actually prepended.
	IntervalTrace(i int) (*trace.Trace, int, error)
	// IntervalWarm returns the warm snapshot to install before running
	// interval i, or nil for a cold start. Only valid after
	// IntervalTrace(i) returned, from the same worker.
	IntervalWarm(i int) []byte
	// WarmInstallFailed records that interval i's snapshot was rejected
	// at install time and the interval ran cold.
	WarmInstallFailed(i int)
	// warmStats reads the warmed/cold accounting back out after RunPlan.
	warmStats() (warmed, cold, snapBytes int64)
}

// warmCollector accumulates per-interval warm snapshots and the
// warmed/cold accounting shared by both sources, which embed it. A nil
// snapshot is a cold start; the first one emits a structured warning
// (subsequent ones only count, to keep a badly degraded cache from
// flooding stderr).
type warmCollector struct {
	snaps     [][]byte
	warmed    atomic.Int64
	cold      atomic.Int64
	snapBytes atomic.Int64
	warnOnce  sync.Once
}

func newWarmCollector(n int) *warmCollector {
	return &warmCollector{snaps: make([][]byte, n)}
}

func (wc *warmCollector) set(i int, snap []byte, start, end int) {
	wc.snaps[i] = snap
	if snap != nil {
		wc.warmed.Add(1)
		wc.snapBytes.Add(int64(len(snap)))
		return
	}
	wc.cold.Add(1)
	wc.warnOnce.Do(func() {
		fmt.Fprintf(os.Stderr,
			"sampling: warning: warm state unavailable for interval [%d,%d); cold-starting (event=warm_cold_start)\n",
			start, end)
	})
}

// The Source warm methods tolerate a nil collector (warming off): every
// interval then starts cold and nothing is counted.

func (wc *warmCollector) IntervalWarm(i int) []byte {
	if wc == nil {
		return nil
	}
	return wc.snaps[i]
}

func (wc *warmCollector) WarmInstallFailed(i int) {
	if wc == nil {
		return
	}
	wc.warmed.Add(-1)
	wc.cold.Add(1)
	wc.snapBytes.Add(-int64(len(wc.snaps[i])))
}

func (wc *warmCollector) warmStats() (warmed, cold, snapBytes int64) {
	if wc == nil {
		return 0, 0, 0
	}
	return wc.warmed.Load(), wc.cold.Load(), wc.snapBytes.Load()
}

// traceSource extracts intervals from a fully materialized trace. The
// sub-traces are built eagerly in a single forward pass over the parent
// trace (one rolling memory image, cloned at each interval begin), so a
// k-interval plan costs O(traceLen + k·pages) instead of the O(k·traceLen)
// of calling Slice per interval.
type traceSource struct {
	subs           []*trace.Trace
	warms          []int
	*warmCollector // nil = warming off
}

func (s *traceSource) IntervalTrace(i int) (*trace.Trace, int, error) {
	return s.subs[i], s.warms[i], nil
}

// beginOf returns the warmup-extended begin of interval i under the plan.
func beginOf(plan Plan, i int) (begin, warm int) {
	iv := plan.Intervals[i]
	warm = plan.Warmup
	if warm > iv.Start {
		warm = iv.Start
	}
	return iv.Start - warm, warm
}

// NewTraceSource builds the interval source for a materialized trace:
// one rolling pass, ascending by begin index, clones the memory image at
// each interval begin.
//
// With wcfg set, the same pass drives the functional warm models over
// the entries preceding each interval begin and captures a snapshot per
// interval. The trace is fully present, so the materialized
// path never cold-starts — and because the streamed path's snapshots are
// restore-continue equivalent to this continuous pass, the two paths
// install byte-identical warm state for identical plans.
func NewTraceSource(tr *trace.Trace, plan Plan, wcfg *warm.Config) (Source, error) {
	if len(plan.Intervals) == 0 {
		return nil, fmt.Errorf("sampling: empty plan")
	}
	n := len(plan.Intervals)
	src := &traceSource{subs: make([]*trace.Trace, n), warms: make([]int, n)}
	begins := make([]int, n)
	for i := range plan.Intervals {
		iv := plan.Intervals[i]
		if iv.Start < 0 || iv.End > len(tr.Entries) || iv.Start >= iv.End {
			return nil, fmt.Errorf("sampling: interval [%d,%d) out of range (trace %d)",
				iv.Start, iv.End, len(tr.Entries))
		}
		begins[i], src.warms[i] = beginOf(plan, i)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return begins[order[a]] < begins[order[b]] })
	var ws *warm.State
	if wcfg != nil {
		src.warmCollector = newWarmCollector(n)
		ws = warm.New(*wcfg)
	}
	img := tr.InitMem.Clone()
	cursor := 0
	for _, i := range order {
		for ; cursor < begins[i]; cursor++ {
			e := &tr.Entries[cursor]
			if ws != nil {
				ws.Update(e)
			}
			if e.IsStore() {
				img.Write(e.Addr, uint32(e.Size), e.Value)
			}
		}
		iv := plan.Intervals[i]
		if ws != nil {
			src.set(i, ws.Snapshot(), iv.Start, iv.End)
		}
		src.subs[i] = subTrace(tr, begins[i], iv.End, img.Clone())
	}
	return src, nil
}

// subTrace assembles the standalone trace for [begin,end) on top of the
// given pre-rolled memory image. Entries are copied because Analyze
// rewrites the per-entry dependence fields relative to the sub-trace.
func subTrace(tr *trace.Trace, begin, end int, img *mem.Image) *trace.Trace {
	sub := &trace.Trace{
		Prog:    tr.Prog,
		Entries: append([]trace.Entry(nil), tr.Entries[begin:end]...),
		InitMem: img,
		HitHalt: false,
	}
	sub.Analyze()
	return sub
}
