package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"dmdp/internal/artifact"
	"dmdp/internal/core"
)

// IsCanceled reports whether err is a cancellation outcome — either a
// structured core ErrCanceled SimError (deadline fired mid-simulation)
// or a bare context error (cancelled before the run started). Canceled
// runs are never negatively cached.
func IsCanceled(err error) bool {
	return core.Canceled(err) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Failure records one benchmark run the runner could not complete, under
// the label of the spec that executed it. The hardened runner isolates
// faults per run: a failed run is cached as failed (so no experiment
// re-triggers it), its row drops out of every table that wanted it, and
// the suite carries on. cmd/experiments prints the collected table at
// the end and exits non-zero.
type Failure struct {
	Bench, Label string
	Err          error
	// Panicked reports that the core panicked (the runner converted the
	// panic into an error with a trimmed stack).
	Panicked bool
	// Diagnostic is the structured bundle for SimErrors (cycle, PC,
	// disassembly, last-retired ring, pipeline occupancy), empty
	// otherwise — the panic stack already lives in Err.
	Diagnostic string
}

// recordFailure stores the failure of a run that just executed. One
// failed run is one row: a run re-executed after a cancellation records
// under the same (benchmark, label) and is deduplicated.
func (r *Runner) recordFailure(f Failure) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.failures {
		if g.Bench == f.Bench && g.Label == f.Label {
			return
		}
	}
	r.failures = append(r.failures, f)
}

// Failures returns the failed benchmark runs, sorted by benchmark then
// label.
func (r *Runner) Failures() []Failure {
	r.mu.Lock()
	out := make([]Failure, len(r.failures))
	copy(out, r.failures)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// FailureTable renders the per-benchmark failure summary followed by the
// diagnostic bundle of each failure that produced one. Empty when every
// run succeeded.
func (r *Runner) FailureTable() string {
	fs := r.Failures()
	if len(fs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d benchmark run(s) failed; their rows are omitted from the results above.\n\n", len(fs))
	fmt.Fprintf(&b, "%-12s %-14s %-9s %s\n", "benchmark", "label", "kind", "error")
	for _, f := range fs {
		kind := "error"
		if f.Panicked {
			kind = "panic"
		}
		var se *core.SimError
		if errors.As(f.Err, &se) {
			kind = string(se.Kind)
		}
		fmt.Fprintf(&b, "%-12s %-14s %-9s %s\n", f.Bench, f.Label, kind, firstLine(f.Err.Error()))
	}
	for _, f := range fs {
		if f.Diagnostic != "" {
			fmt.Fprintf(&b, "\n--- %s/%s ---\n%s\n", f.Bench, f.Label, f.Diagnostic)
		}
	}
	return b.String()
}

// diagnosticFor extracts the structured diagnostic bundle when err wraps
// a core.SimError, and a verify mismatch's full message (key, file,
// both hashes) when it is an *artifact.VerifyError. Cancellations carry
// no bundle: a deadline hit is a scheduling outcome, and pages of
// pipeline state per cancelled run would drown the failure table's real
// diagnostics.
func diagnosticFor(err error) string {
	var se *core.SimError
	if errors.As(err, &se) && se.Kind != core.ErrCanceled {
		return se.Bundle()
	}
	var ve *artifact.VerifyError
	if errors.As(err, &ve) {
		return ve.Error()
	}
	return ""
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
