package trace

import (
	"context"
	"fmt"

	"dmdp/internal/isa"
	"dmdp/internal/mem"
)

// buildPollInterval is how many emulated instructions may pass between
// context polls during a trace build. It mirrors the timing core's
// cancelPollInterval: one select per instruction would dominate the
// emulator's step cost, while 4096 keeps cancellation latency at a few
// microseconds of emulated work.
const buildPollInterval = 4096

// BuildCanceled is the structured error returned when a context fires
// mid-build. It records how far the build got and unwraps to the
// underlying context error so errors.Is(err, context.Canceled) — and
// therefore experiments.IsCanceled — keep working unchanged.
type BuildCanceled struct {
	// Entries is the number of trace entries collected before the
	// cancellation was observed.
	Entries int64
	// Cause is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

func (e *BuildCanceled) Error() string {
	return fmt.Sprintf("trace: build canceled after %d entries: %v", e.Entries, e.Cause)
}

func (e *BuildCanceled) Unwrap() error { return e.Cause }

// CollectCtx is Collect with cancellation: it polls ctx every
// buildPollInterval instructions and aborts with *BuildCanceled when the
// context fires. A nil ctx behaves like context.Background(). Budgets
// above MaxEntries are refused.
func CollectCtx(ctx context.Context, s Stepper, max int64, prog *isa.Program, initMem *mem.Image) (*Trace, error) {
	if max > MaxEntries {
		return nil, fmt.Errorf("trace: budget %d exceeds the %d-entry trace limit", max, int64(MaxEntries))
	}
	var entries []Entry
	if max > 0 {
		entries = make([]Entry, max)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	n, poll := 0, 0
	for n < len(entries) && !s.Halted() {
		if poll++; poll >= buildPollInterval && done != nil {
			poll = 0
			select {
			case <-done:
				return nil, &BuildCanceled{Entries: int64(n), Cause: ctx.Err()}
			default:
			}
		}
		if err := s.StepInto(&entries[n]); err != nil {
			return nil, fmt.Errorf("trace: at entry %d: %w", n, err)
		}
		n++
	}
	t := &Trace{Prog: prog, Entries: entries[:n], InitMem: initMem, HitHalt: s.Halted()}
	t.Analyze()
	return t, nil
}

// ForEachChunk streams at most max instructions from s in fixed-length
// chunks without materializing the whole trace: fn is invoked once per
// chunk with the index of the chunk's first instruction and the raw
// entries. The final chunk may be shorter than chunkLen. The entries are
// raw (Analyze has not run, so DepStore and DepOverlap are zero and
// there is no sequence-number index) and the slice is a reused buffer —
// fn must not retain it past the call. A non-nil error from fn aborts the stream.
//
// Returns the total number of instructions executed and whether the
// program reached HALT before the budget. Cancellation follows the same
// buildPollInterval contract as CollectCtx and surfaces as *BuildCanceled.
func ForEachChunk(ctx context.Context, s Stepper, max int64, chunkLen int, fn func(start int64, chunk []Entry) error) (total int64, hitHalt bool, err error) {
	if chunkLen <= 0 {
		return 0, false, fmt.Errorf("trace: chunk length %d must be positive", chunkLen)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	buf := make([]Entry, chunkLen)
	n, poll := 0, 0
	for total < max && !s.Halted() {
		if poll++; poll >= buildPollInterval && done != nil {
			poll = 0
			select {
			case <-done:
				return total, false, &BuildCanceled{Entries: total, Cause: ctx.Err()}
			default:
			}
		}
		if err := s.StepInto(&buf[n]); err != nil {
			return total, false, fmt.Errorf("trace: at entry %d: %w", total, err)
		}
		n++
		total++
		if n == chunkLen {
			if err := fn(total-int64(chunkLen), buf); err != nil {
				return total, false, err
			}
			n = 0
		}
	}
	if n > 0 {
		if err := fn(total-int64(n), buf[:n]); err != nil {
			return total, false, err
		}
	}
	return total, s.Halted(), nil
}
