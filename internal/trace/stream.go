package trace

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"

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

// The trace CollectCtx steps into starts at firstAlloc entries (24 MiB),
// or the budget when that is smaller, so a program that halts early
// keeps no more whatever its budget; one that runs past it grows the
// trace once, to the whole budget.
const firstAlloc = 1 << 20

// CollectCtx is Collect with cancellation: it polls ctx every
// buildPollInterval instructions and aborts with *BuildCanceled when the
// context fires. A nil ctx behaves like context.Background(). Budgets
// above MaxEntries are refused.
//
// The stepper steps into the trace's own slice in buildPollInterval-entry
// pieces, and an Analyzer takes each piece as soon as it is stepped,
// while its entries are still in cache. The analyzer holds no entry
// between pieces, so when the program runs past the first allocation
// the trace grows with nothing holding the old array.
func CollectCtx(ctx context.Context, s Stepper, max int64, prog *isa.Program, initMem *mem.Image) (*Trace, error) {
	if max > MaxEntries {
		return nil, fmt.Errorf("trace: budget %d exceeds the %d-entry trace limit", max, int64(MaxEntries))
	}
	if max < 0 {
		max = 0
	}
	entries := make([]Entry, min(max, firstAlloc))
	a := Analyzer{seq: make([]SeqBlock, 0, SeqBlocks(len(entries)))}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	n := 0
	for int64(n) < max && !s.Halted() {
		if n > 0 {
			select {
			case <-done:
				return nil, &BuildCanceled{Entries: int64(n), Cause: ctx.Err()}
			default:
			}
		}
		if n == len(entries) {
			grown := make([]Entry, max)
			copy(grown, entries)
			entries = grown
			a.seq = slices.Grow(a.seq, SeqBlocks(len(grown))-len(a.seq))
		}
		piece := entries[n:min(n+buildPollInterval, len(entries))]
		k, err := s.Step(piece)
		a.Add(piece[:k])
		n += k
		if err != nil {
			return nil, fmt.Errorf("trace: at entry %d: %w", n, err)
		}
	}
	t := &Trace{Prog: prog, Entries: entries[:n], InitMem: initMem, HitHalt: s.Halted()}
	a.Finish(t)
	return t, nil
}

// The ring ForEachChunk steps into: ringDepth buffers of at most
// ringChunk entries (768 KiB at 24 bytes an entry) whatever the chunk
// length, so the entries in flight stay bounded by a constant. Four
// buffers let the stepper run up to three pieces ahead of a consumer
// that stalls at a boundary (the profiling pass snapshots the warm state
// there) without either side waiting.
const (
	ringChunk = 1 << 15
	ringDepth = 4
)

// ForEachChunk streams at most budget instructions from s without
// materializing the whole trace. The stepper runs ahead on a goroutine
// of its own: it steps into a ring of buffers while fn, on the caller's
// goroutine, consumes the ones filled before, so stepping overlaps
// whatever fn does with the entries. fn sees every entry once, in order,
// in pieces, with the index of the piece's first instruction: a piece
// never crosses a multiple of chunkLen and holds at most ringChunk
// entries, so one chunk may come in several pieces. Right after stepping
// the last entry of each full chunk, the stepping goroutine calls mark,
// which sees the stepper's state at that boundary; fn receives mark's
// result with the piece that ends the chunk and the zero T with every
// other piece (and with all of them when mark is nil). The entries are
// raw (Analyze has not run, so DepStore and DepOverlap are zero and
// there is no sequence-number index) and the slice is a reused buffer:
// fn must not retain it past the call. An error from fn aborts the
// stream: the stepper takes no further buffer and stops within
// buildPollInterval instructions.
//
// Returns the number of instructions executed and whether the program
// reached HALT before the budget. A stepping error surfaces as
// "trace: at entry N: ...", with N the failing entry, and cancellation,
// polled every buildPollInterval instructions as in CollectCtx, as
// *BuildCanceled, each once fn has seen every piece completed before it.
// ForEachChunk returns only after the stepping goroutine has exited, so
// the stepper is the caller's again. A panic there would end the
// process, past any recover of the caller's, so the goroutine recovers
// it and ForEachChunk raises it again on the caller's goroutine once the
// stepper has exited.
func ForEachChunk[T any](ctx context.Context, s Stepper, budget int64, chunkLen int, mark func() T, fn func(start int64, chunk []Entry, m T) error) (total int64, hitHalt bool, err error) {
	if chunkLen <= 0 {
		return 0, false, fmt.Errorf("trace: chunk length %d must be positive", chunkLen)
	}
	type piece struct {
		buf   []Entry
		start int64
		mark  T
	}
	free := make(chan []Entry, ringDepth)
	if size := int(min(int64(ringChunk), int64(chunkLen), budget)); size > 0 {
		ring := make([]Entry, ringDepth*size)
		for i := 0; i < ringDepth; i++ {
			free <- ring[i*size : (i+1)*size : (i+1)*size]
		}
	}
	full := make(chan piece, ringDepth)
	// quit closes as ForEachChunk returns, which comes before the
	// stepping goroutine is done only when fn fails or panics; the
	// goroutine then stops at its next poll or buffer, whichever comes
	// first.
	quit := make(chan struct{})
	// The stepping goroutine owns s and the variables below until it
	// closes full.
	var stepped int64
	var stepErr error
	var panicked *stepPanic
	go func() {
		defer close(full)
		defer func() {
			if r := recover(); r != nil {
				panicked = &stepPanic{val: r, stack: debug.Stack()}
			}
		}()
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		sincePoll := 0
		for stepped < budget && !s.Halted() {
			var buf []Entry
			select { // quit first: a free buffer must not win the race
			case <-quit:
				return
			default:
			}
			select {
			case buf = <-free:
			case <-quit:
				return
			}
			start := stepped
			n := min(int64(len(buf)), int64(chunkLen)-start%int64(chunkLen), budget-start)
			for stepped-start < n && !s.Halted() {
				if sincePoll == buildPollInterval {
					sincePoll = 0
					select {
					case <-done:
						stepErr = &BuildCanceled{Entries: stepped, Cause: ctx.Err()}
						return
					case <-quit:
						return
					default:
					}
				}
				from := stepped - start
				k, err := s.Step(buf[from : from+min(n-from, int64(buildPollInterval-sincePoll))])
				stepped += int64(k)
				sincePoll += k
				if err != nil {
					stepErr = fmt.Errorf("trace: at entry %d: %w", stepped, err)
					return
				}
			}
			p := piece{buf: buf[:stepped-start], start: start}
			if mark != nil && stepped%int64(chunkLen) == 0 {
				p.mark = mark()
			}
			select {
			case full <- p:
			case <-quit:
				return
			}
		}
	}()
	defer func() {
		close(quit)
		for range full { // until the stepping goroutine is done
		}
		if panicked != nil {
			panic(panicked)
		}
	}()
	for p := range full {
		if err := fn(p.start, p.buf, p.mark); err != nil {
			return p.start + int64(len(p.buf)), false, err
		}
		free <- p.buf[:cap(p.buf)]
	}
	if stepErr != nil {
		return stepped, false, stepErr
	}
	return stepped, s.Halted(), nil
}

// stepPanic is a panic recovered on ForEachChunk's stepping goroutine,
// with that goroutine's stack, raised again on the caller's.
type stepPanic struct {
	val   any
	stack []byte
}

func (p *stepPanic) Error() string {
	return fmt.Sprintf("trace: stepping goroutine panicked: %v\n\n%s", p.val, p.stack)
}
