package trace

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"dmdp/internal/isa"
)

// countStepper emits deterministic entries (PC = 4*index) until haltAt
// instructions have been produced (never halts when haltAt < 0).
type countStepper struct {
	n      int64
	haltAt int64
}

func (s *countStepper) Step(buf []Entry) (int, error) { return stepEach(buf, s.Halted, s.one) }

// one is the stepper's single step.
func (s *countStepper) one(e *Entry) error {
	*e = Entry{PC: uint32(4 * s.n), Op: isa.OpADDI}
	s.n++
	return nil
}

func (s *countStepper) Halted() bool { return s.haltAt >= 0 && s.n >= s.haltAt }

// stepEach is Stepper.Step over a test stepper's single step: it fills
// buf until the stepper halts or one fails.
func stepEach(buf []Entry, halted func() bool, one func(*Entry) error) (int, error) {
	for i := range buf {
		if halted() {
			return i, nil
		}
		if err := one(&buf[i]); err != nil {
			return i, err
		}
	}
	return len(buf), nil
}

func TestCollectCtxCancelsMidBuild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // fires at the first poll boundary, mid-build
	const max = 50_000
	_, err := CollectCtx(ctx, &countStepper{haltAt: -1}, max, nil, nil)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	var bc *BuildCanceled
	if !errors.As(err, &bc) {
		t.Fatalf("want *BuildCanceled, got %T: %v", err, err)
	}
	if bc.Entries <= 0 || bc.Entries >= max {
		t.Fatalf("cancel should fire mid-build: %d entries of %d", bc.Entries, max)
	}
	// The structured error must still satisfy the generic cancellation
	// checks used by the experiments runner and the daemon.
	if !errors.Is(err, context.Canceled) {
		t.Fatal("BuildCanceled must unwrap to context.Canceled")
	}
}

func TestCollectCtxDeadlineUnwraps(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := CollectCtx(ctx, &countStepper{haltAt: -1}, 50_000, nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestCollectCtxMatchesCollect(t *testing.T) {
	a, err := Collect(&countStepper{haltAt: 100}, 1000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectCtx(context.Background(), &countStepper{haltAt: 100}, 1000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != len(b.Entries) || !a.HitHalt || !b.HitHalt {
		t.Fatalf("mismatch: %d vs %d entries", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestForEachChunk(t *testing.T) {
	var starts []int64
	var lens []int
	var pcs []uint32
	total, halt, err := ForEachChunk(context.Background(), &countStepper{haltAt: -1}, 25, 10, nil,
		func(start int64, chunk []Entry, _ struct{}) error {
			starts = append(starts, start)
			lens = append(lens, len(chunk))
			for i := range chunk {
				pcs = append(pcs, chunk[i].PC)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if total != 25 || halt {
		t.Fatalf("total %d halt %v", total, halt)
	}
	wantStarts := []int64{0, 10, 20}
	wantLens := []int{10, 10, 5}
	for i := range wantStarts {
		if starts[i] != wantStarts[i] || lens[i] != wantLens[i] {
			t.Fatalf("chunk %d: start %d len %d", i, starts[i], lens[i])
		}
	}
	for i, pc := range pcs {
		if pc != uint32(4*i) {
			t.Fatalf("entry %d: pc %#x", i, pc)
		}
	}
}

func TestForEachChunkHalt(t *testing.T) {
	var n int
	total, halt, err := ForEachChunk(context.Background(), &countStepper{haltAt: 7}, 100, 4, nil,
		func(start int64, chunk []Entry, _ struct{}) error { n += len(chunk); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if total != 7 || !halt || n != 7 {
		t.Fatalf("total %d halt %v seen %d", total, halt, n)
	}
}

func TestForEachChunkCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := ForEachChunk(ctx, &countStepper{haltAt: -1}, 1_000_000, 1024, nil,
		func(int64, []Entry, struct{}) error { return nil })
	var bc *BuildCanceled
	if !errors.As(err, &bc) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want BuildCanceled wrapping context.Canceled, got %v", err)
	}
}

func TestForEachChunkFnError(t *testing.T) {
	sentinel := errors.New("stop")
	_, _, err := ForEachChunk(context.Background(), &countStepper{haltAt: -1}, 100, 10, nil,
		func(int64, []Entry, struct{}) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel, got %v", err)
	}
}

// goroutinesBackTo waits, up to a second, for the process's goroutines
// to number at most want, and returns their count: a goroutine that has
// closed its last channel may still be on its way out.
func goroutinesBackTo(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCollectCtxLeavesNoGoroutine: CollectCtx leaves no goroutine
// behind after a success, a stepping error or a cancellation, and a
// stepping error names the failing entry.
func TestCollectCtxLeavesNoGoroutine(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const failAt = 3*buildPollInterval + 17
	for _, c := range []struct {
		name    string
		ctx     context.Context
		s       Stepper
		wantErr string
	}{
		{"success", context.Background(), &countStepper{haltAt: 5 * buildPollInterval}, ""},
		{"stepping error", context.Background(), &failStepper{countStepper{haltAt: -1}, failAt},
			fmt.Sprintf("trace: at entry %d: boom at %d", failAt, failAt)},
		{"cancellation", canceled, &countStepper{haltAt: -1},
			fmt.Sprintf("trace: build canceled after %d entries: context canceled", buildPollInterval)},
	} {
		before := runtime.NumGoroutine()
		tr, err := CollectCtx(c.ctx, c.s, 1<<20, nil, nil)
		switch {
		case c.wantErr == "" && (err != nil || len(tr.Entries) != 5*buildPollInterval):
			t.Fatalf("%s: error %v", c.name, err)
		case c.wantErr != "" && (tr != nil || err == nil || err.Error() != c.wantErr):
			t.Fatalf("%s: trace %v, error %v; want no trace and %q", c.name, tr != nil, err, c.wantErr)
		}
		if n := goroutinesBackTo(before); n > before {
			t.Fatalf("%s: %d goroutines after CollectCtx returned, %d before", c.name, n, before)
		}
	}
}

// memStepper emits a deterministic mix of 1-, 2- and 4-byte loads and
// stores over a few pages, and ALU entries, until haltAt.
type memStepper struct{ countStepper }

func (s *memStepper) Step(buf []Entry) (int, error) {
	return stepEach(buf, s.Halted, func(e *Entry) error {
		h := uint32(s.n) * 2654435761
		*e = memEntry(int(h>>7%3), []uint8{1, 2, 4}[h>>11%3], h>>13&3, h>>15%64, pages[h>>21&3])
		s.n++
		return nil
	})
}

// TestCollectCtxGrowsOnce: a program that runs past the first
// allocation gets a trace grown once, to the budget, and analyzed as
// one-shot Analyze analyzes it; one that halts early keeps no more than
// the first allocation.
func TestCollectCtxGrowsOnce(t *testing.T) {
	const budget = firstAlloc + 3*buildPollInterval + 17
	tr, err := Collect(&memStepper{countStepper{haltAt: -1}}, budget, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != budget || cap(tr.Entries) != budget {
		t.Fatalf("trace holds %d entries in a slice of %d, want %d in %d", len(tr.Entries), cap(tr.Entries), budget, budget)
	}
	ref := &Trace{Entries: slices.Clone(tr.Entries)}
	ref.Analyze()
	if !slices.Equal(tr.Entries, ref.Entries) || !slices.Equal(tr.Seq, ref.Seq) || tr.Stores != ref.Stores || tr.Loads != ref.Loads {
		t.Fatal("the grown trace's analysis differs from one-shot Analyze")
	}

	short, err := Collect(&countStepper{haltAt: 2}, 1<<30, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Entries) != 2 || !short.HitHalt || cap(short.Entries) > firstAlloc {
		t.Fatalf("halting program: %d entries in a slice of %d, halt %v", len(short.Entries), cap(short.Entries), short.HitHalt)
	}
}

// panicStepper is countStepper that panics at step panicAt.
type panicStepper struct {
	countStepper
	panicAt int64
}

func (s *panicStepper) Step(buf []Entry) (int, error) {
	return stepEach(buf, s.Halted, func(e *Entry) error {
		if s.n == s.panicAt {
			panic(fmt.Sprintf("stepper broke at %d", s.n))
		}
		return s.one(e)
	})
}

// TestSteppingPanicReachesCaller: a stepper's panic under either
// builder reaches a recover on the caller's goroutine, where it can turn
// into one failed job, with the stepper's frames in the stack, and
// ForEachChunk raises it only once its stepping goroutine has exited.
func TestSteppingPanicReachesCaller(t *testing.T) {
	const panicAt = 2*buildPollInterval + 5
	for name, build := range map[string]func(Stepper){
		"CollectCtx": func(s Stepper) { CollectCtx(context.Background(), s, 1<<20, nil, nil) },
		"ForEachChunk": func(s Stepper) {
			ForEachChunk(context.Background(), s, 1<<20, 1000, nil, func(int64, []Entry, struct{}) error { return nil })
		},
	} {
		before := runtime.NumGoroutine()
		var stack []byte
		recovered := func() (r any) {
			defer func() { r, stack = recover(), debug.Stack() }()
			build(&panicStepper{countStepper{haltAt: -1}, panicAt})
			return nil
		}()
		msg := fmt.Sprint(recovered)
		if recovered == nil || !strings.Contains(msg, fmt.Sprintf("stepper broke at %d", panicAt)) ||
			!strings.Contains(msg+string(stack), "panicStepper") {
			t.Fatalf("%s: recovered %q, want the stepper's panic and its frames", name, msg)
		}
		if n := goroutinesBackTo(before); n > before {
			t.Fatalf("%s: %d goroutines after the panic, %d before", name, n, before)
		}
	}
}
