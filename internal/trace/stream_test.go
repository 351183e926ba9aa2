package trace

import (
	"context"
	"errors"
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

func (s *countStepper) StepInto(e *Entry) error {
	*e = Entry{PC: uint32(4 * s.n), Op: isa.OpADDI}
	s.n++
	return nil
}

func (s *countStepper) Halted() bool { return s.haltAt >= 0 && s.n >= s.haltAt }

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
