package trace

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// failStepper is countStepper that fails its step at failAt.
type failStepper struct {
	countStepper
	failAt int64
}

func (s *failStepper) Step(buf []Entry) (int, error) {
	return stepEach(buf, s.Halted, func(e *Entry) error {
		if s.n == s.failAt {
			return fmt.Errorf("boom at %d", s.n)
		}
		return s.one(e)
	})
}

// TestForEachChunkPieces: the ring delivers every entry once, in order,
// in pieces that never cross a chunk boundary nor exceed ringChunk, and
// marks exactly the full-chunk boundaries with the stepper's position
// there: chunks shorter and longer than a ring buffer, a budget that ends
// mid-chunk and a program that halts.
func TestForEachChunkPieces(t *testing.T) {
	for _, c := range []struct {
		budget, haltAt int64
		chunkLen       int
	}{
		{25, -1, 10},
		{100, 7, 4},
		{100, 40, 10},
		{3*ringChunk + 5, -1, ringChunk + ringChunk/2},
		{5 * ringChunk, -1, 2 * ringChunk},
		{0, -1, 10},
	} {
		name := fmt.Sprintf("budget %d halt %d chunk %d", c.budget, c.haltAt, c.chunkLen)
		ref := &countStepper{haltAt: c.haltAt}
		for ref.n < c.budget && !ref.Halted() {
			ref.one(&Entry{})
		}
		wantTotal, wantHalt := ref.n, ref.Halted()
		s := &countStepper{haltAt: c.haltAt}
		var next int64
		var marks []int64
		total, halt, err := ForEachChunk(context.Background(), s, c.budget, c.chunkLen,
			func() int64 { return s.n },
			func(start int64, chunk []Entry, m int64) error {
				end := start + int64(len(chunk))
				if start != next || len(chunk) == 0 || len(chunk) > ringChunk ||
					start/int64(c.chunkLen) != (end-1)/int64(c.chunkLen) {
					return fmt.Errorf("piece [%d,%d) after %d", start, end, next)
				}
				for i := range chunk {
					if chunk[i].PC != uint32(4*(start+int64(i))) {
						return fmt.Errorf("entry %d: pc %#x", start+int64(i), chunk[i].PC)
					}
				}
				if end%int64(c.chunkLen) == 0 {
					if m != end {
						return fmt.Errorf("boundary %d marked %d", end, m)
					}
					marks = append(marks, m)
				} else if m != 0 {
					return fmt.Errorf("piece ending at %d marked %d", end, m)
				}
				next = end
				return nil
			})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if total != wantTotal || halt != wantHalt || next != total {
			t.Fatalf("%s: total %d halt %v delivered %d, want %d %v", name, total, halt, next, wantTotal, wantHalt)
		}
		if want := int(total) / c.chunkLen; len(marks) != want {
			t.Fatalf("%s: %d marks, want %d", name, len(marks), want)
		}
	}
}

// TestForEachChunkErrors: a stepping error, a cancellation and an error
// from fn each end the stream, after fn has seen only the pieces
// completed before it, and after an error from fn the stepper takes no
// further buffer.
func TestForEachChunkErrors(t *testing.T) {
	const failAt = 3*ringChunk + 17
	var seen int64
	total, _, err := ForEachChunk(context.Background(), &failStepper{countStepper{haltAt: -1}, failAt}, 1<<20, 1000,
		func() struct{} { return struct{}{} },
		func(start int64, chunk []Entry, _ struct{}) error { seen = start + int64(len(chunk)); return nil })
	if want := fmt.Sprintf("trace: at entry %d: boom at %d", failAt, failAt); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if total != failAt || seen != failAt/1000*1000 {
		t.Fatalf("total %d, delivered %d", total, seen)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = ForEachChunk(ctx, &countStepper{haltAt: -1}, 1<<30, 1024,
		func() int { return 0 }, func(int64, []Entry, int) error { return nil })
	var bc *BuildCanceled
	if !errors.As(err, &bc) || !errors.Is(err, context.Canceled) || bc.Entries <= 0 {
		t.Fatalf("want BuildCanceled wrapping context.Canceled mid-stream, got %v", err)
	}

	sentinel := errors.New("stop")
	calls := 0
	ls := &lateStepper{countStepper: countStepper{haltAt: -1}}
	_, _, err = ForEachChunk(context.Background(), ls, 1<<30, 1<<30,
		func() int { return 0 }, func(int64, []Entry, int) error { calls++; return sentinel })
	ls.returned.Store(true)
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("want sentinel after one call, got %v after %d", err, calls)
	}
	time.Sleep(10 * time.Millisecond)
	if ls.late.Load() {
		t.Fatal("the stepper ran on after ForEachChunk returned")
	}

	// fn fails on the first piece while the stepper, paused inside the
	// second, still has two free buffers. Once it resumes it may finish
	// that piece, but must take no other: the test repeats because a
	// stepper that waited on a free buffer and on the stop signal at once
	// would take the buffer only some of the time. The stop signal is
	// internal to ForEachChunk and is sent as soon as fn returns, so the
	// stepper resumes after a pause rather than on an event.
	for i := 0; i < 10; i++ {
		const chunkLen, gateAt = 1000, 1010
		gs := &gateStepper{countStepper: countStepper{haltAt: -1}, gateAt: gateAt, open: make(chan struct{})}
		var marksAfter atomic.Int64
		_, _, err = ForEachChunk(context.Background(), gs, 1<<30, chunkLen,
			func() int {
				if gs.n > gateAt {
					marksAfter.Add(1)
				}
				return 0
			},
			func(int64, []Entry, int) error {
				go func() { // after ForEachChunk has seen the error
					time.Sleep(50 * time.Millisecond)
					close(gs.open)
				}()
				return sentinel
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("want sentinel, got %v", err)
		}
		if after := gs.after.Load(); after > 2*chunkLen-gateAt || marksAfter.Load() > 1 {
			t.Fatalf("after fn failed the stepper took %d steps and %d marks; the piece it was in had %d steps left",
				after, marksAfter.Load(), 2*chunkLen-gateAt)
		}
	}
}

// gateStepper is countStepper that waits, before step gateAt, until
// open closes, and counts the steps it takes from there on.
type gateStepper struct {
	countStepper
	gateAt int64
	open   chan struct{}
	after  atomic.Int64
}

func (s *gateStepper) Step(buf []Entry) (int, error) {
	return stepEach(buf, s.Halted, func(e *Entry) error {
		if s.n == s.gateAt {
			<-s.open
		}
		if s.n >= s.gateAt {
			s.after.Add(1)
		}
		return s.one(e)
	})
}

// lateStepper is countStepper that records a step taken after the test
// set returned.
type lateStepper struct {
	countStepper
	returned, late atomic.Bool
}

func (s *lateStepper) Step(buf []Entry) (int, error) {
	return stepEach(buf, s.Halted, func(e *Entry) error {
		if s.returned.Load() {
			s.late.Store(true)
		}
		return s.one(e)
	})
}
