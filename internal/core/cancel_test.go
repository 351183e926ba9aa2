package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dmdp/internal/config"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// TestRunContextCancellation: a cancelled context aborts the run with a
// structured ErrCanceled SimError carrying progress and a pipeline
// snapshot.
func TestRunContextCancellation(t *testing.T) {
	s, ok := workload.Get("hmmer")
	if !ok {
		t.Fatal("no hmmer proxy")
	}
	tr, err := s.BuildTrace(200_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // fires at the first poll
	c, err := New(config.Default(config.DMDP), tr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RunContext(ctx)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	var se *SimError
	if !errors.As(err, &se) || se.Kind != ErrCanceled {
		t.Fatalf("err=%v, want ErrCanceled SimError", err)
	}
	if !Canceled(err) {
		t.Fatalf("Canceled(%v) = false", err)
	}
	if se.TraceLen != len(tr.Entries) {
		t.Fatalf("SimError.TraceLen = %d, want %d", se.TraceLen, len(tr.Entries))
	}
}

// TestRunContextDeadline: a short wall-clock deadline cuts a run off
// mid-flight (not at the end) and surfaces within a small multiple of
// the deadline.
func TestRunContextDeadline(t *testing.T) {
	s, _ := workload.Get("mcf")
	tr, err := s.BuildTrace(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	c, err := New(config.Default(config.Baseline), tr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.RunContext(ctx)
	if !Canceled(err) {
		t.Fatalf("err=%v, want cancellation", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", el)
	}
}

// TestRunContextNoDeadlineIdentical: wiring a live (never-fired) context
// through RunContext must not perturb the simulation — canonical stats
// are byte-identical to a plain Run.
func TestRunContextNoDeadlineIdentical(t *testing.T) {
	s, _ := workload.Get("hmmer")
	tr, err := s.BuildTrace(50_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(config.DMDP)
	c1, _ := New(cfg, tr)
	st1, err := c1.Run()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	c2, _ := New(cfg, tr)
	st2, err := c2.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := st1.MarshalCanonical(), st2.MarshalCanonical()
	if !bytes.Equal(b1, b2) {
		t.Fatal("RunContext with unfired deadline changed the stats")
	}
}

// TestProgressFn: the progress callback observes monotone progress while
// the run advances.
func TestProgressFn(t *testing.T) {
	s, _ := workload.Get("hmmer")
	tr, err := s.BuildTrace(100_000)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(config.Default(config.NoSQ), tr)
	var samples int
	var lastRetired, lastCycle int64
	c.SetProgressFn(func(retired, cycles int64) {
		samples++
		if retired < lastRetired || cycles < lastCycle {
			t.Errorf("progress went backwards: (%d,%d) after (%d,%d)", retired, cycles, lastRetired, lastCycle)
		}
		lastRetired, lastCycle = retired, cycles
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("progress callback never fired")
	}
}

// TestMachineRunContext: an already-cancelled context aborts a machine
// run with a structured ErrCanceled SimError, and a live one leaves the
// run's digest lines equal to a plain Run's.
func TestMachineRunContext(t *testing.T) {
	s, _ := workload.Get("hmmer")
	tr, err := s.BuildTrace(20_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMachineConfig(2, config.DMDP, MemTSO)
	cfg.Semantics = false
	runCtx := func(ctx context.Context) (*MachineStats, error) {
		m, err := NewMachine(cfg, []*trace.Trace{tr, tr})
		if err != nil {
			t.Fatal(err)
		}
		return m.RunContext(ctx)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runCtx(ctx); !Canceled(err) {
		t.Fatalf("err=%v, want ErrCanceled SimError", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	live, err := runCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, plain := runMachine(t, cfg, []*trace.Trace{tr, tr})
	if a, b := strings.Join(live.DigestLines(), "\n"), strings.Join(plain.DigestLines(), "\n"); a != b {
		t.Fatalf("RunContext with unfired deadline changed the digest:\n%s\n----\n%s", a, b)
	}
}
