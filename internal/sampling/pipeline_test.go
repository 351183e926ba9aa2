package sampling

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dmdp/internal/artifact"
	"dmdp/internal/asm"
	"dmdp/internal/config"
	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/trace"
	"dmdp/internal/warm"
	"dmdp/internal/workload"
)

func proxyProgram(t *testing.T, bench string) (*isa.Program, *workload.Spec) {
	t.Helper()
	spec, ok := workload.Get(bench)
	if !ok {
		t.Fatalf("unknown bench %s", bench)
	}
	prog, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog, spec
}

// TestBuildStreamPublishesPinnedBytes pins a SHA-256 over every file a
// warmed profiling pass publishes (names, sizes and bytes: checkpoints
// and warm records) plus its Total, HitHalt and BBVs, for gcc and lbm at
// 2M. The digests were computed with the serial pass the pipeline
// replaced.
func TestBuildStreamPublishesPinnedBytes(t *testing.T) {
	const budget = 2_000_000
	for _, c := range []struct{ bench, want string }{
		{"gcc", "16621a6d44310745c748b5a2a48a266e7529b0321adac2ff7d2095c7377c2826"},
		{"lbm", "5e956aae51fab46f1862c2d397678f768c9d25ab6915e0adb3d13c80d45747c8"},
	} {
		prog, spec := proxyProgram(t, c.bench)
		dir := t.TempDir()
		store, err := artifact.Open(dir, artifact.RW, 0)
		if err != nil {
			t.Fatal(err)
		}
		wcfg := warm.ConfigFrom(config.Default(config.DMDP))
		s, err := BuildStream(context.Background(), prog, budget, autoChunkLen(budget), store,
			artifact.TraceKey(spec.SourceHash(), budget), true, &wcfg)
		if err != nil {
			t.Fatal(err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(names)
		h := sha256.New()
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", filepath.Base(name), len(b))
			h.Write(b)
		}
		fmt.Fprintf(h, "total %d halt %v bbvs %d\n", s.Total, s.HitHalt, len(s.BBVs))
		for _, v := range s.BBVs {
			for _, f := range v {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: published %d files, digest %s, want %s", c.bench, len(names), got, c.want)
		}
	}
}

// TestBuildStreamCheckpointsMatchEmulator: every checkpoint a pass keeps
// in memory still holds memory as it was at its boundary, after the
// emulator ran on and rewrote those pages: resuming from it gives the
// image, registers and PC of a reference emulator stepped to the same
// boundary.
func TestBuildStreamCheckpointsMatchEmulator(t *testing.T) {
	const budget = 100_000
	prog, _ := proxyProgram(t, "lbm")
	s, err := BuildStream(context.Background(), prog, budget, autoChunkLen(budget), nil, artifact.Key{}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(s.Total) / s.ChunkLen; len(s.cks) != want {
		t.Fatalf("%d checkpoints in memory, want %d", len(s.cks), want)
	}
	ref := emu.New(prog)
	for at := int64(0); at < s.Total; at += 10 * int64(s.ChunkLen) {
		if err := ref.StepN(at - ref.InstrCount()); err != nil {
			t.Fatal(err)
		}
		ck := s.cks[at]
		if ck == nil {
			t.Fatalf("no checkpoint at %d", at)
		}
		r := emu.Resume(prog, s.Init, ck)
		if r.PC != ref.PC || r.Regs != ref.Regs || r.InstrCount() != at {
			t.Fatalf("boundary %d: architectural state differs", at)
		}
		if r.Mem.Pages() != ref.Mem.Pages() {
			t.Fatalf("boundary %d: %d pages, reference %d", at, r.Mem.Pages(), ref.Mem.Pages())
		}
		ref.Mem.ForEachPage(func(base uint32, want *[4096]byte) {
			if got, ok := r.Mem.Page(base); !ok || *got != *want {
				t.Fatalf("boundary %d: page %#x differs from the reference", at, base)
			}
		})
	}
}

// faultingProg stores 30,000 times, then loads from an unaligned
// address: it faults mid-pass, dozens of checkpoints in.
const faultingProg = `
	li   $t0, 30000
	la   $t1, buf
loop:
	sw   $t0, 0($t1)
	addi $t0, $t0, -1
	bnez $t0, loop
	lw   $t2, 2($t1)
	halt
	.data
buf:
	.space 16
`

// TestBuildStreamEndsCleanly: on success, on a fault and on cancellation
// BuildStream returns the serial pass's result or error, and only after
// its goroutines have exited: the goroutine count falls back, the store
// holds no temp file, and nothing is published after it returned.
func TestBuildStreamEndsCleanly(t *testing.T) {
	faulting, err := asm.Assemble(faultingProg)
	if err != nil {
		t.Fatal(err)
	}
	ref := emu.New(faulting)
	var faultErr error
	for faultErr == nil {
		faultErr = ref.StepInto(&trace.Entry{})
	}
	gcc, _ := proxyProgram(t, "gcc")
	wcfg := warm.ConfigFrom(config.Default(config.DMDP))

	for _, c := range []struct {
		name   string
		prog   *isa.Program
		budget int64
		cancel time.Duration
		check  func(s *Stream, err error) error
	}{
		{"success", gcc, 200_000, 0, func(s *Stream, err error) error {
			if err != nil {
				return err
			}
			if s.Total != 200_000 {
				return fmt.Errorf("executed %d instructions", s.Total)
			}
			return nil
		}},
		{"fault", faulting, 200_000, 0, func(s *Stream, err error) error {
			want := fmt.Sprintf("trace: at entry %d: %v", ref.InstrCount(), faultErr)
			if s != nil || err == nil || err.Error() != want {
				return fmt.Errorf("stream returned %t, error %v; want %q", s != nil, err, want)
			}
			return nil
		}},
		{"cancel", gcc, 1 << 40, 30 * time.Millisecond, func(s *Stream, err error) error {
			var bc *trace.BuildCanceled
			if s != nil || !errors.As(err, &bc) || !errors.Is(err, context.Canceled) || bc.Entries <= 0 {
				return fmt.Errorf("stream returned %t, error %v; want *trace.BuildCanceled mid-pass", s != nil, err)
			}
			return nil
		}},
	} {
		dir := t.TempDir()
		store, err := artifact.Open(dir, artifact.RW, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if c.cancel > 0 {
			time.AfterFunc(c.cancel, cancel)
		}
		before := runtime.NumGoroutine()
		s, err := BuildStream(ctx, c.prog, c.budget, autoChunkLen(min(c.budget, 200_000)), store, artifact.Key{1}, true, &wcfg)
		files := listDir(t, dir)
		cancel()
		if cerr := c.check(s, err); cerr != nil {
			t.Fatalf("%s: %v", c.name, cerr)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines left running, %d before", c.name, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
		if len(files) < 2 {
			t.Fatalf("%s: %d files published", c.name, len(files))
		}
		for _, f := range files {
			if strings.HasPrefix(f, "tmp-") {
				t.Fatalf("%s: store holds %s", c.name, f)
			}
		}
		if after := listDir(t, dir); !slices.Equal(files, after) {
			t.Fatalf("%s: %d files when BuildStream returned, %d after", c.name, len(files), len(after))
		}
	}
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range ents {
		names = append(names, de.Name())
	}
	return names
}

// TestCachedPlanWithDroppedCheckpointsReprofiles: a cached plan whose
// checkpoints were dropped is not trusted. The run profiles once more and
// republishes them, so the run after it restores every interval from the
// store again instead of re-emulating from the program start.
func TestCachedPlanWithDroppedCheckpointsReprofiles(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.Open(dir, artifact.RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(config.DMDP)
	_, str := execRequest(t, "gcc", 60_000)
	str.Spec, str.Checkpoint, str.Store = Spec{Auto: true, K: 4, Warmup: 200}, true, store
	cold, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	ref := cold.Combined.MarshalCanonical()
	dropped := 0
	for _, name := range listDir(t, dir) {
		if strings.HasSuffix(name, ".ckpt") {
			if err := os.Truncate(filepath.Join(dir, name), 20); err != nil {
				t.Fatal(err)
			}
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no checkpoints were persisted")
	}
	for run, wantCached := range []bool{false, true} {
		before := store.Counters()
		out, err := Execute(context.Background(), cfg, str)
		if err != nil {
			t.Fatal(err)
		}
		after := store.Counters()
		if !bytes.Equal(ref, out.Combined.MarshalCanonical()) {
			t.Fatalf("run %d differs from the cold run", run)
		}
		if out.PlanCached != wantCached {
			t.Fatalf("run %d: PlanCached %v, want %v", run, out.PlanCached, wantCached)
		}
		if wantCached && after.CheckpointMisses != before.CheckpointMisses {
			t.Fatalf("run %d: %d checkpoint misses after the republishing pass", run, after.CheckpointMisses-before.CheckpointMisses)
		}
	}
}

// TestStreamKeepsOnlyResumeState: once a warmed profiling pass has its
// plan, the stream keeps in memory only the state of the boundaries its
// intervals resume from — warm snapshots always, and checkpoints too
// when no writable store holds them — and the intervals still give the
// same result with and without the store.
func TestStreamKeepsOnlyResumeState(t *testing.T) {
	const budget = 2_000_000
	prog, spec := proxyProgram(t, "lbm")
	cfg := config.Default(config.DMDP)
	wcfg := warm.ConfigFrom(cfg)
	var results [][]byte
	for _, withStore := range []bool{false, true} {
		req := Request{Spec: Spec{Auto: true, K: 6, Warmup: 2000}, Budget: budget, Prog: prog, Warm: true,
			TraceKey: artifact.TraceKey(spec.SourceHash(), budget)}
		if withStore {
			store, err := artifact.Open(t.TempDir(), artifact.RW, 0)
			if err != nil {
				t.Fatal(err)
			}
			req.Checkpoint, req.Store = true, store
		}
		out, src, err := stream(context.Background(), req, prog, &wcfg)
		if err != nil {
			t.Fatal(err)
		}
		s := src.(*streamSource).s
		resume := map[int64]bool{}
		for i := range out.Plan.Intervals {
			b, _ := beginOf(out.Plan, i)
			resume[int64(b/s.ChunkLen*s.ChunkLen)] = true
		}
		if len(s.warms) != len(resume) {
			t.Errorf("store %v: %d warm snapshots in memory for %d resume boundaries", withStore, len(s.warms), len(resume))
		}
		for at := range s.warms {
			if !resume[at] {
				t.Errorf("store %v: warm snapshot kept at %d, where no interval resumes", withStore, at)
			}
		}
		for at := range s.cks {
			if !resume[at] {
				t.Errorf("store %v: checkpoint kept at %d, where no interval resumes", withStore, at)
			}
		}
		if !withStore && len(s.cks) != len(resume) {
			t.Errorf("no store: %d checkpoints in memory for %d resume boundaries", len(s.cks), len(resume))
		}
		comb, err := RunPlan(context.Background(), cfg, out.Plan, src, 2)
		if err != nil {
			t.Fatal(err)
		}
		if w, c, _ := src.warmStats(); w != int64(len(out.Plan.Intervals)) || c != 0 {
			t.Errorf("store %v: %d intervals warmed, %d cold-started", withStore, w, c)
		}
		results = append(results, comb.MarshalCanonical())
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("sampled result differs with and without a store")
	}
}
