package sampling

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmdp/internal/artifact"
	"dmdp/internal/asm"
	"dmdp/internal/config"
	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/workload"
)

func execRequest(t *testing.T, bench string, budget int64) (Request, Request) {
	t.Helper()
	s, ok := workload.Get(bench)
	if !ok {
		t.Fatalf("unknown bench %s", bench)
	}
	prog, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	return progRequests(t, prog, artifact.TraceKey(s.SourceHash(), budget), budget)
}

// progRequests returns the sliced and the streamed request for prog at
// budget: the first holds its trace, the second only the program.
func progRequests(t *testing.T, prog *isa.Program, key artifact.Key, budget int64) (Request, Request) {
	t.Helper()
	tr, err := emu.Run(prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	mat := Request{Budget: budget, Trace: tr, TraceKey: key}
	str := Request{Budget: budget, Prog: prog, TraceKey: key}
	return mat, str
}

// haltingProg fills a buffer, then sums it back, and halts after about
// 11k instructions: far below the budgets it runs under.
const haltingProg = `
	li   $t0, 0
	li   $t1, 1000
	li   $t2, 0x1000
fill:
	sll  $t3, $t0, 2
	add  $t4, $t2, $t3
	sw   $t0, 0($t4)
	addi $t0, $t0, 1
	bne  $t0, $t1, fill
	li   $t0, 0
sum:
	sll  $t3, $t0, 2
	add  $t4, $t2, $t3
	lw   $t5, 0($t4)
	add  $t6, $t6, $t5
	addi $t0, $t0, 1
	bne  $t0, $t1, sum
	halt
`

// TestStreamMatchesMaterialized is the core equivalence oracle of the
// streaming path: re-materializing intervals from checkpoints + emulator
// replay must give byte-identical combined stats to slicing a fully
// materialized trace.
func TestStreamMatchesMaterialized(t *testing.T) {
	cfg := config.Default(config.DMDP)
	spec := Spec{Count: 4, Len: 2_000, Warmup: 500}
	mat, str := execRequest(t, "gcc", 50_000)
	mat.Spec, str.Spec = spec, spec

	a, err := Execute(context.Background(), cfg, mat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	// A held trace streams from its own program when the request asks
	// for checkpoints.
	held := mat
	held.Checkpoint = true
	c, err := Execute(context.Background(), cfg, held)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Streamed || a.Streamed || !c.Streamed {
		t.Fatal("path selection wrong")
	}
	for _, o := range []*Outcome{b, c} {
		if !bytes.Equal(a.Combined.MarshalCanonical(), o.Combined.MarshalCanonical()) {
			t.Fatalf("streamed result differs from materialized:\nmat IPC %f\nstr IPC %f",
				a.Combined.WeightedIPC, o.Combined.WeightedIPC)
		}
	}
}

func TestStreamAutoPlanMatchesMaterializedAuto(t *testing.T) {
	cfg := config.Default(config.DMDP)
	prog, err := asm.Assemble(haltingProg)
	if err != nil {
		t.Fatal(err)
	}
	const haltBudget = 300_000
	haltMat, haltStr := progRequests(t, prog, artifact.Key{1}, haltBudget)
	if !haltMat.Trace.HitHalt || len(haltMat.Trace.Entries) >= haltBudget/10 {
		t.Fatalf("halting program ran %d instructions (halted %v)", len(haltMat.Trace.Entries), haltMat.Trace.HitHalt)
	}
	mat, str := execRequest(t, "sjeng", 60_000)
	for _, c := range []struct {
		name     string
		mat, str Request
		spec     Spec
	}{
		{"sjeng", mat, str, Spec{Auto: true, K: 4}},
		// Both sources take the chunk length from the budget, not from
		// the executed length, so a program that halts early gets one
		// plan.
		{"halting", haltMat, haltStr, Spec{Auto: true, K: 3}},
	} {
		c.mat.Spec, c.str.Spec = c.spec, c.spec
		a, err := Execute(context.Background(), cfg, c.mat)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := Execute(context.Background(), cfg, c.str)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(a.Plan.Intervals) == 0 || len(a.Plan.Intervals) > c.spec.Phases() {
			t.Fatalf("%s: auto plan size %d", c.name, len(a.Plan.Intervals))
		}
		if !bytes.Equal(a.Combined.MarshalCanonical(), b.Combined.MarshalCanonical()) {
			t.Fatalf("%s: auto plans diverge between sliced and streamed sources:\nsliced   %+v IPC %f\nstreamed %+v IPC %f",
				c.name, a.Plan.Intervals, a.Combined.WeightedIPC, b.Plan.Intervals, b.Combined.WeightedIPC)
		}
	}
}

// TestExecuteRejectsBadRequests: a request needs a positive budget, even
// when it holds a trace, and something to run.
func TestExecuteRejectsBadRequests(t *testing.T) {
	mat, _ := execRequest(t, "gcc", 10_000)
	mat.Spec = Spec{Count: 2, Len: 1_000}
	for name, mutate := range map[string]func(*Request){
		"zero budget":     func(r *Request) { r.Budget = 0 },
		"negative budget": func(r *Request) { r.Budget = -1 },
		"nothing to run":  func(r *Request) { r.Trace = nil },
	} {
		req := mat
		mutate(&req)
		if _, err := Execute(context.Background(), config.Default(config.DMDP), req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestExecuteParallelByteIdentical: the -j determinism contract at the
// Execute level (the full 21-proxy sweep lives in the root package's
// determinism test).
func TestExecuteParallelByteIdentical(t *testing.T) {
	cfg := config.Default(config.DMDP)
	spec := Spec{Count: 6, Len: 1_500, Warmup: 300}
	_, str := execRequest(t, "mcf", 40_000)
	str.Spec = spec
	var ref []byte
	for _, jobs := range []int{1, 2, 8} {
		req := str
		req.Jobs = jobs
		out, err := Execute(context.Background(), cfg, req)
		if err != nil {
			t.Fatal(err)
		}
		enc := out.Combined.MarshalCanonical()
		if ref == nil {
			ref = enc
		} else if !bytes.Equal(ref, enc) {
			t.Fatalf("-j%d result differs from -j1", jobs)
		}
	}
}

// TestCheckpointWarmAndCorruptDegrade drives the full persistence cycle:
// cold run publishes plan+checkpoints, warm run restores them (skipping
// the profiling pass), and damaging every checkpoint but the one the
// plan-cache probe loads degrades to re-simulation with identical
// results. A checkpoint whose has-arch byte is 0 (the image-only kind
// older builds wrote under the same keys) carries no registers: it is
// dropped like a corrupt one, never resumed.
func TestCheckpointWarmAndCorruptDegrade(t *testing.T) {
	for _, c := range []struct {
		name   string
		damage func(file []byte)
	}{
		{"flipped byte", func(file []byte) { file[len(file)/2] ^= 0xff }},
		{"image-only", func(file []byte) {
			payload := file[12:] // after the frame's magic and checksum
			if len(payload) > 4<<20 {
				t.Fatalf("checkpoint payload of %d bytes spans checksum chunks", len(payload))
			}
			payload[12] = 0
			binary.LittleEndian.PutUint32(file[8:12], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := artifact.Open(dir, artifact.RW, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config.Default(config.DMDP)
			spec := Spec{Auto: true, K: 3, Warmup: 200}
			_, str := execRequest(t, "astar", 40_000)
			str.Spec, str.Checkpoint, str.Store = spec, true, store

			cold, err := Execute(context.Background(), cfg, str)
			if err != nil {
				t.Fatal(err)
			}
			if cold.PlanCached {
				t.Fatal("cold run cannot hit the plan cache")
			}
			ref := cold.Combined.MarshalCanonical()

			warm, err := Execute(context.Background(), cfg, str)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.PlanCached {
				t.Fatal("warm run should reuse the cached plan")
			}
			if !bytes.Equal(ref, warm.Combined.MarshalCanonical()) {
				t.Fatal("warm (checkpoint-restored) result differs from cold")
			}

			// Damage every checkpoint but the probed one, at the plan's
			// highest interval boundary: the plan still loads, every
			// other restore misses and drops its file, and interval
			// extraction degrades to an older boundary or to
			// re-emulation from the program start — slower,
			// byte-identical.
			maxBegin := 0
			for i := range warm.Plan.Intervals {
				b, _ := beginOf(warm.Plan, i)
				maxBegin = max(maxBegin, b)
			}
			chunkLen := autoChunkLen(str.Budget)
			probed := artifact.CheckpointKey(str.TraceKey, int64(maxBegin/chunkLen*chunkLen)).String() + ".ckpt"
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			damaged := 0
			for _, de := range ents {
				if strings.HasSuffix(de.Name(), ".ckpt") && de.Name() != probed {
					path := filepath.Join(dir, de.Name())
					buf, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					c.damage(buf)
					if err := os.WriteFile(path, buf, 0o644); err != nil {
						t.Fatal(err)
					}
					damaged++
				}
			}
			if damaged == 0 {
				t.Fatal("no checkpoints were persisted")
			}
			degraded, err := Execute(context.Background(), cfg, str)
			if err != nil {
				t.Fatal(err)
			}
			if !degraded.PlanCached {
				t.Fatal("the probed checkpoint loads, so the plan should be trusted")
			}
			if !bytes.Equal(ref, degraded.Combined.MarshalCanonical()) {
				t.Fatal("degraded (damaged-checkpoint) result differs from cold")
			}
			if store.Counters().CorruptDropped == 0 {
				t.Fatal("damaged checkpoints were not dropped")
			}
		})
	}
}

// Checkpoint spacing on the streamed path must be budget-derived, never
// the spec's interval length: a `1x1000` spec at a 100M budget once
// snapshotted a checkpoint every 1000 entries — 100k O(dirty pages)
// deltas, quadratic work that looked like a hang — while a huge interval
// length would have buffered the whole chunk in memory. The store must
// hold ~budget/autoChunkLen checkpoints regardless of Spec.Len.
func TestSystematicSpecChunkingIsBudgetDerived(t *testing.T) {
	const budget = 100_000
	dir := t.TempDir()
	store, err := artifact.Open(dir, artifact.RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, str := execRequest(t, "gcc", budget)
	str.Spec = Spec{Count: 1, Len: 10}
	str.Checkpoint, str.Store = true, store

	if _, err := Execute(context.Background(), config.Default(config.DMDP), str); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			ckpts++
		}
	}
	want := int(budget) / autoChunkLen(budget)
	if ckpts < want/2 || ckpts > 2*want {
		t.Fatalf("store holds %d checkpoints for a %d budget (chunking tied to Spec.Len=10?); want ~%d", ckpts, budget, want)
	}
}
