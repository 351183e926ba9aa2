package artifact

import (
	"errors"
	"strings"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/trace"
)

// TestResultPath covers every rule of Store.Result. Each case seeds a
// fresh directory, opens a store on it in the case's mode (Off: a nil
// store), makes one call whose run closure counts its calls, and checks
// the returned stats or error, the run count, the store's counters and
// what the directory holds under the key afterwards.
func TestResultPath(t *testing.T) {
	cfg := config.Default(config.DMDP)
	key := ResultKey(Key{7}, cfg.Digest(), testBudget)
	stored := &core.Stats{Cycles: 100, Instructions: 50}
	// fresh encodes like stored; only its wall clock, which is not part
	// of the canonical encoding, tells the two apart.
	fresh := &core.Stats{Cycles: 100, Instructions: 50, SimWallClockNS: 5}
	other := &core.Stats{Cycles: 101, Instructions: 50}

	cases := []struct {
		name       string
		mode       Mode
		seed       *core.Stats // stored under key before the call
		key        Key         // the key the call passes
		run        *core.Stats
		runErr     error
		wantWall   int64 // SimWallClockNS of the returned stats
		wantCycles int64 // 0: an error is expected
		wantErr    string
		wantRuns   int
		wantHits   int64
		wantMisses int64
		wantAfter  int64 // cycles stored under key afterwards (0: none)
	}{
		{name: "nil store runs", mode: Off, key: key, run: fresh,
			wantCycles: 100, wantWall: 5, wantRuns: 1},
		{name: "zero key only runs", mode: RW, seed: stored, key: Key{}, run: other,
			wantCycles: 101, wantRuns: 1, wantAfter: 100},
		{name: "miss runs and stores", mode: RW, key: key, run: fresh,
			wantCycles: 100, wantWall: 5, wantRuns: 1, wantMisses: 1, wantAfter: 100},
		{name: "hit does not run", mode: RW, seed: stored, key: key, run: other,
			wantCycles: 100, wantHits: 1, wantAfter: 100},
		{name: "read-only miss runs and writes nothing", mode: RO, key: key, run: fresh,
			wantCycles: 100, wantWall: 5, wantRuns: 1, wantMisses: 1},
		{name: "verify hit with equal bytes returns the stored stats", mode: Verify, seed: stored, key: key, run: fresh,
			wantCycles: 100, wantRuns: 1, wantHits: 1, wantAfter: 100},
		{name: "verify mismatch", mode: Verify, seed: stored, key: key, run: other,
			wantErr: "verify mismatch for perl/dmdp", wantRuns: 1, wantHits: 1, wantAfter: 100},
		{name: "run error is returned and not stored", mode: RW, key: key, runErr: errors.New("run failed"),
			wantErr: "run failed", wantRuns: 1, wantMisses: 1},
		{name: "verify-mode run error is returned", mode: Verify, seed: stored, key: key, runErr: errors.New("run failed"),
			wantErr: "run failed", wantRuns: 1, wantHits: 1, wantAfter: 100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.seed != nil {
				seeder, err := Open(dir, RW, 0)
				if err != nil {
					t.Fatal(err)
				}
				seeder.StoreStats(key, c.seed)
			}
			s, err := Open(dir, c.mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			runs := 0
			run := func() (*core.Stats, error) {
				runs++
				if c.runErr != nil {
					return nil, c.runErr
				}
				st := *c.run
				return &st, nil
			}

			st, resErr := s.Result(c.key, "perl", "dmdp", run)
			switch {
			case c.wantErr != "":
				if resErr == nil || !strings.Contains(resErr.Error(), c.wantErr) {
					t.Fatalf("err %v, want %q", resErr, c.wantErr)
				}
			case resErr != nil:
				t.Fatal(resErr)
			case st.Cycles != c.wantCycles || st.SimWallClockNS != c.wantWall:
				t.Fatalf("got cycles %d wall %d, want %d and %d", st.Cycles, st.SimWallClockNS, c.wantCycles, c.wantWall)
			}
			if runs != c.wantRuns {
				t.Errorf("run called %d times, want %d", runs, c.wantRuns)
			}
			if got := s.Counters(); got.ResultHits != c.wantHits || got.ResultMisses != c.wantMisses {
				t.Errorf("counters %d hit / %d miss, want %d / %d", got.ResultHits, got.ResultMisses, c.wantHits, c.wantMisses)
			}
			reader, err := Open(dir, RO, 0)
			if err != nil {
				t.Fatal(err)
			}
			after, _, ok := reader.LoadStats(key)
			if (c.wantAfter != 0) != ok || (ok && after.Cycles != c.wantAfter) {
				t.Errorf("entry after the call: %v (ok=%t), want cycles %d", after, ok, c.wantAfter)
			}

			var verr *VerifyError
			if errors.As(resErr, &verr) && (verr.Bench != "perl" || verr.Label != "dmdp" || verr.Key != key) {
				t.Errorf("verify error misattributed: %+v", verr)
			}
			if c.name == "miss runs and stores" {
				if _, err := s.Result(key, "perl", "dmdp", run); err != nil || runs != 1 {
					t.Errorf("the call after a miss ran again (runs=%d, err=%v)", runs, err)
				}
			}
		})
	}
}

// TestTracePath covers Store.Trace: a nil store builds every time, a
// miss builds once and stores so the next call hits without building, a
// read-only store builds and writes nothing, and a failed build is
// returned and never stored.
func TestTracePath(t *testing.T) {
	spec, tr := buildTestTrace(t, "hmmer")
	key := TraceKey(spec.SourceHash(), testBudget)
	builds := 0
	build := func() (*trace.Trace, error) { builds++; return tr, nil }
	fail := func() (*trace.Trace, error) { builds++; return nil, errors.New("build failed") }

	var nilStore *Store
	for i := 0; i < 2; i++ {
		if got, err := nilStore.Trace(key, build); err != nil || got != tr {
			t.Fatalf("nil store: %v, %v", got, err)
		}
	}
	if builds != 2 {
		t.Errorf("nil store built %d times, want 2", builds)
	}

	dir := t.TempDir()
	ro, err := Open(dir, RO, 0)
	if err != nil {
		t.Fatal(err)
	}
	builds = 0
	if _, err := ro.Trace(key, build); err != nil || builds != 1 || ro.Counters().Writes != 0 {
		t.Errorf("read-only store: err %v, %d builds, %d writes", err, builds, ro.Counters().Writes)
	}

	rw, err := Open(dir, RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	builds = 0
	if _, err := rw.Trace(key, fail); err == nil || !strings.Contains(err.Error(), "build failed") {
		t.Fatalf("failed build: err %v", err)
	}
	if rw.Counters().Writes != 0 {
		t.Error("a failed build was stored")
	}
	if _, err := rw.Trace(key, build); err != nil {
		t.Fatal(err)
	}
	got, err := rw.Trace(key, fail)
	if err != nil {
		t.Fatalf("the call after a miss built again: %v", err)
	}
	if builds != 2 || len(got.Entries) != len(tr.Entries) {
		t.Errorf("the call after a miss: %d builds (want 2), %d entries", builds, len(got.Entries))
	}
	if c := rw.Counters(); c.TraceHits != 1 || c.TraceMisses != 2 || c.Writes != 1 {
		t.Errorf("counters %d hit / %d miss / %d written, want 1 / 2 / 1", c.TraceHits, c.TraceMisses, c.Writes)
	}
}
