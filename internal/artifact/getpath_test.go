package artifact

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/trace"
)

// getPathKind adapts one framed kind to the get-path table: the store
// call under test, its key and label, a value seeded under the key
// before the call, a fresh value that encodes like it, and another that
// does not.
type getPathKind[T any] struct {
	kind                 *framedKind[T]
	call                 func(s *Store, key Key, compute func() (*T, error)) (*T, error)
	key                  Key
	label                string
	stored, fresh, other *T
}

// testGetPath covers every rule of get for one kind. Each case seeds a
// fresh directory, opens a store on it in the case's mode (Off: a nil
// store), makes one call whose compute closure counts its calls, and
// checks the returned value or error, the compute count, the kind's
// counters and what the directory holds under the key afterwards.
func testGetPath[T any](t *testing.T, k getPathKind[T]) {
	// What a case's compute returns, and what the call must return: the
	// stored entry, or the very value compute returned.
	const (
		none = iota // compute fails; the call returns its error
		stored
		fresh
		other
	)
	cases := []struct {
		name       string
		mode       Mode
		seed       bool // k.stored is stored under the key before the call
		zeroKey    bool // the call passes the zero key
		compute    int
		want       int
		wantErr    string
		wantRuns   int
		wantHits   int64
		wantMisses int64
		wantAfter  bool // an entry encoding like k.stored is under the key afterwards
	}{
		{name: "nil store runs", mode: Off, compute: fresh, want: fresh, wantRuns: 1},
		{name: "zero key only runs", mode: RW, seed: true, zeroKey: true, compute: other, want: other,
			wantRuns: 1, wantAfter: true},
		{name: "miss runs and stores", mode: RW, compute: fresh, want: fresh,
			wantRuns: 1, wantMisses: 1, wantAfter: true},
		{name: "hit does not run", mode: RW, seed: true, compute: other, want: stored,
			wantHits: 1, wantAfter: true},
		{name: "read-only miss runs and writes nothing", mode: RO, compute: fresh, want: fresh,
			wantRuns: 1, wantMisses: 1},
		{name: "verify hit with equal bytes returns the stored stats", mode: Verify, seed: true, compute: fresh, want: stored,
			wantRuns: 1, wantHits: 1, wantAfter: true},
		{name: "verify mismatch", mode: Verify, seed: true, compute: other,
			wantErr: "verify mismatch for perl/" + k.label, wantRuns: 1, wantHits: 1, wantAfter: true},
		{name: "run error is returned and not stored", mode: RW, compute: none,
			wantErr: "run failed", wantRuns: 1, wantMisses: 1},
		{name: "verify-mode run error is returned", mode: Verify, seed: true, compute: none,
			wantErr: "run failed", wantRuns: 1, wantHits: 1, wantAfter: true},
	}
	values := map[int]*T{stored: k.stored, fresh: k.fresh, other: k.other}
	encodes := func(v, like *T) bool {
		return bytes.Equal(bytes.Join(k.kind.encode(v), nil), bytes.Join(k.kind.encode(like), nil))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.seed {
				seeder, err := Open(dir, RW, 0)
				if err != nil {
					t.Fatal(err)
				}
				k.kind.store(seeder, k.key, k.stored)
			}
			s, err := Open(dir, c.mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			runs := 0
			compute := func() (*T, error) {
				runs++
				if c.compute == none {
					return nil, errors.New("run failed")
				}
				return values[c.compute], nil
			}
			key := k.key
			if c.zeroKey {
				key = Key{}
			}

			got, err := k.call(s, key, compute)
			switch {
			case c.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err %v, want %q", err, c.wantErr)
				}
			case err != nil:
				t.Fatal(err)
			case c.want == stored:
				if got == k.fresh || got == k.other || !encodes(got, k.stored) {
					t.Fatal("the call did not return the stored entry")
				}
			case got != values[c.want]:
				t.Fatal("the call did not return what compute returned")
			}
			if runs != c.wantRuns {
				t.Errorf("compute called %d times, want %d", runs, c.wantRuns)
			}
			var hits, misses int64
			if s != nil {
				hits, misses = s.hits[k.kind.lookups].Load(), s.misses[k.kind.lookups].Load()
			}
			if hits != c.wantHits || misses != c.wantMisses {
				t.Errorf("counters %d hit / %d miss, want %d / %d", hits, misses, c.wantHits, c.wantMisses)
			}
			reader, err := Open(dir, RO, 0)
			if err != nil {
				t.Fatal(err)
			}
			after, _, ok := k.kind.load(reader, k.key)
			if ok != c.wantAfter || (ok && !encodes(after, k.stored)) {
				t.Errorf("entry after the call: present %t, want %t (or it encodes differently)", ok, c.wantAfter)
			}

			var verr *VerifyError
			if errors.As(err, &verr) && (verr.Bench != "perl" || verr.Label != k.label || verr.Key != k.key) {
				t.Errorf("verify error misattributed: %+v", verr)
			}
			if c.name == "miss runs and stores" {
				if _, err := k.call(s, k.key, compute); err != nil || runs != 1 {
					t.Errorf("the call after a miss ran again (runs=%d, err=%v)", runs, err)
				}
			}
		})
	}
}

// TestResultPath runs the get-path table over Store.Result. The fresh
// stats differ from the stored ones only in their wall clock, which the
// canonical encoding leaves out.
func TestResultPath(t *testing.T) {
	cfg := config.Default(config.DMDP)
	testGetPath(t, getPathKind[core.Stats]{
		kind: &resultKind,
		call: func(s *Store, key Key, run func() (*core.Stats, error)) (*core.Stats, error) {
			return s.Result(key, "perl", "dmdp", run)
		},
		key:    ResultKey(Key{7}, cfg.Digest(), testBudget),
		label:  "dmdp",
		stored: &core.Stats{Cycles: 100, Instructions: 50},
		fresh:  &core.Stats{Cycles: 100, Instructions: 50, SimWallClockNS: 5},
		other:  &core.Stats{Cycles: 101, Instructions: 50},
	})
}

// TestTracePath runs the get-path table over Store.Trace. The fresh
// trace is a second build of the stored one; the other is built at a
// smaller budget, as a stale entry under the wrong key would be. So a
// verify-mode hit rebuilds and matches in one case and fails in the
// other.
func TestTracePath(t *testing.T) {
	spec, tr := buildTestTrace(t, "perl")
	_, again := buildTestTrace(t, "perl")
	short, err := spec.BuildTrace(testBudget / 2)
	if err != nil {
		t.Fatal(err)
	}
	testGetPath(t, getPathKind[trace.Trace]{
		kind: &traceKind,
		call: func(s *Store, key Key, build func() (*trace.Trace, error)) (*trace.Trace, error) {
			return s.Trace(key, "perl", build)
		},
		key:    TraceKey(spec.SourceHash(), testBudget),
		label:  "trace",
		stored: tr,
		fresh:  again,
		other:  short,
	})
}
