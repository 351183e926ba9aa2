package core

import (
	"runtime"
	"testing"
	"time"

	"dmdp/internal/config"
	"dmdp/internal/trace"
)

// TestRunResultDoesNotPinCore is the retention regression test: result
// caches hold the *Stats a run returns for the life of a process, so the
// returned value must not keep the core (cache arrays, cloned memory
// image, pools) reachable. While the Stats is still held, a finalizer on
// the core must run after a garbage collection — for a full run and for
// the empty-trace early return.
func TestRunResultDoesNotPinCore(t *testing.T) {
	traces := map[string]*trace.Trace{
		"full":  traceOf(t, aluLoop, 10_000),
		"empty": {},
	}
	for name, tr := range traces {
		finalized := make(chan struct{})
		st := runAndDrop(t, tr, finalized)
		collected := false
		for i := 0; i < 20 && !collected; i++ {
			runtime.GC()
			select {
			case <-finalized:
				collected = true
			case <-time.After(5 * time.Millisecond):
			}
		}
		if !collected {
			t.Errorf("%s: the returned *Stats keeps its Core reachable", name)
		}
		runtime.KeepAlive(st)
	}
}

// runAndDrop runs a core with a finalizer attached and returns only its
// Stats; the core itself goes out of scope here.
func runAndDrop(t *testing.T, tr *trace.Trace, finalized chan struct{}) *Stats {
	t.Helper()
	c, err := New(config.Default(config.DMDP), tr)
	if err != nil {
		t.Fatal(err)
	}
	runtime.SetFinalizer(c, func(*Core) { close(finalized) })
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}
