// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI). Each experiment function renders the same rows/series
// the paper reports; cmd/experiments drives them all and EXPERIMENTS.md
// records paper-vs-measured values. Traces and simulation results are
// cached so experiments sharing runs (most of them share the four default
// model runs) do not repeat work. Results are keyed by the configuration's
// content digest, not by label, so two experiments that describe the same
// machine under different names share one simulation.
package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/sampling"
	"dmdp/internal/sched"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// Options configures a reproduction run.
type Options struct {
	// Budget is the instruction count simulated per proxy (the paper
	// uses 100M-instruction SimPoint intervals; our stationary proxies
	// converge much faster).
	Budget int64
	// Benchmarks restricts the suite (default: all 21).
	Benchmarks []string
	// Parallel runs benchmarks concurrently (deterministic results;
	// scheduling only affects wall clock).
	Parallel bool
	// Jobs is the worker-pool width for parallel warm-up (0 =
	// GOMAXPROCS). Ignored when Parallel is false.
	Jobs int
	// Cache is the persistent artifact store (nil = in-memory caching
	// only). Lookups go memory -> disk -> simulate; results of failed
	// or fault-injected runs are never persisted.
	Cache *artifact.Store
	// Context, when set, bounds every run the runner starts (wall-clock
	// -timeout on the CLIs, per-service shutdown in daemons): once it is
	// done, in-flight simulations abort with a structured canceled error
	// and pooled warm-ups stop claiming new work. Nil means no bound.
	Context context.Context
	// Sample overrides the samp-err experiment's sampling spec (zero
	// value: a budget-derived default, see Runner.sampSpec).
	Sample sampling.Spec
	// SampleWarm adds functionally-warmed rows to the samp-err
	// experiment: each benchmark is sampled twice, cold-start (the
	// paper's checkpoint semantics) and with cache/TLB/predictor tag
	// state installed from the profiling pass.
	SampleWarm bool
}

// DefaultOptions runs the full suite at 300k instructions per proxy.
func DefaultOptions() Options { return Options{Budget: 300_000, Parallel: true} }

// RunSpec names one run an experiment needs: a benchmark, the machine
// configuration, the run's kind, and the display label its tables use.
// The zero kind is a full single-core run, the only kind the result
// store holds. Two specs with equal (Bench, Cfg.Digest(), kind)
// describe the same run regardless of label.
type RunSpec struct {
	Bench string
	Cfg   config.Config
	Label string
	// Cores > 0 makes the run a timing-only machine of that many cores,
	// each replaying Bench's trace (core.NewReplicated).
	Cores int
	// Sampled makes the run a sampled estimate under Runner.sampSpec;
	// Warm adds functional warming to it.
	Sampled, Warm bool
}

// runKey identifies a run in the run cache. Labels are display-only;
// the digest covers every Config field, so distinct machines never
// alias and identical machines always share.
type runKey struct {
	bench         string
	digest        config.Digest
	budget        int64
	cores         int
	sampled, warm bool
}

// key returns the spec's run-cache key.
func (r *Runner) key(s RunSpec) runKey {
	return runKey{bench: s.Bench, digest: s.Cfg.Digest(), budget: r.opt.Budget,
		cores: s.Cores, sampled: s.Sampled, warm: s.Warm}
}

// result is one completed run; the field of the spec's kind is set.
type result struct {
	st   *core.Stats        // single-core run
	mc   *core.MachineStats // machine (Cores > 0)
	samp *sampling.Outcome  // sampled estimate
}

// runCall is an in-flight or completed run (inline singleflight): the
// first caller executes, every later caller with the same key waits on
// wg and shares the result. Failures are cached too (negative caching):
// a deterministic failure would fail again, so experiments sharing the
// run all see the same error without re-running it.
type runCall struct {
	wg  sync.WaitGroup
	res result
	err error // bare cause; labels are attached per caller
}

// traceCall is the singleflight slot for one proxy's trace build.
type traceCall struct {
	wg  sync.WaitGroup
	tr  *trace.Trace
	err error
}

// keyCall memoizes one benchmark's trace-store key (the SHA-256 of its
// generated source is not free to recompute per run).
type keyCall struct {
	once sync.Once
	key  artifact.Key
	ok   bool
	// src is the source text the key was hashed from, held under
	// Runner.mu until the proxy's trace build takes it (takeSource), so
	// a cold build generates the text once. A result hit, which builds
	// nothing, drops it.
	src string
}

// Runner caches traces and run results across experiments.
type Runner struct {
	opt  Options
	sims atomic.Int64 // single-core simulations (not cache hits)

	mu       sync.Mutex
	traces   map[string]*traceCall
	calls    map[runKey]*runCall
	keys     map[string]*keyCall
	failures []Failure
}

// NewRunner builds a runner.
func NewRunner(opt Options) *Runner {
	if opt.Budget <= 0 {
		opt.Budget = DefaultOptions().Budget
	}
	if len(opt.Benchmarks) == 0 {
		opt.Benchmarks = workload.Names()
	}
	return &Runner{
		opt:    opt,
		traces: make(map[string]*traceCall),
		calls:  make(map[runKey]*runCall),
		keys:   make(map[string]*keyCall),
	}
}

// ctx returns the runner's base context (never nil).
func (r *Runner) ctx() context.Context {
	if r.opt.Context != nil {
		return r.opt.Context
	}
	return context.Background()
}

// Sims returns the number of single-core simulations so far (cache hits
// excluded) — the /statz gauge and the warm-cache test oracle. It counts
// only the kind the result store holds, not machines or sampled runs.
func (r *Runner) Sims() int64 { return r.sims.Load() }

// traceKey returns the persistent trace-store key for a benchmark
// (ok=false for unknown names). Keys are memoized: the underlying source
// hash regenerates the proxy's assembly.
func (r *Runner) traceKey(name string) (artifact.Key, bool) {
	r.mu.Lock()
	c, ok := r.keys[name]
	if !ok {
		c = &keyCall{}
		r.keys[name] = c
	}
	r.mu.Unlock()
	c.once.Do(func() {
		if s, ok := workload.Get(name); ok {
			src := s.Source()
			c.key = artifact.TraceKey(sha256.Sum256([]byte(src)), r.opt.Budget)
			c.ok = true
			r.mu.Lock()
			c.src = src
			r.mu.Unlock()
		}
	})
	return c.key, c.ok
}

// takeSource returns the source text traceKey hashed for name and stops
// holding it ("" once taken or dropped).
func (r *Runner) takeSource(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.keys[name]
	if c == nil {
		return ""
	}
	src := c.src
	c.src = ""
	return src
}

// Benchmarks returns the active suite.
func (r *Runner) Benchmarks() []string { return r.opt.Benchmarks }

func (r *Runner) intBenchmarks() []string { return r.filterClass(workload.Int) }
func (r *Runner) fpBenchmarks() []string  { return r.filterClass(workload.Float) }

func (r *Runner) filterClass(c workload.Class) []string {
	var out []string
	for _, n := range r.opt.Benchmarks {
		if s, ok := workload.Get(n); ok && s.Class == c {
			out = append(out, n)
		}
	}
	return out
}

// jobs returns the effective worker-pool width.
func (r *Runner) jobs() int {
	if !r.opt.Parallel {
		return 1
	}
	if r.opt.Jobs > 0 {
		return r.opt.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Trace returns (building and caching) the proxy's analyzed trace,
// through the trace store (Store.Trace: in verify mode a hit is rebuilt
// and compared). Builds are deduplicated: concurrent callers for the
// same proxy share one build.
func (r *Runner) Trace(name string) (*trace.Trace, error) {
	r.mu.Lock()
	c, ok := r.traces[name]
	if ok {
		r.mu.Unlock()
		c.wg.Wait()
		return c.tr, c.err
	}
	c = &traceCall{}
	c.wg.Add(1)
	r.traces[name] = c
	r.mu.Unlock()

	if s, ok := workload.Get(name); ok {
		key, _ := r.traceKey(name)
		src := r.takeSource(name)
		c.tr, c.err = r.opt.Cache.Trace(key, name, func() (*trace.Trace, error) {
			if src == "" { // dropped by an earlier result hit
				src = s.Source()
			}
			// Builds poll the runner's base context: a daemon drain or
			// deadline aborts a multi-minute 100M-entry emulation mid-way
			// instead of running it to completion first.
			return s.BuildTraceFrom(r.ctx(), src, r.opt.Budget)
		})
	} else {
		c.err = fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	c.wg.Done()
	return c.tr, c.err
}

// traceLen returns the entry count of an already-built trace (0 when the
// build failed or never ran). Used for longest-trace-first scheduling.
func (r *Runner) traceLen(name string) int {
	r.mu.Lock()
	c, ok := r.traces[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	c.wg.Wait()
	if c.tr == nil {
		return 0
	}
	return len(c.tr.Entries)
}

// Run simulates the benchmark under cfg, caching by (benchmark, config
// digest, budget) — the label only names the run in tables and failure
// rows. Concurrent callers requesting the same machine share one
// simulation. A failed run (error or panic) runs once: simulations are
// deterministic, so the failure is cached and recorded (see Failures)
// and the rest of the suite proceeds without it.
func (r *Runner) Run(name string, cfg config.Config, label string) (*core.Stats, error) {
	return r.RunCtx(r.ctx(), name, cfg, label)
}

// RunCtx is Run bounded by ctx: the executing simulation aborts with a
// structured canceled error when ctx fires. Cancellations are delivered
// to every waiter sharing the call but are NOT negatively cached — the
// same machine can succeed under a longer deadline, so the next request
// re-executes. Concurrent callers still share one in-flight simulation
// (the first caller's context governs it; attached callers inherit the
// outcome).
func (r *Runner) RunCtx(ctx context.Context, name string, cfg config.Config, label string) (*core.Stats, error) {
	res, err := r.do(ctx, RunSpec{Bench: name, Cfg: cfg, Label: label})
	return res.st, err
}

// do is the one path every run takes, of any kind: a keyed singleflight
// over the run cache, with negative caching of failures and eviction of
// cancelled runs. A failure comes back wrapped in this caller's label.
func (r *Runner) do(ctx context.Context, s RunSpec) (result, error) {
	key := r.key(s)
	r.mu.Lock()
	c, ok := r.calls[key]
	if !ok {
		c = &runCall{}
		c.wg.Add(1)
		r.calls[key] = c
	}
	r.mu.Unlock()
	if ok {
		c.wg.Wait()
	} else {
		var canceled bool
		c.res, c.err, canceled = r.execute(ctx, s)
		if canceled {
			// A cancellation is a scheduling outcome, not a property of
			// the run: evict the negative entry so a later request (longer
			// deadline, post-drain restart) runs afresh.
			r.mu.Lock()
			if r.calls[key] == c {
				delete(r.calls, key)
			}
			r.mu.Unlock()
		}
		c.wg.Done()
	}
	if c.err != nil {
		return result{}, fmt.Errorf("experiments: %s (%s): %w", s.Bench, s.Label, c.err)
	}
	return c.res, nil
}

// execute performs one run outside the memory cache and records its
// failure, once, under the executing spec's label. A single-core run
// goes through the persistent result store (Store.Result): a hit skips
// even the trace build, a verify-mode hit is re-simulated and compared,
// and a miss builds the trace and runs once. Fault-injected
// configurations take the zero key, so they are never persisted;
// neither are failed runs. Machines and sampled runs are not stored.
func (r *Runner) execute(ctx context.Context, s RunSpec) (res result, err error, canceled bool) {
	var panicked bool
	// run resolves the trace and calls fn on it under ctx, converting a
	// panic into an error; every kind runs through it.
	run := func(fn func(tr *trace.Trace) error) error {
		tr, err := r.Trace(s.Bench)
		if err != nil {
			// A canceled build is a scheduling outcome like a canceled
			// run: flag it so do evicts the negative cache entry and a
			// later request (longer deadline) rebuilds.
			canceled = IsCanceled(err)
			return err
		}
		if err := ctx.Err(); err != nil {
			// Cancelled before the run started.
			canceled = true
			return err
		}
		if err, panicked = guard(func() error { return fn(tr) }); err != nil {
			canceled = IsCanceled(err) || ctx.Err() != nil
		}
		return err
	}
	switch {
	case s.Cores > 0:
		err = run(func(tr *trace.Trace) (err error) {
			res.mc, err = mcRun(ctx, s.Cfg, s.Cores, tr)
			return err
		})
	case s.Sampled:
		err = run(func(tr *trace.Trace) (err error) {
			// Jobs 1: the pool runs whole runs side by side, and the
			// intervals run on this goroutine, inside guard. The runner
			// holds the trace, so Execute slices it.
			res.samp, err = sampling.Execute(ctx, s.Cfg, sampling.Request{
				Spec: r.sampSpec(), Budget: r.opt.Budget, Jobs: 1,
				Trace: tr, Warm: s.Warm,
			})
			return err
		})
	default:
		var key artifact.Key
		if tk, ok := r.traceKey(s.Bench); ok && !s.Cfg.Faults.Enabled() {
			key = artifact.ResultKey(tk, s.Cfg.Digest(), r.opt.Budget)
		}
		res.st, err = r.opt.Cache.Result(key, s.Bench, s.Label, func() (st *core.Stats, err error) {
			err = run(func(tr *trace.Trace) (err error) {
				r.sims.Add(1)
				st, err = simulate(ctx, s.Cfg, tr)
				return err
			})
			return st, err
		})
		r.takeSource(s.Bench) // a hit built no trace: drop the held text
	}
	if err != nil {
		r.recordFailure(Failure{Bench: s.Bench, Label: s.Label, Err: err,
			Panicked: panicked, Diagnostic: diagnosticFor(err)})
	}
	return res, err, canceled
}

// progressKey carries a per-run progress tap in a context (see
// WithProgress).
type progressKey struct{}

// ProgressFn observes a running simulation: retired instructions and
// elapsed cycles, reported at the core's cancellation-poll cadence.
type ProgressFn = func(retired, cycles int64)

// WithProgress returns a context carrying a progress tap: every
// simulation the runner starts under the returned context reports
// (retired, cycles) periodically from the simulating goroutine. Callers
// that serve multiple jobs attach one tap per job context, so
// concurrent runs never interleave on a shared sink.
func WithProgress(ctx context.Context, fn ProgressFn) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// simulate builds a core and runs it to completion under ctx.
func simulate(ctx context.Context, cfg config.Config, tr *trace.Trace) (*core.Stats, error) {
	c, err := core.New(cfg, tr)
	if err != nil {
		return nil, err
	}
	if fn, ok := ctx.Value(progressKey{}).(ProgressFn); ok && fn != nil {
		c.SetProgressFn(fn)
	}
	return c.RunContext(ctx)
}

// guard calls fn, converting a panic into an error with a trimmed stack
// so one corrupted benchmark cannot take down the suite.
func guard(fn func() error) (err error, panicked bool) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v\n%s", rec, trimStack(debug.Stack()))
			panicked = true
		}
	}()
	return fn(), false
}

// trimStack keeps the top frames of a panic stack — enough to locate the
// fault without drowning the failure table.
func trimStack(stack []byte) string {
	lines := strings.Split(strings.TrimSpace(string(stack)), "\n")
	const keep = 13 // goroutine header + 6 frames (2 lines each)
	if len(lines) > keep {
		lines = append(lines[:keep], "...")
	}
	return strings.Join(lines, "\n")
}

// RunModel simulates under the default configuration for a model.
func (r *Runner) RunModel(name string, m config.Model) (*core.Stats, error) {
	return r.Run(name, config.Default(m), m.String())
}

// cross crosses the given labelled runs with benches (benchmark-major
// order, so one proxy's runs are adjacent).
func cross(benches []string, specs []RunSpec) []RunSpec {
	out := make([]RunSpec, 0, len(specs)*len(benches))
	for _, b := range benches {
		for _, s := range specs {
			s.Bench = b
			out = append(out, s)
		}
	}
	return out
}

// modelSpec is the default-configuration spec for a model.
func modelSpec(m config.Model) RunSpec {
	return RunSpec{Cfg: config.Default(m), Label: m.String()}
}

// modelSpecs lists the default-configuration specs for models.
func modelSpecs(ms ...config.Model) []RunSpec {
	specs := make([]RunSpec, len(ms))
	for i, m := range ms {
		specs[i] = modelSpec(m)
	}
	return specs
}

// read is how a render reads its runs, of any kind: it requests specs
// for bench through the run cache in spec order and returns their
// results in spec order, in a fresh slice. It stops at the first failed
// run and reports false: the run recorded its failure when it executed.
func (r *Runner) read(bench string, specs []RunSpec) ([]result, bool) {
	out := make([]result, len(specs))
	for i, s := range specs {
		s.Bench = bench
		var err error
		if out[i], err = r.do(r.ctx(), s); err != nil {
			return nil, false
		}
	}
	return out, true
}

// rows reads single-core runs: for every active benchmark, in suite
// order, it reads specs and calls row with their stats in spec order. A
// benchmark with a failed run is left out.
func (r *Runner) rows(specs []RunSpec, row func(bench string, st []*core.Stats)) {
	for _, b := range r.opt.Benchmarks {
		if res, ok := r.read(b, specs); ok {
			st := make([]*core.Stats, len(res))
			for i := range res {
				st[i] = res[i].st
			}
			row(b, st)
		}
	}
}

// WarmUp executes every run the selected experiments declare, of every
// kind, on a worker pool sized by Options (Jobs, or GOMAXPROCS; 1 when
// Parallel is off). The union of run sets is deduplicated by run key,
// traces are built first, and specs are scheduled longest-trace-first so
// the slowest proxies never straggle at the tail. Rendering the selected
// experiments afterwards hits only warm cache. Individual failures do
// not abort the warm-up: they are negatively cached and recorded (see
// Failures), and an aggregate count is returned as an error.
func (r *Runner) WarmUp(selected ...Experiment) error {
	var specs []RunSpec
	for _, e := range selected {
		if e.Runs != nil {
			specs = append(specs, e.Runs(r)...)
		}
	}
	return r.warm(specs)
}

// Prefetch warms the trace and default-model caches (the runs most
// experiments share) on the worker pool. Results remain fully
// deterministic. Returns an aggregate error when any run failed.
func (r *Runner) Prefetch() error {
	return r.warm(cross(r.opt.Benchmarks, fig12Runs))
}

// warm deduplicates specs by run key (first-encounter label wins, which
// keeps failure rows deterministic), builds the traces, then executes
// the runs on the pool, longest trace first.
func (r *Runner) warm(specs []RunSpec) error {
	seen := make(map[runKey]bool, len(specs))
	uniq := specs[:0]
	var benches []string
	seenBench := make(map[string]bool)
	for _, s := range specs {
		key := r.key(s)
		if seen[key] {
			continue
		}
		seen[key] = true
		uniq = append(uniq, s)
		if !seenBench[s.Bench] {
			seenBench[s.Bench] = true
			benches = append(benches, s.Bench)
		}
	}
	if len(uniq) == 0 {
		return nil
	}
	ctx := r.ctx()

	// Traces first: they gate every run of their proxy and their lengths
	// drive the schedule.
	sched.PoolCtx(ctx, r.jobs(), len(benches), func(i int) {
		r.Trace(benches[i])
	})

	// Longest trace first; stable sort keeps first-encounter order for
	// equal lengths, so the schedule is deterministic.
	sort.SliceStable(uniq, func(i, j int) bool {
		return r.traceLen(uniq[i].Bench) > r.traceLen(uniq[j].Bench)
	})

	var failed atomic.Int64
	started := sched.PoolCtx(ctx, r.jobs(), len(uniq), func(i int) {
		if _, err := r.do(ctx, uniq[i]); err != nil {
			failed.Add(1)
		}
	})
	if skipped := len(uniq) - started; skipped > 0 {
		return fmt.Errorf("experiments: warm-up cancelled (%v): %d of %d runs never started, %d failed (see the failure table)",
			ctx.Err(), skipped, len(uniq), failed.Load())
	}
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("experiments: %d of %d warm-up runs failed (see the failure table)", n, len(uniq))
	}
	return nil
}

// Experiment identifies one reproducible artifact. Runs declares the
// experiment's full simulation set up front so the runner can execute
// the union across experiments on the worker pool before any rendering
// starts; Run then renders from warm cache.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) (string, error)
	Runs  func(r *Runner) []RunSpec
}

// declare derives an Experiment.Runs from the spec list its render reads:
// the specs crossed with every active benchmark.
func declare(specs []RunSpec) func(r *Runner) []RunSpec {
	return func(r *Runner) []RunSpec { return cross(r.opt.Benchmarks, specs) }
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig2", "Figure 2: NoSQ load instruction distribution", Fig2, declare(noSQRuns)},
		{"fig3", "Figure 3: delayed vs bypassing load execution time (NoSQ)", Fig3, declare(noSQRuns)},
		{"fig5", "Figure 5: low-confidence load prediction outcomes (DMDP)", Fig5, declare(dmdpRuns)},
		{"fig12", "Figure 12: speedup over the baseline", Fig12, declare(fig12Runs)},
		{"fig14", "Figure 14: store buffer size sweep (DMDP)", Fig14, declare(fig14Runs)},
		{"fig15", "Figure 15: EDP of DMDP normalized to NoSQ", Fig15, declare(noSQDMDPRuns)},
		{"tab4", "Table IV: average execution time of all loads", TableIV, declare(tab4Runs)},
		{"tab5", "Table V: average execution time of low-confidence loads", TableV, declare(noSQDMDPRuns)},
		{"tab6", "Table VI: memory dependence mispredictions (MPKI)", TableVI, declare(noSQDMDPRuns)},
		{"tab7", "Table VII: re-execution stall cycles per 1k instructions", TableVII, declare(noSQDMDPRuns)},
		{"alt-issue4", "§VI-g: 4-issue width", AltIssue4, declare(altIssue4Runs)},
		{"alt-rob512", "§VI-g: 512-entry ROB", AltROB512, declare(altROB512Runs)},
		{"alt-rmo", "§VI-g: RMO consistency", AltRMO, declare(altRMORuns)},
		{"alt-prf160", "§VI-f: halved physical register file", AltPRF160, declare(altPRFRuns)},
		{"abl-silent", "Ablation: silent-store-aware predictor update (§VI-a)", AblSilentPolicy, declare(ablSilentRuns)},
		{"abl-biased", "Ablation: biased vs balanced confidence (§IV-E)", AblBiasedConfidence, declare(ablBiasedRuns)},
		{"abl-tage", "Ablation: TAGE-like store distance predictor (§VII)", AblTAGE, declare(ablTAGERuns)},
		{"abl-coalesce", "Ablation: store coalescing (§V)", AblCoalescing, declare(ablCoalesceRuns)},
		{"abl-inval", "Ablation: remote invalidation traffic (§IV-F)", AblInvalidations, declare(ablInvalRuns)},
		{"alt-fnf", "Alt: Fire-and-Forget comparison (§VII)", AltFnF, declare(altFnFRuns)},
		{"abl-prefetch", "Ablation: next-line L1 prefetcher", AblPrefetch, declare(ablPrefetchRuns)},
		{"samp-err", "Methodology: sampled-vs-full IPC error (§V)", SampErr, sampErrDecl},
		{"mc-ipc", "Multicore: aggregate IPC scaling over a shared L2", McIPC, mcDecl},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
