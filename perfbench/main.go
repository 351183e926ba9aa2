// Command perfbench is the repository benchmark. It runs one workload —
// detail, sampled or suite — by calling the simulator's internal layers
// from outside, checks every output, and prints one JSON result line:
// the end-to-end metrics of an untraced run, or, with --trace 1, the
// per-layer metrics of a traced run. README.md describes the workloads
// and metrics. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload detail --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"dmdp/internal/workload"
)

// options configure one benchmark process.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// tiny shrinks every budget for the self-test.
	tiny bool
	// tmpDir holds the temporary artifact stores; spansOut receives the
	// traced run's spans.
	tmpDir, spansOut string
}

func main() {
	var opt options
	var traced int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: detail, sampled or suite")
	flag.Int64Var(&opt.seed, "seed", 0, "input seed; 0 keeps the proxies' own programs")
	flag.Float64Var(&opt.seconds, "seconds", 25, "minimum length of the timed phase in seconds")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	opt.traced = traced == 1
	opt.tmpDir = filepath.Join(".bench_build", "tmp")
	opt.spansOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))

	res, sum, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("outputs_sha256 %s\n", sum)
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("%-34s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	fmt.Printf("attempted %d failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// workloadRunner is one workload. setup prepares the simulator inputs
// (timed as setup_s); round performs the timed phase once (wall_ref_s).
// setupsUpFront is how often a workload with reusable inputs sets up
// before its rounds (setup_s is the median pass); a workload whose
// rounds consume their inputs returns 0 and sets up before each round.
// parent is the enclosing span; tr is nil on untraced passes.
type workloadRunner interface {
	setup(b *bench, tr *tracer, parent int) error
	round(b *bench, tr *tracer, parent int) error
	setupsUpFront() int
	// layers fills the per-layer metrics from the traced passes.
	layers(m map[string]float64)
	close()
}

const (
	// minRounds keeps at least one untraced and one traced round in a
	// traced run.
	minRounds = 2
)

// bench holds one run's shared state.
type bench struct {
	opt  options
	jobs int // worker-pool width: one per CPU
	led  ledger
	ops  int
	// probe measures the host's speed before each timed operation.
	probe *hostProbe
	// opTimes holds, per operation key, the host time of each untraced
	// repetition of that operation; opProbes the probe time just before.
	opTimes, opProbes map[string][]time.Duration
}

// probed runs f after a forced collection and the host probe, and
// returns f's time and the probe's. The collection keeps earlier garbage
// from being charged to f; the probe's time gives the host speed f ran
// at. In a traced round both run inside a bench.probe span.
func (b *bench) probed(tr *tracer, parent int, f func()) (d, p time.Duration) {
	id := tr.begin("bench.probe", parent, 0)
	runtime.GC()
	p = b.probe.run()
	tr.end(id)
	t0 := time.Now()
	f()
	return time.Since(t0), p
}

// measure runs the timed operation key through probed, in traced and
// untraced rounds alike; untraced rounds record its time and the
// probe's.
func (b *bench) measure(tr *tracer, parent int, key string, f func()) {
	d, p := b.probed(tr, parent, f)
	if tr != nil {
		return
	}
	if b.opTimes == nil {
		b.opTimes = make(map[string][]time.Duration)
		b.opProbes = make(map[string][]time.Duration)
	}
	b.opTimes[key] = append(b.opTimes[key], d)
	b.opProbes[key] = append(b.opProbes[key], p)
}

// scaled is a time d taken while the probe took p, scaled to the
// reference host speed: d × (probeRef ÷ p)², in seconds. A change to the
// program leaves p alone, so it moves the scaled time by the same share
// as the host time. The square is measured, not assumed: on a shared
// 2-vCPU Xeon VM, host load that made the probe x times slower made the
// simulator about x² times slower, its working set being far larger
// than the probe's.
func scaled(d, p time.Duration) float64 {
	r := ratio(probeRef.Seconds(), p.Seconds())
	return d.Seconds() * r * r
}

// wall estimates one pass over the timed phase. A round is a fixed list
// of operations, and wall sums each operation's median time, so a burst
// of host load during one operation does not move it. raw sums host
// times (bench.wall_s); ref sums scaled times (wall_ref_s), so that host
// drift between operations, rounds and runs cancels.
func (b *bench) wall() (ref, raw float64) {
	for key, ds := range b.opTimes {
		raw += median(ds)
		vs := make([]float64, len(ds))
		for i, d := range ds {
			vs[i] = scaled(d, b.opProbes[key][i])
		}
		ref += medianOf(vs)
	}
	return ref, raw
}

// probeMS is the median probe time of the untraced rounds.
func (b *bench) probeMS() float64 {
	var all []time.Duration
	for _, ps := range b.opProbes {
		all = append(all, ps...)
	}
	return median(all) * 1e3
}

// nextOp returns a fresh operation id for spans.
func (b *bench) nextOp() int { b.ops++; return b.ops }

func newWorkload(b *bench) (workloadRunner, error) {
	switch b.opt.workload {
	case "detail":
		return newDetail(b), nil
	case "sampled":
		return newSampled(b), nil
	case "suite":
		return newSuite(b), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want detail, sampled or suite)", b.opt.workload)
}

// run executes one workload and returns its result and the aggregate
// SHA-256 of its simulated outputs.
func run(opt options) (*result, string, error) {
	if err := os.MkdirAll(opt.tmpDir, 0o755); err != nil {
		return nil, "", err
	}
	b := &bench{opt: opt, jobs: runtime.NumCPU(), led: newLedger(), probe: newHostProbe()}
	w, err := newWorkload(b)
	if err != nil {
		return nil, "", err
	}
	defer w.close()

	var tr *tracer
	if opt.traced {
		tr = newTracer()
	}
	var setups, plain, traced []time.Duration
	var setupRef []float64
	var rt runtimeDelta
	doSetup := func(tr *tracer) error {
		var err error
		d, p := b.probed(nil, 0, func() {
			id := tr.begin("setup", 0, 0)
			err = w.setup(b, tr, id)
			tr.end(id)
		})
		setups = append(setups, d)
		setupRef = append(setupRef, scaled(d, p))
		return err
	}
	perRound := w.setupsUpFront() == 0
	if !perRound {
		for i := 0; i < w.setupsUpFront(); i++ {
			if err := doSetup(tr); err != nil {
				return nil, "", fmt.Errorf("setup: %w", err)
			}
		}
	}
	// Rounds repeat until the timed phases add up to --seconds. A traced
	// run alternates untraced and traced rounds, so the two medians give
	// the tracing overhead.
	var timed time.Duration
	for r := 0; r < minRounds || timed.Seconds() < opt.seconds; r++ {
		rtr := tr
		if r%2 == 0 {
			rtr = nil
		}
		if perRound {
			if err := doSetup(rtr); err != nil {
				return nil, "", fmt.Errorf("setup: %w", err)
			}
		}
		id := rtr.begin("round", 0, 0)
		before := readRuntime()
		t0 := time.Now()
		err := w.round(b, rtr, id)
		d := time.Since(t0)
		rtr.end(id)
		if err != nil {
			return nil, "", fmt.Errorf("round %d: %w", r, err)
		}
		timed += d
		if rtr != nil {
			rt.add(before, readRuntime())
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
	}

	ref, raw := b.wall()
	fmt.Fprintf(os.Stderr, "perfbench: %s setup passes %v, untraced rounds %v, traced rounds %v; wall %.4f s at probe %.2f ms, %.4f s at probe %v\n",
		opt.workload, roundDurations(setups), roundDurations(plain), roundDurations(traced), raw, b.probeMS(), ref, probeRef)

	values := make(map[string]float64)
	decls := endToEnd
	if opt.traced {
		decls = perLayer
		if err := tr.finish(); err != nil {
			return nil, "", err
		}
		w.layers(values)
		values["go.gc_cpu_frac"] = ratio(rt.gcCPU, rt.busyCPU)
		values["go.alloc_mib"] = rt.allocBytes / float64(len(traced)) / mib
		values["bench.tracing_overhead_frac"] = median(traced)/median(plain) - 1
		values["bench.wall_s"] = raw
		values["bench.setup_s"] = median(setups)
		values["bench.probe_ms"] = b.probeMS()
		for _, phase := range []string{"setup", "round"} {
			total, children := tr.phaseSummary(phase)
			fmt.Printf("traced %-5s spans %10.4f s, layer spans directly under them %10.4f s (%.3f%% unattributed)\n",
				phase, total.Seconds(), children.Seconds(), 100*(1-ratio(children.Seconds(), total.Seconds())))
		}
		if err := tr.write(opt.spansOut); err != nil {
			return nil, "", fmt.Errorf("writing spans: %w", err)
		}
	} else {
		values["wall_ref_s"] = ref
		values["setup_s"] = medianOf(setupRef)
		values["peak_rss_mib"] = peakRSSMiB()
	}
	m, err := collect(decls, values)
	if err != nil {
		return nil, "", err
	}
	res := &result{
		Correct:   b.led.failed == 0,
		Attempted: b.led.attempted,
		Failed:    b.led.failed,
		Metrics:   m,
	}
	return res, hex.EncodeToString(b.led.sum.Sum(nil)), nil
}

// roundDurations renders durations in milliseconds for the log.
func roundDurations(ds []time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = d.Milliseconds()
	}
	return out
}

// ledger counts operations and failures, and hashes every simulated
// output into one digest. An output seen again (a later round, or the
// cached re-run of a cold result) must repeat byte for byte.
type ledger struct {
	attempted, failed int64
	sum               hash.Hash
	seen              map[string][]byte
}

func newLedger() ledger {
	return ledger{sum: sha256.New(), seen: make(map[string][]byte)}
}

// op counts one operation; a non-nil err marks it failed.
func (l *ledger) op(what string, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
	}
}

// output records the canonical bytes of one simulated output under key.
func (l *ledger) output(key string, data []byte) error {
	if prev, ok := l.seen[key]; ok {
		if !bytes.Equal(prev, data) {
			return fmt.Errorf("%s: output differs from its first occurrence", key)
		}
		return nil
	}
	l.seen[key] = append([]byte(nil), data...)
	fmt.Fprintf(l.sum, "%s %d\n", key, len(data))
	l.sum.Write(data)
	return nil
}

// heldOut returns a copy of the named proxy whose generator seed is
// mixed with the benchmark seed: the same kernels and signature, but a
// different generated program. Seed 0 keeps the proxy's own program, so
// it matches every other tool. The mixed seed stays below 2^20 because
// the generated program loads it as an immediate.
func heldOut(name string, seed int64) (*workload.Spec, error) {
	s, ok := workload.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown proxy %q", name)
	}
	c := *s
	if seed != 0 {
		c.Seed = s.Seed ^ int64(splitmix64(uint64(seed))>>44)
	}
	return &c, nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeSample reads the Go runtime counters the go.* metrics use.
type runtimeSample struct{ gcCPU, idleCPU, totalCPU, allocBytes float64 }

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

// runtimeDelta accumulates runtime counters over traced rounds.
type runtimeDelta struct{ gcCPU, busyCPU, allocBytes float64 }

func (d *runtimeDelta) add(a, b runtimeSample) {
	d.gcCPU += b.gcCPU - a.gcCPU
	d.busyCPU += (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	d.allocBytes += b.allocBytes - a.allocBytes
}
