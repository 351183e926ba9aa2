package dmdpserver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dmdp/internal/artifact"
	"dmdp/internal/asm"
	"dmdp/internal/cliutil"
	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/emu"
	"dmdp/internal/experiments"
	"dmdp/internal/faults"
	"dmdp/internal/sampling"
	"dmdp/internal/sched"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// maxJobROB caps the ROB a job may request. A core allocates every ROB
// slot up front (624 bytes each, inline uops included), so the cap keeps
// one request from asking a worker for gigabytes; it is far above the
// machines modelled (the paper's ROB holds 256 entries, the ROB sweep's
// 512).
const maxJobROB = 1 << 14

// jobRequest is the POST /v1/jobs body. Exactly one of Bench / Source
// names the workload.
type jobRequest struct {
	// Bench is a proxy benchmark name (see workload.Names); Source is
	// an inline assembly program simulated in its place.
	Bench  string `json:"bench,omitempty"`
	Source string `json:"source,omitempty"`
	// Model selects the machine: baseline | nosq | dmdp | perfect | fnf
	// (default dmdp).
	Model string `json:"model,omitempty"`
	// Budget is the instruction budget; it takes the -instr forms
	// ("300000", "300_000", "300k") or a plain JSON number. Empty: the
	// daemon default.
	Budget json.RawMessage `json:"budget,omitempty"`
	// Priority orders the queue (higher first); Tenant attributes the
	// job for rate limits and quotas.
	Priority int    `json:"priority,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	// DeadlineMS bounds queue wait + execution; 0 means the daemon's
	// default timeout.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Stream switches the response to NDJSON: accepted + periodic
	// progress events + one terminal done/error event.
	Stream bool `json:"stream,omitempty"`
	// Machine-knob overrides (0 = model default).
	StoreBuffer int `json:"sb,omitempty"`
	IssueWidth  int `json:"width,omitempty"`
	ROB         int `json:"rob,omitempty"`
	// Fault injection (never persisted to the artifact cache).
	FlipRate  float64 `json:"flip_rate,omitempty"`
	FaultSeed int64   `json:"fault_seed,omitempty"`
	// ChaosPanic makes the job panic inside the worker instead of
	// simulating — the chaos suite's probe that panic isolation keeps
	// the daemon serving. Refused unless the daemon runs with -chaos.
	ChaosPanic bool `json:"chaos_panic,omitempty"`
	// Sample switches the job to checkpointed interval sampling:
	// "auto", "auto:K" or "COUNTxLEN", optionally "+WARMUP" (the -sample
	// CLI forms). Sampled jobs stream the trace — the full budget is
	// never materialized — so 100M+ budgets stay within memory.
	Sample string `json:"sample,omitempty"`
	// Checkpoint persists/restores sampling checkpoints and plans in
	// the daemon's artifact cache (sampled jobs only).
	Checkpoint bool `json:"checkpoint,omitempty"`
	// Warm functionally warms caches/TLB/predictors from the sampled
	// job's profiling pass before each interval (sampled jobs only;
	// forced off under fault injection).
	Warm bool `json:"warm,omitempty"`
}

// statsSummary is the subset of simulation statistics the response
// inlines; DigestLine and StatsSHA256 on jobReply cover every
// deterministic counter.
type statsSummary struct {
	Instructions int64   `json:"instructions"`
	Cycles       int64   `json:"cycles"`
	IPC          float64 `json:"ipc"`
	MPKI         float64 `json:"mpki"`
}

// jobReply is the terminal success document (the whole response body,
// or the "done" event's payload when streaming).
type jobReply struct {
	JobID        uint64       `json:"job_id"`
	Workload     string       `json:"workload"`
	Model        string       `json:"model"`
	ConfigDigest string       `json:"config_digest"`
	Budget       int64        `json:"budget"`
	Deduped      bool         `json:"deduped"`
	QueuedMS     float64      `json:"queued_ms"`
	RunMS        float64      `json:"run_ms"`
	Stats        statsSummary `json:"stats"`
	// StatsSHA256 is the SHA-256 of the canonical stats encoding —
	// equal across daemon, cache and direct CLI runs of the same
	// (workload, config digest, budget) by construction.
	StatsSHA256 string `json:"stats_sha256"`
	DigestLine  string `json:"digest_line"`
}

// jobPlan is a validated request: everything the Run closure needs.
type jobPlan struct {
	workload string // bench name or "inline:<hash8>"
	bench    string // non-empty for the named-proxy path
	source   string // non-empty for the inline path
	model    config.Model
	cfg      config.Config
	budget   int64
	key      string // sched dedup key
	chaos    bool
	// Sampled-job fields (sampled reports Sample/Checkpoint were set).
	sampled    bool
	sample     sampling.Spec
	checkpoint bool
	warm       bool
}

// parseJob validates a request into a plan.
func (s *Server) parseJob(req *jobRequest) (*jobPlan, error) {
	p := &jobPlan{chaos: req.ChaosPanic}
	switch {
	case req.Bench != "" && req.Source != "":
		return nil, fmt.Errorf("bench and source are mutually exclusive")
	case req.Bench != "":
		if _, ok := workload.Get(req.Bench); !ok {
			return nil, fmt.Errorf("unknown benchmark %q", req.Bench)
		}
		p.bench, p.workload = req.Bench, req.Bench
	case req.Source != "":
		h := sha256.Sum256([]byte(req.Source))
		p.source = req.Source
		p.workload = "inline:" + hex.EncodeToString(h[:4])
	default:
		return nil, fmt.Errorf("one of bench or source is required")
	}
	if req.ChaosPanic && !s.cfg.Chaos {
		return nil, fmt.Errorf("chaos_panic requires a daemon started with -chaos")
	}

	var err error
	model := req.Model
	if model == "" {
		model = "dmdp"
	}
	if p.model, err = config.ParseModel(model); err != nil {
		return nil, err
	}

	budget, err := parseBudget(req.Budget, s.cfg.defaultBudget())
	if err != nil {
		return nil, err
	}
	if budget > s.cfg.maxBudget() {
		return nil, fmt.Errorf("budget %d exceeds the daemon cap %d", budget, s.cfg.maxBudget())
	}
	p.budget = budget

	cfg := config.Default(p.model)
	if req.StoreBuffer > 0 {
		cfg = cfg.WithStoreBuffer(req.StoreBuffer)
	}
	if req.IssueWidth > 0 {
		cfg = cfg.WithIssueWidth(req.IssueWidth)
	}
	if req.ROB > 0 {
		if req.ROB > maxJobROB {
			return nil, fmt.Errorf("rob %d exceeds the daemon cap %d", req.ROB, maxJobROB)
		}
		cfg = cfg.WithROB(req.ROB)
	}
	if req.FlipRate != 0 {
		seed := req.FaultSeed
		if seed == 0 {
			seed = 1
		}
		cfg = cfg.WithFaults(faults.Config{Seed: seed, PredictionFlipRate: req.FlipRate})
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p.cfg = cfg

	if req.Sample != "" {
		spec, err := cliutil.ParseSampleSpec(req.Sample)
		if err != nil {
			return nil, fmt.Errorf("sample: %w", err)
		}
		p.sampled, p.sample, p.checkpoint, p.warm = true, spec, req.Checkpoint, req.Warm
	} else if req.Checkpoint {
		return nil, fmt.Errorf("checkpoint requires sample")
	} else if req.Warm {
		return nil, fmt.Errorf("warm requires sample")
	}

	// The dedup key is the run's identity: two jobs with equal keys
	// compute the same bits, so the scheduler shares one execution.
	// Chaos panics are keyed apart — they must not poison (or ride on)
	// a real run of the same machine.
	id := p.bench
	if p.source != "" {
		h := sha256.Sum256([]byte(p.source))
		id = "inline/" + hex.EncodeToString(h[:])
	}
	p.key = fmt.Sprintf("%s/%s/%d", id, cfg.Digest().String(), budget)
	if p.sampled {
		// A sampled run computes different bits from a full run of the
		// same machine (and from a differently-specified sampled run),
		// so the spec and checkpoint mode join the identity.
		// Warming changes the computed bits (intervals start with
		// installed tag state), so it joins the identity too.
		p.key += fmt.Sprintf("/sample:%s/ckpt:%t/warm:%t", p.sample.String(), p.checkpoint, p.warm)
	}
	if p.chaos {
		p.key = "" // never dedup an injected panic
	}
	return p, nil
}

// parseBudget accepts a JSON string in the -instr forms or a plain
// JSON number.
func parseBudget(raw json.RawMessage, def int64) (int64, error) {
	if len(raw) == 0 {
		return def, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		var n int64
		if err := json.Unmarshal(raw, &n); err != nil {
			return 0, fmt.Errorf("bad budget %s", raw)
		}
		s = fmt.Sprint(n)
	}
	n, err := cliutil.ParseInstr(s)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// run executes a planned job. Named proxies go through the budget's
// experiments runner (trace/result caching, one attempt per run,
// negative caching of deterministic failures); inline programs are
// assembled, emulated and simulated here, with results persisted to the
// artifact store unless fault injection is on. Sampled jobs stream
// regardless of workload form and return a *sampling.Combined instead of
// *core.Stats.
func (s *Server) run(ctx context.Context, p *jobPlan) (any, error) {
	if p.chaos {
		panic("chaos: injected job panic (requested via chaos_panic)")
	}
	if p.sampled {
		return s.runSampled(ctx, p)
	}
	if p.bench != "" {
		return s.runner(p.budget).RunCtx(ctx, p.bench, p.cfg, p.model.String())
	}
	return s.runInline(ctx, p)
}

// runSampled executes a checkpointed sampled job on the streaming path:
// the program is assembled, profiled chunk by chunk, and intervals
// re-materialize from checkpoints — the full trace never exists in
// memory, so budgets far beyond the daemon's full-run practicality
// remain serviceable.
func (s *Server) runSampled(ctx context.Context, p *jobPlan) (*sampling.Combined, error) {
	src := p.source
	if p.bench != "" {
		spec, _ := workload.Get(p.bench) // validated by parseJob
		src = spec.Source()
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	out, err := sampling.Execute(ctx, p.cfg, sampling.Request{
		Spec: p.sample, Budget: p.budget, Jobs: 1,
		Checkpoint: p.checkpoint, Store: s.cfg.Cache,
		TraceKey: artifact.TraceKey(sha256.Sum256([]byte(src)), p.budget),
		Prog:     prog, Warm: p.warm,
	})
	if err != nil {
		return nil, err
	}
	return out.Combined, nil
}

// runInline simulates an inline assembly program through the artifact
// store's trace and result paths, keyed by the source hash exactly like
// cmd/dmdpsim -file. Fault-injected runs take the zero result key, so
// they are never persisted.
func (s *Server) runInline(ctx context.Context, p *jobPlan) (*core.Stats, error) {
	traceKey := artifact.TraceKey(sha256.Sum256([]byte(p.source)), p.budget)
	var resultKey artifact.Key
	if !p.cfg.Faults.Enabled() {
		resultKey = artifact.ResultKey(traceKey, p.cfg.Digest(), p.budget)
	}
	return s.cfg.Cache.Result(resultKey, p.workload, p.model.String(), func() (*core.Stats, error) {
		tr, err := s.cfg.Cache.Trace(traceKey, p.workload, func() (*trace.Trace, error) {
			prog, err := asm.Assemble(p.source)
			if err != nil {
				return nil, fmt.Errorf("assemble: %w", err)
			}
			return emu.RunCtx(ctx, prog, p.budget)
		})
		if err != nil {
			return nil, err
		}
		c, err := core.New(p.cfg, tr)
		if err != nil {
			return nil, err
		}
		if fn := progressFrom(ctx); fn != nil {
			c.SetProgressFn(fn)
		}
		return c.RunContext(ctx)
	})
}

// inlineProgressKey lets runInline receive the same per-job tap the
// experiments runner reads via experiments.WithProgress.
type inlineProgressKey struct{}

func withProgress(ctx context.Context, fn experiments.ProgressFn) context.Context {
	return experiments.WithProgress(context.WithValue(ctx, inlineProgressKey{}, fn), fn)
}

func progressFrom(ctx context.Context) experiments.ProgressFn {
	fn, _ := ctx.Value(inlineProgressKey{}).(experiments.ProgressFn)
	return fn
}

// handleJobs is POST /v1/jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method", "POST only", 0)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "body", err.Error(), 0)
		return
	}
	var req jobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "json", err.Error(), 0)
		return
	}
	plan, err := s.parseJob(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "request", err.Error(), 0)
		return
	}

	var deadline time.Time
	if req.DeadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}

	// Streaming jobs tap simulation progress through a small buffered
	// channel; the handler goroutine owns the response writer. A full
	// channel drops the sample — progress is advisory, results are not.
	var progress chan [2]int64
	if req.Stream {
		progress = make(chan [2]int64, 8)
	}
	run := func(ctx context.Context) (any, error) {
		if progress != nil {
			ctx = withProgress(ctx, func(retired, cycles int64) {
				select {
				case progress <- [2]int64{retired, cycles}:
				default:
				}
			})
		}
		st, err := s.run(ctx, plan)
		if err != nil {
			return nil, err
		}
		return st, nil
	}

	h, err := s.sched.Submit(sched.Job{
		Key: plan.key, Tenant: req.Tenant, Priority: req.Priority,
		Deadline: deadline, Run: run,
	})
	if err != nil {
		if ae, ok := sched.IsShed(err); ok {
			status := http.StatusTooManyRequests
			if ae.Reason == sched.ShedDraining {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, string(ae.Reason), ae.Error(), ae.RetryAfter)
			return
		}
		writeError(w, http.StatusInternalServerError, "submit", err.Error(), 0)
		return
	}

	if req.Stream {
		s.streamResult(w, r, h, plan, progress)
		return
	}
	select {
	case <-h.Done():
	case <-r.Context().Done():
		// The client went away; the job keeps running (its result stays
		// cached for the next request).
		return
	}
	res := h.Result()
	if res.Err != nil {
		status, kind := errStatus(res)
		writeError(w, status, kind, firstLine(res.Err.Error()), 0)
		return
	}
	writeJSON(w, http.StatusOK, s.reply(h, plan, res))
}

// streamResult writes the NDJSON event stream: accepted, progress...,
// then exactly one done or error event.
func (s *Server) streamResult(w http.ResponseWriter, r *http.Request, h *sched.Handle, plan *jobPlan, progress chan [2]int64) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(v any) {
		b, _ := json.Marshal(v)
		w.Write(append(b, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
	type event struct {
		Event   string    `json:"event"`
		JobID   uint64    `json:"job_id,omitempty"`
		Retired int64     `json:"retired,omitempty"`
		Cycles  int64     `json:"cycles,omitempty"`
		Error   string    `json:"error,omitempty"`
		Kind    string    `json:"kind,omitempty"`
		Done    *jobReply `json:"done,omitempty"`
	}
	emit(event{Event: "accepted", JobID: h.ID()})

	// Throttle progress to ~20 events/s: the core samples far more
	// often than a client can usefully render.
	var last time.Time
	for {
		select {
		case p := <-progress:
			if now := time.Now(); now.Sub(last) >= 50*time.Millisecond {
				last = now
				emit(event{Event: "progress", JobID: h.ID(), Retired: p[0], Cycles: p[1]})
			}
		case <-r.Context().Done():
			return // client went away; job continues
		case <-h.Done():
			res := h.Result()
			if res.Err != nil {
				_, kind := errStatus(res)
				emit(event{Event: "error", JobID: h.ID(), Kind: kind, Error: firstLine(res.Err.Error())})
				return
			}
			emit(event{Event: "done", JobID: h.ID(), Done: s.reply(h, plan, res)})
			return
		}
	}
}

// reply builds the terminal success document. Sampled jobs carry a
// *sampling.Combined: the summary holds the weighted estimates and the
// stats hash covers the combined canonical encoding, which is
// byte-identical across daemons, -j widths and checkpoint warm/cold
// runs by construction.
func (s *Server) reply(h *sched.Handle, plan *jobPlan, res sched.Result) *jobReply {
	rep := &jobReply{
		JobID:        h.ID(),
		Workload:     plan.workload,
		Model:        plan.model.String(),
		ConfigDigest: plan.cfg.Digest().String(),
		Budget:       plan.budget,
		Deduped:      res.Deduped,
		QueuedMS:     float64(res.Queued) / float64(time.Millisecond),
		RunMS:        float64(res.Ran) / float64(time.Millisecond),
	}
	switch v := res.Value.(type) {
	case *sampling.Combined:
		enc := v.MarshalCanonical()
		sum := sha256.Sum256(enc)
		rep.Stats = statsSummary{
			Instructions: v.TotalInstructions,
			Cycles:       v.TotalCycles,
			IPC:          v.WeightedIPC,
			MPKI:         v.WeightedMPKI,
		}
		rep.StatsSHA256 = hex.EncodeToString(sum[:])
		rep.DigestLine = fmt.Sprintf("sampled %s intervals=%d ipc=%.6f mpki=%.6f",
			plan.sample.String(), len(v.Results), v.WeightedIPC, v.WeightedMPKI)
	case *core.Stats:
		enc := v.MarshalCanonical()
		sum := sha256.Sum256(enc)
		rep.Stats = statsSummary{
			Instructions: v.Instructions,
			Cycles:       v.Cycles,
			IPC:          v.IPC(),
			MPKI:         v.MPKI(),
		}
		rep.StatsSHA256 = hex.EncodeToString(sum[:])
		rep.DigestLine = v.DigestLine()
	}
	return rep
}

// errStatus maps a job failure to an HTTP status and error kind.
func errStatus(res sched.Result) (int, string) {
	err := res.Err
	switch {
	case res.Panicked:
		return http.StatusInternalServerError, "panic"
	case errors.Is(err, sched.ErrAborted):
		return http.StatusServiceUnavailable, "aborted"
	case experiments.IsCanceled(err):
		return http.StatusGatewayTimeout, "deadline"
	}
	var se *core.SimError
	if errors.As(err, &se) {
		return http.StatusInternalServerError, string(se.Kind)
	}
	return http.StatusInternalServerError, "error"
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
