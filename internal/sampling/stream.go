package sampling

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dmdp/internal/artifact"
	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/mem"
	"dmdp/internal/trace"
	"dmdp/internal/warm"
)

// Stream is the checkpointed, chunked view of one program's execution:
// the product of a single emulator pass that never materializes the full
// trace. It records per-chunk basic-block vectors (for phase detection)
// and captures an architectural checkpoint at every chunk boundary, so
// any interval can later be re-materialized by restoring the nearest
// checkpoint and re-emulating at most one chunk — instead of replaying
// from instruction zero.
type Stream struct {
	Prog *isa.Program
	// Init is the pristine initial memory image (program data segment).
	Init *mem.Image
	// ChunkLen is the checkpoint spacing and BBV chunk length.
	ChunkLen int
	// Total is the number of instructions actually executed (below the
	// budget when the program halted early); HitHalt reports which.
	Total   int64
	HitHalt bool
	// BBVs holds one basic-block vector per full chunk, in chunk order
	// (empty for streams reopened from a cached plan).
	BBVs [][BBVDim]float64

	store    *artifact.Store
	traceKey artifact.Key
	// cks holds in-memory checkpoints keyed by instruction index. When a
	// writable store persists checkpoints, only checkpoint 0 is kept here
	// (the store serves the rest); otherwise all boundaries are kept,
	// sharing their pages copy-on-write, until the plan is known and
	// keepResumeState drops those no interval resumes from. A reopened
	// stream keeps the checkpoint its plan probe loaded (planUsable).
	cks map[int64]*emu.Checkpoint

	// Functional warming (nil warmCfg = off): warms caches full warm
	// snapshots per boundary — captured live by BuildStream (all of them
	// until keepResumeState keeps the plan's resume boundaries), or
	// reconstructed on demand from persisted DMDPCKP2 delta records.
	warmCfg    *warm.Config
	warmParams [32]byte
	warmMu     sync.Mutex
	warms      map[int64][]byte
	// WarmEntries/WarmNanos account the profiling-pass warming work for
	// the throughput counter (zero for reopened streams).
	WarmEntries int64
	WarmNanos   int64
}

// BuildStream executes prog for at most budget instructions in chunks of
// chunkLen, computing per-chunk BBVs and capturing a checkpoint at every
// chunk boundary. With persist set and a writable store, checkpoints are
// published under (traceKey, boundary index) and dropped from memory;
// otherwise they stay in memory, sharing their pages copy-on-write.
// Cancellation surfaces as *trace.BuildCanceled.
//
// With wcfg set, the same single pass also drives the functional warm
// models (internal/warm) over every executed entry and snapshots the
// warm state at each checkpointed boundary; with persist set, snapshots
// are additionally published as DMDPCKP2 records, delta-compressed
// against the previous boundary with a keyframe every warmKeyEvery
// boundaries.
//
// The pass is a pipeline of three stages that keeps chunk order. The
// emulator runs ahead on a goroutine of its own (trace.ForEachChunk)
// and takes each boundary's snapshot: registers, PC, position, a
// copy-on-write clone of memory, which copies no page, and the list of
// pages written so far. The caller's goroutine warms, accumulates the
// BBVs and snapshots the warm state. With persist set, a publisher
// goroutine encodes and writes each checkpoint and warm record, at most
// publishDepth behind. BuildStream returns only after both goroutines
// have exited, whether it succeeds, fails or is canceled.
func BuildStream(ctx context.Context, prog *isa.Program, budget int64, chunkLen int, store *artifact.Store, traceKey artifact.Key, persist bool, wcfg *warm.Config) (*Stream, error) {
	if chunkLen <= 0 {
		return nil, fmt.Errorf("sampling: chunk length %d must be positive", chunkLen)
	}
	e := emu.New(prog)
	s := &Stream{
		Prog:     prog,
		Init:     e.Mem.Clone(),
		ChunkLen: chunkLen,
		store:    store,
		traceKey: traceKey,
		cks:      map[int64]*emu.Checkpoint{},
	}
	s.setWarmCfg(wcfg)
	var pub chan func()
	if persist && store != nil && store.Mode() != artifact.RO {
		pub = make(chan func(), publishDepth)
		published := make(chan struct{})
		go func() {
			defer close(published)
			for write := range pub {
				write()
			}
		}()
		defer func() {
			close(pub)
			<-published
		}()
	}
	var acc BBVAccum

	var ws *warm.State
	var prevSnap []byte // previous boundary snapshot (delta base)
	var prevAt int64
	sinceKey := 0
	if wcfg != nil {
		ws = warm.New(*wcfg)
		prevSnap, prevAt = s.captureWarm(ws, 0, nil, -1, pub)
	}

	s.addCheckpoint(e.Snapshot(), pub) // boundary 0: no dirty pages yet
	total, hitHalt, err := trace.ForEachChunk(ctx, e, budget, chunkLen,
		func() *emu.Checkpoint { // on the emulator's goroutine
			if e.InstrCount() < budget && !e.Halted() {
				return e.Snapshot()
			}
			return nil
		},
		func(start int64, chunk []trace.Entry, ck *emu.Checkpoint) error {
			if ws != nil {
				t0 := time.Now()
				ws.UpdateChunk(chunk)
				s.WarmNanos += time.Since(t0).Nanoseconds()
				s.WarmEntries += int64(len(chunk))
			}
			for i := range chunk {
				acc.Add(&chunk[i])
			}
			if (start+int64(len(chunk)))%int64(chunkLen) == 0 {
				s.BBVs = append(s.BBVs, acc.Finish())
			}
			if ck == nil {
				return nil
			}
			s.addCheckpoint(ck, pub)
			if ws != nil {
				sinceKey++
				if sinceKey >= warmKeyEvery {
					sinceKey = 0
				}
				base := prevSnap
				baseAt := prevAt
				if sinceKey == 0 {
					base, baseAt = nil, -1 // keyframe
				}
				prevSnap, prevAt = s.captureWarm(ws, ck.At, base, baseAt, pub)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	s.Total, s.HitHalt = total, hitHalt
	return s, nil
}

// warmKeyEvery is the keyframe cadence for persisted warm-state deltas:
// a corrupt or evicted record costs at most this many chain links, and
// reconstruction depth stays bounded.
const warmKeyEvery = 16

// publishDepth bounds the checkpoints and warm records a profiling pass
// has handed to its publisher but not yet written: two boundaries'
// worth, so one large checkpoint write does not stall the pass.
const publishDepth = 4

func (s *Stream) setWarmCfg(wcfg *warm.Config) {
	s.warmCfg = wcfg
	if wcfg != nil {
		s.warmParams = wcfg.ParamsHash()
		s.warms = map[int64][]byte{}
	}
}

// captureWarm snapshots ws at boundary at, caches the snapshot in
// memory, and (when pub is set) queues its DMDPCKP2 record for the
// publisher — delta-compressed against base/baseAt, or a self-contained
// keyframe when baseAt is -1. Returns the snapshot for use as the next
// delta base.
func (s *Stream) captureWarm(ws *warm.State, at int64, base []byte, baseAt int64, pub chan<- func()) ([]byte, int64) {
	snap := ws.Snapshot()
	s.warmMu.Lock()
	s.warms[at] = snap
	s.warmMu.Unlock()
	if pub != nil {
		pub <- func() {
			payload := snap
			if baseAt >= 0 {
				payload = warm.EncodeDelta(base, snap)
			}
			s.store.StoreWarm(artifact.WarmKey(s.traceKey, at, s.warmParams),
				&artifact.WarmRecord{At: at, BaseAt: baseAt, Payload: payload})
		}
	}
	return snap, at
}

// addCheckpoint keeps ck in memory, or queues it for the publisher when
// pub is set; boundary 0 stays in memory either way.
func (s *Stream) addCheckpoint(ck *emu.Checkpoint, pub chan<- func()) {
	if pub != nil {
		pub <- func() { s.store.StoreCheckpoint(artifact.CheckpointKey(s.traceKey, ck.At), ck) }
		if ck.At != 0 {
			return
		}
	}
	s.cks[ck.At] = ck
}

// keepResumeState drops the in-memory checkpoints and warm snapshots of
// every boundary that no interval of plan resumes from (its warmup-
// extended begin rounded down to a chunk). The profiling pass keeps
// every boundary because the plan is unknown until the pass ends;
// afterwards interval extraction reads only the resume boundaries. A
// dropped boundary still reloads from the store, or degrades as a
// missing one does.
func (s *Stream) keepResumeState(plan Plan) {
	keep := make(map[int64]bool, len(plan.Intervals))
	for i := range plan.Intervals {
		b, _ := beginOf(plan, i)
		keep[int64(b/s.ChunkLen*s.ChunkLen)] = true
	}
	for at := range s.cks {
		if !keep[at] {
			delete(s.cks, at)
		}
	}
	s.warmMu.Lock()
	for at := range s.warms {
		if !keep[at] {
			delete(s.warms, at)
		}
	}
	s.warmMu.Unlock()
}

// OpenStream reopens a stream whose plan (and therefore chunk geometry
// and totals) was loaded from the plan cache, without re-executing the
// program. Interval extraction restores persisted checkpoints; any miss
// degrades to re-emulation from an earlier boundary or from the start.
// With wcfg set, warm snapshots reconstruct from persisted DMDPCKP2
// records; a missing or corrupt record cold-starts the affected
// intervals.
func OpenStream(prog *isa.Program, chunkLen int, total int64, hitHalt bool, store *artifact.Store, traceKey artifact.Key, wcfg *warm.Config) *Stream {
	e := emu.New(prog)
	s := &Stream{
		Prog:     prog,
		Init:     e.Mem.Clone(),
		ChunkLen: chunkLen,
		Total:    total,
		HitHalt:  hitHalt,
		store:    store,
		traceKey: traceKey,
		cks:      map[int64]*emu.Checkpoint{},
	}
	s.setWarmCfg(wcfg)
	return s
}

// AutoPlan clusters the stream's BBVs into at most k phases.
func (s *Stream) AutoPlan(k int) (Plan, error) {
	return AutoPlan(s.BBVs, s.ChunkLen, k)
}

// checkpointAt returns the checkpoint at instruction index at, consulting
// memory first, then the store. Nil when neither has a usable one.
func (s *Stream) checkpointAt(at int64) *emu.Checkpoint {
	if ck := s.cks[at]; ck != nil {
		return ck
	}
	if ck, ok := s.store.LoadCheckpoint(artifact.CheckpointKey(s.traceKey, at)); ok && ck.At == at {
		return ck
	}
	return nil
}

// warmAt returns the full warm snapshot at boundary at, consulting the
// in-memory cache first and then reconstructing from persisted DMDPCKP2
// records (walking delta chains back to a keyframe). Nil when the state
// is unavailable or corrupt — the caller degrades to a cold start.
func (s *Stream) warmAt(at int64) []byte {
	return s.warmAtDepth(at, 4*warmKeyEvery)
}

func (s *Stream) warmAtDepth(at int64, depth int) []byte {
	if depth <= 0 || at < 0 {
		return nil // hostile or cyclic delta chain: give up, cold-start
	}
	s.warmMu.Lock()
	snap, ok := s.warms[at]
	s.warmMu.Unlock()
	if ok {
		return snap
	}
	rec, ok := s.store.LoadWarm(artifact.WarmKey(s.traceKey, at, s.warmParams))
	if !ok || rec.At != at {
		return nil
	}
	if rec.BaseAt == -1 {
		snap = rec.Payload
	} else {
		base := s.warmAtDepth(rec.BaseAt, depth-1)
		if base == nil {
			return nil
		}
		var err error
		if snap, err = warm.ApplyDelta(base, rec.Payload); err != nil {
			return nil
		}
	}
	s.warmMu.Lock()
	s.warms[at] = snap
	s.warmMu.Unlock()
	return snap
}

// planUsable reports whether persisted state can serve the plan's
// intervals, by probing the highest checkpoint boundary any interval
// resumes from: its checkpoint must load, and with warming on so must
// its warm state. The probed checkpoint stays in the stream, so the
// interval that resumes there does not load it again, and warm
// reconstruction is cached, so the probe's work is not wasted. It is a
// heuristic gate for the plan cache: boundary files usually persist or
// vanish together, so a probe that fails sends the caller to one fresh
// profiling pass, which republishes them; a straggler still degrades
// alone at run time, to an older checkpoint or a cold start.
func (s *Stream) planUsable(plan Plan) bool {
	if len(plan.Intervals) == 0 {
		return false
	}
	maxBegin := 0
	for i := range plan.Intervals {
		if b, _ := beginOf(plan, i); b > maxBegin {
			maxBegin = b
		}
	}
	at := int64(maxBegin / s.ChunkLen * s.ChunkLen)
	if at == 0 {
		return true // boundary 0 needs no stored state
	}
	ck := s.checkpointAt(at)
	if ck == nil {
		return false
	}
	s.cks[at] = ck
	return s.warmCfg == nil || s.warmAt(at) != nil
}

// resumeWarmAt returns an emulator positioned at instruction index begin
// plus the warm snapshot at begin, by restoring the nearest usable
// checkpoint at or below begin and rolling forward — feeding the
// roll-forward entries to the warm model when warming is on. Missing or
// corrupt checkpoints degrade to the next older boundary and ultimately
// to re-emulation from the program start — slower, never wrong. The
// warm decision happens at the single boundary whose checkpoint the
// resume actually uses: with warming off (nil warm config), or when warm
// state is unavailable there, the interval cold-starts (nil snapshot)
// with a plain roll-forward — so a warmed resume is a superset of the
// cold path's work, never different work. Boundary 0 always warms (the
// empty state is definitionally available).
func (s *Stream) resumeWarmAt(begin int64) (*emu.Emulator, []byte, error) {
	for ci := begin / int64(s.ChunkLen); ; ci-- {
		at := ci * int64(s.ChunkLen)
		var e *emu.Emulator
		switch ck := s.checkpointAt(at); {
		case ck != nil:
			e = emu.Resume(s.Prog, s.Init, ck)
		case at > 0:
			continue
		default:
			e = emu.New(s.Prog) // boundary 0 needs no stored checkpoint
		}
		var ws *warm.State
		switch {
		case s.warmCfg == nil: // warming off
		case at == 0:
			ws = warm.New(*s.warmCfg)
		default:
			if snap := s.warmAt(at); snap != nil {
				var err error
				if ws, err = warm.FromSnapshot(*s.warmCfg, snap); err != nil {
					ws = nil
				}
			}
		}
		if ws == nil {
			// Cold start: plain roll-forward, exactly the unwarmed path.
			if err := e.StepN(begin - at); err != nil {
				return nil, nil, err
			}
			return e, nil, nil
		}
		if begin > at {
			// One chunk: the emulator steps ahead while ws warms on.
			rolled, _, err := trace.ForEachChunk(context.Background(), e, begin-at, int(begin-at), nil,
				func(_ int64, chunk []trace.Entry, _ struct{}) error {
					ws.UpdateChunk(chunk)
					return nil
				})
			if err != nil {
				return nil, nil, err
			}
			if rolled != begin-at {
				return nil, nil, fmt.Errorf("sampling: roll-forward from %d executed %d of %d instructions",
					at, rolled, begin-at)
			}
		}
		return e, ws.Snapshot(), nil
	}
}

// Source binds a plan to the stream for RunPlan. Interval extraction is
// safe for concurrent workers: each call resumes its own emulator, and
// the shared checkpoint map is read-only after the build (the warm
// snapshot cache has its own lock).
func (s *Stream) Source(plan Plan) Source {
	src := &streamSource{s: s, plan: plan}
	if s.warmCfg != nil {
		src.warmCollector = newWarmCollector(len(plan.Intervals))
	}
	return src
}

type streamSource struct {
	s              *Stream
	plan           Plan
	*warmCollector // nil = warming off
}

func (ss *streamSource) IntervalTrace(i int) (*trace.Trace, int, error) {
	iv := ss.plan.Intervals[i]
	if iv.Start < 0 || int64(iv.End) > ss.s.Total || iv.Start >= iv.End {
		return nil, 0, fmt.Errorf("sampling: interval [%d,%d) out of range (stream %d)",
			iv.Start, iv.End, ss.s.Total)
	}
	begin, warmN := beginOf(ss.plan, i)
	e, snap, err := ss.s.resumeWarmAt(int64(begin))
	if err != nil {
		return nil, 0, fmt.Errorf("sampling: interval [%d,%d): %w", iv.Start, iv.End, err)
	}
	if ss.warmCollector != nil {
		ss.set(i, snap, iv.Start, iv.End)
	}
	init := e.Mem.Clone()
	sub, err := trace.Collect(e, int64(iv.End-begin), ss.s.Prog, init)
	if err != nil {
		return nil, 0, fmt.Errorf("sampling: interval [%d,%d): %w", iv.Start, iv.End, err)
	}
	if len(sub.Entries) != iv.End-begin {
		return nil, 0, fmt.Errorf("sampling: interval [%d,%d): stream replay produced %d of %d entries",
			iv.Start, iv.End, len(sub.Entries), iv.End-begin)
	}
	// Match the materialized Slice contract: an interval is an excerpt,
	// not a program that halted.
	sub.HitHalt = false
	return sub, warmN, nil
}
