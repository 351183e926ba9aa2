package memdep

// DistancePredictor is the interface between the rename stage and a
// store distance predictor implementation: the paper's two-table
// path-sensitive design (SDP) or the TAGE-like alternative below.
type DistancePredictor interface {
	// Predict returns the store-distance prediction for the load at pc
	// under the given global branch history; ok is false when the load
	// is predicted independent.
	Predict(pc, hist uint32) (p Prediction, ok bool)
	// TrainCorrect rewards a correct dependence prediction.
	TrainCorrect(pc, hist uint32, dist int64)
	// TrainWrong records a mispredicted or newly discovered dependence
	// with the observed distance.
	TrainWrong(pc, hist uint32, actualDist int64)
}

var (
	_ DistancePredictor = (*SDP)(nil)
	_ DistancePredictor = (*TAGESDP)(nil)
)

// TAGEConfig configures the TAGE-like store distance predictor: a tagless
// base table plus tagged tables indexed with geometrically increasing
// history lengths (Seznec & Michaud), adapted to distance prediction the
// way Perais & Seznec's Instruction Distance Predictor is — the paper's
// related-work section notes such a predictor "could be tuned as a Store
// Distance Predictor and adopted to DMDP" (§VII).
type TAGEConfig struct {
	BaseEntries  int   // tagless base table (power of two)
	TableEntries int   // per tagged table (power of two)
	HistoryLens  []int // geometric history lengths, shortest first
	TagBits      int
	ConfInit     uint8
	ConfMax      uint8
	ConfHigh     uint8
	Biased       bool // divide-by-two on mispredict (DMDP) vs -1 (NoSQ)
	UsefulMax    uint8
}

// DefaultTAGEConfig sizes the predictor comparably to the paper's 8.75KB
// two-table SDP.
func DefaultTAGEConfig(biased bool) TAGEConfig {
	return TAGEConfig{
		BaseEntries:  1024,
		TableEntries: 256,
		HistoryLens:  []int{2, 4, 8, 16},
		TagBits:      10,
		ConfInit:     64,
		ConfMax:      127,
		ConfHigh:     63,
		Biased:       biased,
		UsefulMax:    3,
	}
}

type tageEntry struct {
	tag    uint32
	dist   int64
	conf   uint8
	useful uint8
	valid  bool
}

// tageBase is one tagless base-table entry.
type tageBase struct {
	dist  int64
	conf  uint8
	valid bool
}

type tageTable struct {
	entries []tageEntry
	histLen int
}

// TAGESDP is the TAGE-like store distance predictor.
type TAGESDP struct {
	cfg    TAGEConfig
	base   []tageBase // tagless: dist + conf per PC hash
	tables []tageTable

	Predictions, TaggedHits, BaseHits, Allocs int64
}

// NewTAGESDP builds the predictor.
func NewTAGESDP(cfg TAGEConfig) *TAGESDP {
	t := &TAGESDP{cfg: cfg, base: make([]tageBase, cfg.BaseEntries)}
	for _, l := range cfg.HistoryLens {
		t.tables = append(t.tables, tageTable{
			entries: make([]tageEntry, cfg.TableEntries),
			histLen: l,
		})
	}
	return t
}

// foldHistory compresses the low bits of hist into width bits.
func foldHistory(hist uint32, bits, width int) uint32 {
	h := hist & (1<<bits - 1)
	var f uint32
	for h != 0 {
		f ^= h & (1<<width - 1)
		h >>= width
	}
	return f
}

func (t *TAGESDP) index(ti int, pc, hist uint32) uint32 {
	tab := &t.tables[ti]
	w := log2int(len(tab.entries))
	f := foldHistory(hist, tab.histLen, w)
	return (pc>>2 ^ pc>>(2+uint(w)) ^ f) & uint32(len(tab.entries)-1)
}

func (t *TAGESDP) tagOf(ti int, pc, hist uint32) uint32 {
	tab := &t.tables[ti]
	f := foldHistory(hist, tab.histLen, t.cfg.TagBits-1)
	return (pc>>2 ^ pc>>7 ^ f<<1) & (1<<t.cfg.TagBits - 1)
}

func (t *TAGESDP) baseIndex(pc uint32) uint32 {
	return pc >> 2 & uint32(len(t.base)-1)
}

func log2int(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// provider finds the longest-history tag match (-1 = base table).
func (t *TAGESDP) provider(pc, hist uint32) int {
	for ti := len(t.tables) - 1; ti >= 0; ti-- {
		e := &t.tables[ti].entries[t.index(ti, pc, hist)]
		if e.valid && e.tag == t.tagOf(ti, pc, hist) {
			return ti
		}
	}
	return -1
}

// Predict implements DistancePredictor.
func (t *TAGESDP) Predict(pc, hist uint32) (Prediction, bool) {
	t.Predictions++
	if ti := t.provider(pc, hist); ti >= 0 {
		t.TaggedHits++
		e := &t.tables[ti].entries[t.index(ti, pc, hist)]
		return Prediction{Dist: e.dist, Confident: e.conf > t.cfg.ConfHigh, PathSensitive: true}, true
	}
	b := &t.base[t.baseIndex(pc)]
	if !b.valid {
		return Prediction{}, false
	}
	t.BaseHits++
	return Prediction{Dist: b.dist, Confident: b.conf > t.cfg.ConfHigh}, true
}

// TrainCorrect implements DistancePredictor.
func (t *TAGESDP) TrainCorrect(pc, hist uint32, dist int64) {
	if ti := t.provider(pc, hist); ti >= 0 {
		e := &t.tables[ti].entries[t.index(ti, pc, hist)]
		if e.conf < t.cfg.ConfMax {
			e.conf++
		}
		if e.useful < t.cfg.UsefulMax {
			e.useful++
		}
		e.dist = dist
	}
	b := &t.base[t.baseIndex(pc)]
	if !b.valid {
		*b = tageBase{dist: dist, conf: t.cfg.ConfInit, valid: true}
		return
	}
	if b.conf < t.cfg.ConfMax {
		b.conf++
	}
	b.dist = dist
}

// TrainWrong implements DistancePredictor.
func (t *TAGESDP) TrainWrong(pc, hist uint32, actualDist int64) {
	// Update the base table first; its confidence seeds allocations.
	b := &t.base[t.baseIndex(pc)]
	if !b.valid {
		*b = tageBase{dist: actualDist, conf: t.cfg.ConfInit, valid: true}
	} else {
		if t.cfg.Biased {
			b.conf >>= 1
		} else if b.conf > 0 {
			b.conf--
		}
		b.dist = actualDist
	}

	ti := t.provider(pc, hist)
	if ti >= 0 {
		e := &t.tables[ti].entries[t.index(ti, pc, hist)]
		if t.cfg.Biased {
			e.conf >>= 1
		} else if e.conf > 0 {
			e.conf--
		}
		if e.useful > 0 {
			e.useful--
		}
		e.dist = actualDist
	}

	// Allocate one entry in a longer-history table (anti-ping-pong:
	// only into a non-useful slot; inherit the base confidence so
	// per-path variants of an unstable dependence do not restart
	// confident).
	start := ti + 1
	for k := start; k < len(t.tables); k++ {
		idx := t.index(k, pc, hist)
		e := &t.tables[k].entries[idx]
		if !e.valid || e.useful == 0 {
			t.Allocs++
			*e = tageEntry{
				tag:   t.tagOf(k, pc, hist),
				dist:  actualDist,
				conf:  minU8(b.conf, t.cfg.ConfInit),
				valid: true,
			}
			return
		}
		// Slot defended itself: age it.
		e.useful--
	}
}

func minU8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}
