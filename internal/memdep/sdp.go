package memdep

import "fmt"

// SDPConfig configures the Store Distance Predictor (paper §V: two 4-way
// associative 1K-entry tables — one path-insensitive indexed by the load
// PC, one path-sensitive indexed by PC ⊕ 8-bit branch history — each
// entry holding a 7-bit confidence counter, a tag and a 6-bit distance).
type SDPConfig struct {
	Sets        int // sets per table (1K entries / 4 ways = 256)
	Ways        int
	HistoryBits int   // branch history bits folded into the PS index
	ConfInit    uint8 // initial confidence for a new dependence (64)
	ConfMax     uint8 // saturation (127, 7-bit)
	ConfHigh    uint8 // > ConfHigh -> memory cloaking (63)
	Biased      bool  // true: divide-by-two on mispredict (DMDP); false: -1 (NoSQ)
}

// DefaultSDPConfig matches the paper's predictor.
func DefaultSDPConfig(biased bool) SDPConfig {
	return SDPConfig{
		Sets:        256,
		Ways:        4,
		HistoryBits: 8,
		ConfInit:    64,
		ConfMax:     127,
		ConfHigh:    63,
		Biased:      biased,
	}
}

// sdpVal is one entry's payload: everything but its tag.
type sdpVal struct {
	dist int64
	used int64 // LRU timestamp; 0 when the entry is empty
	conf uint8
}

// sdpTable is one set-associative predictor table, stored flat and
// pointer-free: set s owns entries [s*ways, (s+1)*ways). tags holds each
// valid entry's tag+1, so a probe scans 4-byte tags and a zeroed table
// is empty.
type sdpTable struct {
	ways int
	mask uint32 // set count - 1 (a power of two)
	tags []uint32
	vals []sdpVal
	tick int64
}

func newSDPTable(sets, ways int) *sdpTable {
	return &sdpTable{
		ways: ways,
		mask: uint32(sets - 1),
		tags: make([]uint32, sets*ways),
		vals: make([]sdpVal, sets*ways),
	}
}

// find returns the entry of tag in index's set, touching its LRU stamp,
// or nil.
func (t *sdpTable) find(index, tag uint32) *sdpVal {
	base := int(index&t.mask) * t.ways
	key := tag + 1
	for i, k := range t.tags[base : base+t.ways] {
		if k == key {
			t.tick++
			v := &t.vals[base+i]
			v.used = t.tick
			return v
		}
	}
	return nil
}

func (t *sdpTable) insert(index, tag uint32, dist int64, conf uint8) *sdpVal {
	base := int(index&t.mask) * t.ways
	tags, vals := t.tags[base:base+t.ways], t.vals[base:base+t.ways]
	victim := 0
	for i := range tags {
		if tags[i] == 0 {
			victim = i
			break
		}
		if vals[i].used < vals[victim].used {
			victim = i
		}
	}
	t.tick++
	tags[victim] = tag + 1
	vals[victim] = sdpVal{dist: dist, conf: conf, used: t.tick}
	return &vals[victim]
}

// Prediction is one Store Distance Predictor outcome.
type Prediction struct {
	Dist          int64 // predicted store distance (0 = the most recent store)
	Confident     bool  // conf > ConfHigh: use memory cloaking
	PathSensitive bool  // supplied by the path-sensitive table
}

// SDP is the two-table Store Distance Predictor.
type SDP struct {
	cfg SDPConfig
	ps  *sdpTable // path-sensitive: indexed by PC xor history
	pi  *sdpTable // path-insensitive: indexed by PC

	Predictions, PSHits, PIHits, Trainings int64
}

// Valid reports whether the geometry has a set count that is a positive
// power of two (the table index is masked) and between 1 and 255 ways
// (the warm encoding counts a set's ways in one byte).
func (c SDPConfig) Valid() bool {
	return c.Sets > 0 && c.Sets&(c.Sets-1) == 0 && c.Ways > 0 && c.Ways < 256
}

// NewSDP builds the predictor. It panics on a geometry that is not
// Valid: config.Validate rejects those before any predictor is built.
func NewSDP(cfg SDPConfig) *SDP {
	if !cfg.Valid() {
		panic(fmt.Sprintf("sdp: invalid geometry %+v", cfg))
	}
	return &SDP{
		cfg: cfg,
		ps:  newSDPTable(cfg.Sets, cfg.Ways),
		pi:  newSDPTable(cfg.Sets, cfg.Ways),
	}
}

func (s *SDP) psIndex(pc, hist uint32) uint32 {
	h := hist & (1<<s.cfg.HistoryBits - 1)
	return (pc >> 2) ^ h
}

func (s *SDP) piIndex(pc uint32) uint32 { return pc >> 2 }

func (s *SDP) tag(pc uint32) uint32 { return pc >> 2 }

// Predict looks up both tables simultaneously; the path-sensitive
// prediction wins when available (paper §IV-A d). The boolean result is
// false when the load misses both tables, in which case it is predicted
// independent and may read the cache as soon as its address is ready.
func (s *SDP) Predict(pc, hist uint32) (Prediction, bool) {
	s.Predictions++
	if e := s.ps.find(s.psIndex(pc, hist), s.tag(pc)); e != nil {
		s.PSHits++
		return Prediction{Dist: e.dist, Confident: e.conf > s.cfg.ConfHigh, PathSensitive: true}, true
	}
	if e := s.pi.find(s.piIndex(pc), s.tag(pc)); e != nil {
		s.PIHits++
		return Prediction{Dist: e.dist, Confident: e.conf > s.cfg.ConfHigh}, true
	}
	return Prediction{}, false
}

// TrainCorrect rewards a correct dependence prediction for the load at pc:
// the confidence counters increment (saturating) in both tables. The
// path-insensitive table trains first; a missing path-sensitive entry is
// seeded from the (updated) path-insensitive confidence, so per-path
// variants of an already-known dependence do not restart at full
// confidence.
func (s *SDP) TrainCorrect(pc, hist uint32, dist int64) {
	s.Trainings++
	piConf := s.trainTable(s.pi, s.piIndex(pc), pc, dist, true, s.cfg.ConfInit)
	s.trainTable(s.ps, s.psIndex(pc, hist), pc, dist, true, piConf)
}

// TrainWrong records a mispredicted (or newly discovered) dependence with
// the actual observed distance. The confidence update is balanced (-1,
// NoSQ) or biased (÷2, DMDP) per the configuration. A genuinely new
// dependence starts at ConfInit (paper §V); a new path-sensitive variant
// of a known unstable dependence inherits the path-insensitive
// confidence instead of resetting to confident.
func (s *SDP) TrainWrong(pc, hist uint32, actualDist int64) {
	s.Trainings++
	piConf := s.trainTable(s.pi, s.piIndex(pc), pc, actualDist, false, s.cfg.ConfInit)
	s.trainTable(s.ps, s.psIndex(pc, hist), pc, actualDist, false, piConf)
}

// trainTable updates (or inserts at insertConf) one table's entry and
// returns the entry's resulting confidence.
func (s *SDP) trainTable(t *sdpTable, index uint32, pc uint32, dist int64, correct bool, insertConf uint8) uint8 {
	e := t.find(index, s.tag(pc))
	if e == nil {
		e = t.insert(index, s.tag(pc), dist, insertConf)
		return e.conf
	}
	if correct {
		if e.conf < s.cfg.ConfMax {
			e.conf++
		}
		e.dist = dist
		return e.conf
	}
	if s.cfg.Biased {
		e.conf >>= 1
	} else if e.conf > 0 {
		e.conf--
	}
	e.dist = dist
	return e.conf
}

// Confidence returns the current confidence for pc in the path-sensitive
// table (or the path-insensitive one as fallback); used by tests and
// introspection tools.
func (s *SDP) Confidence(pc, hist uint32) (uint8, bool) {
	if e := s.ps.find(s.psIndex(pc, hist), s.tag(pc)); e != nil {
		return e.conf, true
	}
	if e := s.pi.find(s.piIndex(pc), s.tag(pc)); e != nil {
		return e.conf, true
	}
	return 0, false
}
