package artifact

import "dmdp/internal/core"

// Result store format v1 ("DMDPRES1", framed — see frame.go).
//
//	payload: one canonical core.Stats encoding (fixed width; see
//	core.MarshalCanonical). The stats schema version is part of the
//	cache key, not the file, so a schema bump changes keys and the old
//	files simply age out.
var resultMagic = [8]byte{'D', 'M', 'D', 'P', 'R', 'E', 'S', '1'}

var resultKind = framedKind[core.Stats]{
	magic: resultMagic, suffix: ".stats", lookups: resultLookups,
	encode: func(st *core.Stats) [][]byte { return [][]byte{st.MarshalCanonical()} },
	decode: func(payload []byte) *core.Stats {
		st, _ := core.UnmarshalCanonicalStats(payload) // a wrong length is a miss: nil
		return st
	},
}

// Result is the get-or-simulate path for one simulation result (see
// get): a hit returns the stored stats, a miss calls run and stores a
// successful result, and a verify-mode hit runs the simulation again
// and compares canonical encodings. Callers pass the zero key for runs
// that must never be stored, such as fault-injected ones.
func (s *Store) Result(key Key, bench, label string, run func() (*core.Stats, error)) (*core.Stats, error) {
	return get(s, &resultKind, key, bench, label, run)
}

// LoadStats fetches the simulation result stored under key, or
// (nil, false) on any miss. Corrupt entries are deleted in read-write
// modes.
func (s *Store) LoadStats(key Key) (*core.Stats, bool) {
	st, _, ok := resultKind.load(s, key)
	return st, ok
}

// StoreStats persists st under key (no-op for nil or read-only stores).
// Callers must not persist failed or fault-injected runs — the store
// cannot tell them apart from clean ones; Result keeps to this.
func (s *Store) StoreStats(key Key, st *core.Stats) { resultKind.store(s, key, st) }
