package artifact

import "dmdp/internal/core"

// Result store format v1 ("DMDPRES1", framed — see frame.go).
//
//	payload: one canonical core.Stats encoding (fixed width; see
//	core.MarshalCanonical). The stats schema version is part of the
//	cache key, not the file, so a schema bump changes keys and the old
//	files simply age out.
var resultMagic = [8]byte{'D', 'M', 'D', 'P', 'R', 'E', 'S', '1'}

var resultKind = framedKind[core.Stats]{resultMagic, ".stats", resultLookups,
	(*core.Stats).MarshalCanonical,
	func(payload []byte) *core.Stats {
		st, _ := core.UnmarshalCanonicalStats(payload) // a wrong length is a miss: nil
		return st
	},
}

// LoadStats fetches the simulation result stored under key, or
// (nil, "", false) on any miss. The returned path names the file the
// entry was read from (for verify-mode diagnostics). Corrupt entries
// are deleted in read-write modes.
func (s *Store) LoadStats(key Key) (*core.Stats, string, bool) { return resultKind.load(s, key) }

// StoreStats persists st under key (no-op for nil or read-only stores).
// Callers must not persist failed or fault-injected runs — the store
// cannot tell them apart from clean ones.
func (s *Store) StoreStats(key Key, st *core.Stats) { resultKind.store(s, key, st) }
