package artifact

import (
	"bytes"

	"dmdp/internal/core"
)

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

// Result is the get-or-simulate path for one simulation result. A hit
// returns the stored stats; a miss calls run and stores a successful
// result. In verify mode a hit runs the simulation again and compares
// canonical encodings: a match returns the stored stats, so verify
// output equals a plain warm run's, and a mismatch returns a
// *VerifyError naming bench and label and writes nothing. The zero key
// only runs: callers pass it for runs that must never be stored, such
// as fault-injected ones, which the store cannot tell from clean runs.
// A nil store misses every lookup. A failed run is returned as is and
// never stored.
func (s *Store) Result(key Key, bench, label string, run func() (*core.Stats, error)) (*core.Stats, error) {
	if key == (Key{}) {
		return run()
	}
	cached, path, hit := s.LoadStats(key)
	if hit && s.mode != Verify { // only a non-nil store hits
		return cached, nil
	}
	st, err := run()
	if err != nil {
		return nil, err
	}
	if !hit {
		s.StoreStats(key, st)
		return st, nil
	}
	if cb, fb := cached.MarshalCanonical(), st.MarshalCanonical(); !bytes.Equal(cb, fb) {
		return nil, newVerifyError(key, path, bench, label, cb, fb)
	}
	return cached, nil
}

// LoadStats fetches the simulation result stored under key, or
// (nil, "", false) on any miss. The returned path names the file the
// entry was read from (for verify-mode diagnostics). Corrupt entries
// are deleted in read-write modes.
func (s *Store) LoadStats(key Key) (*core.Stats, string, bool) { return resultKind.load(s, key) }

// StoreStats persists st under key (no-op for nil or read-only stores).
// Callers must not persist failed or fault-injected runs — the store
// cannot tell them apart from clean ones; Result keeps to this.
func (s *Store) StoreStats(key Key, st *core.Stats) { resultKind.store(s, key, st) }
