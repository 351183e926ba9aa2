// Package cliutil holds flag helpers shared by the dmdp command-line
// tools and the daemon's job parser, so they parse identical syntax for
// identical concepts: instruction budgets (six binaries), sampling specs
// and the artifact-cache flags (the four that take -cache: dmdpsim,
// experiments, statsdigest and dmdpd).
package cliutil

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"dmdp/internal/artifact"
	"dmdp/internal/sampling"
)

// ParseInstr parses an instruction-budget flag. Accepted forms:
// plain decimal ("300000"), Go-style underscore grouping ("300_000"),
// and a decimal with a k/K (×1e3), m/M (×1e6) or g/G/b/B (×1e9) suffix
// ("300k", "3M", "2G", "1b"). The budget must be positive and the scaled
// value must fit in int64 — huge inputs are rejected, never silently
// wrapped.
func ParseInstr(s string) (int64, error) {
	in := strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(in, "k"), strings.HasSuffix(in, "K"):
		mult, in = 1_000, in[:len(in)-1]
	case strings.HasSuffix(in, "m"), strings.HasSuffix(in, "M"):
		mult, in = 1_000_000, in[:len(in)-1]
	case strings.HasSuffix(in, "g"), strings.HasSuffix(in, "G"),
		strings.HasSuffix(in, "b"), strings.HasSuffix(in, "B"):
		mult, in = 1_000_000_000, in[:len(in)-1]
	}
	digits := strings.ReplaceAll(in, "_", "")
	// Reject forms ParseInt would take but we don't document, and
	// degenerate grouping like "_300" or "300__000".
	if digits == "" || strings.HasPrefix(in, "_") || strings.HasSuffix(in, "_") ||
		strings.Contains(in, "__") || strings.ContainsAny(in, "+- ") {
		return 0, fmt.Errorf("bad instruction budget %q", s)
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad instruction budget %q", s)
	}
	if n <= 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("instruction budget %q out of range", s)
	}
	return n * mult, nil
}

// ParseSampleSpec parses a -sample flag value:
//
//	auto            BBV phase detection with the default phase count
//	auto:K          BBV phase detection into at most K phases
//	COUNTxLEN       COUNT systematic intervals of LEN entries
//
// Either form takes an optional +WARMUP suffix (warm-up entries prepended
// per interval, excluded from statistics). COUNT, LEN, K and WARMUP all
// accept ParseInstr budget syntax ("10x1m+200k").
func ParseSampleSpec(s string) (sampling.Spec, error) {
	var spec sampling.Spec
	in := strings.TrimSpace(s)
	if in == "" {
		return spec, fmt.Errorf("empty sample spec")
	}
	if body, warm, ok := strings.Cut(in, "+"); ok {
		w, err := ParseInstr(warm)
		if err != nil || w > 1<<31 {
			return spec, fmt.Errorf("bad sample warmup in %q", s)
		}
		spec.Warmup, in = int(w), body
	}
	if in == "auto" || strings.HasPrefix(in, "auto:") {
		spec.Auto = true
		if k, ok := strings.CutPrefix(in, "auto:"); ok {
			n, err := ParseInstr(k)
			if err != nil || n > 1<<20 {
				return spec, fmt.Errorf("bad phase count in %q", s)
			}
			spec.K = int(n)
		}
		return spec, nil
	}
	count, length, ok := strings.Cut(in, "x")
	if !ok {
		return spec, fmt.Errorf("bad sample spec %q (want auto, auto:K or COUNTxLEN, optionally +WARMUP)", s)
	}
	c, err := ParseInstr(count)
	if err != nil || c > 1<<20 {
		return spec, fmt.Errorf("bad interval count in %q", s)
	}
	l, err := ParseInstr(length)
	if err != nil || l > 1<<31 {
		return spec, fmt.Errorf("bad interval length in %q", s)
	}
	spec.Count, spec.Len = int(c), int(l)
	return spec, nil
}

// CacheFlags carries the artifact-cache flag values registered by
// RegisterCache.
type CacheFlags struct {
	Mode string
	Dir  string
	Max  int64
}

// RegisterCache registers the -cache, -cachedir and -cachemax flags on
// fs with the shared defaults (cache off; os.UserCacheDir()/dmdp; 2 GiB
// cap).
func RegisterCache(fs *flag.FlagSet) *CacheFlags {
	c := &CacheFlags{}
	fs.StringVar(&c.Mode, "cache", "off",
		"persistent artifact cache: off | ro | rw | verify (verify rebuilds and re-simulates hits and fails on mismatch)")
	fs.StringVar(&c.Dir, "cachedir", artifact.DefaultDir(), "artifact cache directory")
	fs.Int64Var(&c.Max, "cachemax", artifact.DefaultMaxBytes,
		"artifact cache size cap in bytes (LRU-evicted)")
	return c
}

// Open opens the artifact store the flags describe (nil store when
// -cache off). Write failures — an unwritable -cachedir, ENOSPC during
// publish — degrade the store to read-only with a one-time warning on
// stderr instead of failing the run (stdout stays byte-identical).
func (c *CacheFlags) Open() (*artifact.Store, error) {
	mode, err := artifact.ParseMode(c.Mode)
	if err != nil {
		return nil, err
	}
	store, err := artifact.Open(c.Dir, mode, c.Max)
	if err != nil {
		return nil, err
	}
	store.SetWarnFn(func(msg string) { fmt.Fprintln(os.Stderr, msg) })
	return store, nil
}
