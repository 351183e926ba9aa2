// Package faults provides deterministic, seeded fault injection for the
// timing core's hardening tests.
//
// Two families of faults exist. Benign faults (prediction flips, forced
// low confidence, predicate corruption) attack the *speculative*
// machinery: the SVW/T-SSBF verification must absorb them and still
// converge to the architecturally correct final state — only IPC may
// change. Architectural corruption (value corruption at
// retire) attacks the *committed* state: the commit-time oracle must
// catch it and abort the run with a structured diagnostic.
//
// The injector is a plain seeded PRNG consulted at fixed points in the
// pipeline, so a given (program, config, seed) triple always injects the
// same faults at the same places — failures reproduce exactly.
package faults

import "math/rand"

// Config enables and rates the injector's fault classes. The zero value
// disables injection entirely. Rates are probabilities in [0, 1],
// evaluated once per opportunity (per prediction, per CMP, per retiring
// load).
type Config struct {
	// Seed initializes the injector PRNG (0 behaves as 1).
	Seed int64

	// Benign faults: the recovery machinery must converge to the golden
	// architectural state.

	// PredictionFlipRate perturbs a store-distance prediction so the
	// load targets the wrong store (per SDP hit).
	PredictionFlipRate float64
	// ForceLowConfRate demotes a confident prediction to low confidence,
	// forcing the delay/predication path (per confident prediction).
	ForceLowConfRate float64
	// PredicateCorruptRate flips a computed CMOV predicate so the wrong
	// predication arm publishes the value (per CMP completion).
	PredicateCorruptRate float64

	// Architectural corruption: must be caught by the commit-time
	// oracle, never silently retired.

	// ValueCorruptRate corrupts a load's result at the moment it retires
	// (per retiring load).
	ValueCorruptRate float64
}

// Enabled reports whether any fault class is active.
func (c Config) Enabled() bool {
	return c.PredictionFlipRate > 0 || c.ForceLowConfRate > 0 ||
		c.PredicateCorruptRate > 0 || c.ValueCorruptRate > 0
}

// Valid reports whether every rate is a probability.
func (c Config) Valid() bool {
	for _, r := range []float64{c.PredictionFlipRate, c.ForceLowConfRate,
		c.PredicateCorruptRate, c.ValueCorruptRate} {
		if r < 0 || r > 1 {
			return false
		}
	}
	return true
}

// Counts tallies the faults actually injected during one run; it is
// copied into the run's Stats so experiments can report them.
type Counts struct {
	PredictionFlips      int64
	ForcedLowConf        int64
	PredicateCorruptions int64
	ValueCorruptions     int64
}

// Total returns the number of faults injected across all classes.
func (c Counts) Total() int64 {
	return c.PredictionFlips + c.ForcedLowConf + c.PredicateCorruptions +
		c.ValueCorruptions
}

// Injector is one run's deterministic fault source. Not safe for
// concurrent use; each core owns its own injector.
type Injector struct {
	cfg Config
	rng *rand.Rand

	// Counts tallies injected faults by class.
	Counts Counts
}

// NewInjector builds an injector for cfg.
func NewInjector(cfg Config) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// roll draws one decision at the given rate. Disabled classes do not
// consume PRNG state: a given (config, seed) pair always draws the same
// decision stream, which is what makes failures reproduce exactly.
func (i *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return i.rng.Float64() < rate
}

// FlipPrediction reports whether to perturb this store-distance
// prediction.
func (i *Injector) FlipPrediction() bool {
	if i.roll(i.cfg.PredictionFlipRate) {
		i.Counts.PredictionFlips++
		return true
	}
	return false
}

// ForceLowConf reports whether to demote this confident prediction.
func (i *Injector) ForceLowConf() bool {
	if i.roll(i.cfg.ForceLowConfRate) {
		i.Counts.ForcedLowConf++
		return true
	}
	return false
}

// CorruptPredicate reports whether to flip this CMOV predicate.
func (i *Injector) CorruptPredicate() bool {
	if i.roll(i.cfg.PredicateCorruptRate) {
		i.Counts.PredicateCorruptions++
		return true
	}
	return false
}

// CorruptValue reports whether to corrupt this load's retiring value.
func (i *Injector) CorruptValue() bool {
	if i.roll(i.cfg.ValueCorruptRate) {
		i.Counts.ValueCorruptions++
		return true
	}
	return false
}
