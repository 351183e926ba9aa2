package faults

import "testing"

func TestZeroConfigDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if !c.Valid() {
		t.Fatal("zero config must be valid")
	}
	i := NewInjector(c)
	for k := 0; k < 100; k++ {
		if i.FlipPrediction() || i.ForceLowConf() || i.CorruptPredicate() || i.CorruptValue() {
			t.Fatal("disabled injector fired")
		}
	}
	if i.Counts.Total() != 0 {
		t.Fatalf("disabled injector counted %d faults", i.Counts.Total())
	}
}

func TestValid(t *testing.T) {
	for _, c := range []Config{
		{PredictionFlipRate: -0.1},
		{ForceLowConfRate: 1.5},
		{ValueCorruptRate: 2},
	} {
		if c.Valid() {
			t.Errorf("%+v must be invalid", c)
		}
	}
	if !(Config{PredictionFlipRate: 1, ValueCorruptRate: 0.5}).Valid() {
		t.Error("in-range rates must be valid")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, PredictionFlipRate: 0.3, ValueCorruptRate: 0.1}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for k := 0; k < 1000; k++ {
		if a.FlipPrediction() != b.FlipPrediction() {
			t.Fatalf("flip decision %d diverged between same-seed injectors", k)
		}
		if a.CorruptValue() != b.CorruptValue() {
			t.Fatalf("corrupt decision %d diverged between same-seed injectors", k)
		}
	}
	if a.Counts != b.Counts {
		t.Fatalf("counts diverged: %+v vs %+v", a.Counts, b.Counts)
	}
	if a.Counts.PredictionFlips == 0 || a.Counts.ValueCorruptions == 0 {
		t.Fatalf("rates 0.3/0.1 over 1000 draws fired nothing: %+v", a.Counts)
	}
}

// Disabled classes must not consume PRNG state: interleaving calls to a
// zero-rate class cannot shift the decision stream of an active class.
func TestDisabledClassConsumesNoState(t *testing.T) {
	cfg := Config{Seed: 7, PredictionFlipRate: 0.5}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for k := 0; k < 500; k++ {
		b.ForceLowConf() // rate 0: must be a no-op on the stream
		b.CorruptValue()
		if a.FlipPrediction() != b.FlipPrediction() {
			t.Fatalf("decision %d shifted by disabled-class calls", k)
		}
	}
}

func TestSeedZeroBehavesAsOne(t *testing.T) {
	a := NewInjector(Config{Seed: 0, PredictionFlipRate: 0.5})
	b := NewInjector(Config{Seed: 1, PredictionFlipRate: 0.5})
	for k := 0; k < 100; k++ {
		if a.FlipPrediction() != b.FlipPrediction() {
			t.Fatalf("seed 0 and seed 1 diverged at decision %d", k)
		}
	}
}

func TestCountsTally(t *testing.T) {
	i := NewInjector(Config{Seed: 3, PredictionFlipRate: 1, PredicateCorruptRate: 1, ValueCorruptRate: 1})
	for k := 0; k < 5; k++ {
		i.FlipPrediction()
		i.CorruptPredicate()
	}
	i.CorruptValue()
	want := Counts{PredictionFlips: 5, PredicateCorruptions: 5, ValueCorruptions: 1}
	if i.Counts != want {
		t.Fatalf("counts %+v, want %+v", i.Counts, want)
	}
	if i.Counts.Total() != 11 {
		t.Fatalf("total %d, want 11", i.Counts.Total())
	}
}
