package config

import (
	"strings"
	"testing"

	"dmdp/internal/cache"
)

func TestDefaultValidates(t *testing.T) {
	for _, m := range []Model{Baseline, NoSQ, DMDP, Perfect} {
		cfg := Default(m)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if cfg.Model != m {
			t.Fatalf("model not set")
		}
	}
}

func TestBiasedConfidenceOnlyForDMDP(t *testing.T) {
	if !Default(DMDP).SDP.Biased {
		t.Fatal("DMDP must use the biased (divide-by-two) confidence update")
	}
	if Default(NoSQ).SDP.Biased {
		t.Fatal("NoSQ must use the balanced (-1) confidence update")
	}
}

func TestVariants(t *testing.T) {
	base := Default(DMDP)
	if c := base.WithIssueWidth(4); c.IssueWidth != 4 || c.FetchWidth != 4 || c.RetireWidth != 4 {
		t.Fatal("WithIssueWidth")
	}
	if c := base.WithROB(512); c.ROBSize != 512 || c.IQSize <= base.IQSize {
		t.Fatal("WithROB")
	}
	if c := base.WithPhysRegs(160); c.PhysRegs != 160 {
		t.Fatal("WithPhysRegs")
	}
	if c := base.WithStoreBuffer(16); c.StoreBufferSize != 16 {
		t.Fatal("WithStoreBuffer")
	}
	if c := base.WithConsistency(RMO); c.Consistency != RMO {
		t.Fatal("WithConsistency")
	}
	// Variants must not mutate the receiver.
	if base.IssueWidth != 8 || base.ROBSize != 256 {
		t.Fatal("variant mutated the base config")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(Config) Config{
		func(c Config) Config { c.FetchWidth = 0; return c },
		func(c Config) Config { c.ROBSize = 0; return c },
		func(c Config) Config { c.PhysRegs = 10; return c },
		func(c Config) Config { c.StoreBufferSize = 0; return c },
		func(c Config) Config { c.LoadPorts = 0; return c },
		func(c Config) Config { c.DistBits = 0; return c },
		func(c Config) Config { c.Hierarchy.L2.Ways = 3; return c },
		func(c Config) Config { c.Hierarchy.L1D.SizeBytes = 0; return c },
		// One set of one-byte lines: a full 32-bit tag, which the tag
		// array's tag+1 encoding cannot hold.
		func(c Config) Config { c.Hierarchy.L1D = cache.Config{SizeBytes: 4, LineBytes: 1, Ways: 4}; return c },
		func(c Config) Config { c.TLB.Entries = 0; return c },
		func(c Config) Config { c.TLB.PageBytes = 1; return c },
		func(c Config) Config { c.SDP.Sets = 96; return c },
		func(c Config) Config { c.SDP.Ways = 0; return c },
	}
	for i, f := range bad {
		cfg := f(Default(DMDP))
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestMaxDist(t *testing.T) {
	cfg := Default(DMDP)
	if cfg.MaxDist() != 63 {
		t.Fatalf("6-bit distance field: MaxDist = %d", cfg.MaxDist())
	}
}

func TestStringers(t *testing.T) {
	if Baseline.String() != "baseline" || DMDP.String() != "dmdp" ||
		NoSQ.String() != "nosq" || Perfect.String() != "perfect" {
		t.Fatal("model names")
	}
	if TSO.String() != "tso" || RMO.String() != "rmo" {
		t.Fatal("consistency names")
	}
}

// ParseModel inverts String for every model, in any case, and names the
// valid models when it rejects one.
func TestParseModel(t *testing.T) {
	for _, m := range Models {
		for _, s := range []string{m.String(), strings.ToUpper(m.String())} {
			got, err := ParseModel(s)
			if err != nil || got != m {
				t.Errorf("ParseModel(%q) = %v, %v; want %v", s, got, err, m)
			}
		}
	}
	_, err := ParseModel("quantum")
	if err == nil || !strings.Contains(err.Error(), "baseline|nosq|dmdp|perfect|fnf") {
		t.Errorf("unknown model error %v does not list the models", err)
	}
}
