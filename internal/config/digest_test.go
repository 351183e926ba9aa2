package config

import (
	"reflect"
	"testing"
)

func TestDigestStableAndEqual(t *testing.T) {
	a := Default(DMDP)
	b := Default(DMDP)
	if a.Digest() != b.Digest() {
		t.Fatal("identical configs produced different digests")
	}
	if a.Digest() != a.Digest() {
		t.Fatal("digest is not deterministic across calls")
	}
	if a.Digest().String() == "" || a.Digest().Short() == "" {
		t.Fatal("digest renders empty")
	}
}

func TestDigestDistinguishesModels(t *testing.T) {
	seen := map[Digest]Model{}
	for _, m := range []Model{Baseline, NoSQ, DMDP, Perfect, FnF} {
		c := Default(m)
		d := c.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("models %v and %v share a digest", prev, m)
		}
		seen[d] = m
	}
}

// TestDigestCoversEveryField perturbs each leaf field of a default config
// and requires the digest to change: a field the hash skipped would let
// two different machines alias in the run cache.
func TestDigestCoversEveryField(t *testing.T) {
	base := Default(DMDP)
	baseDigest := base.Digest()

	var walk func(t *testing.T, v reflect.Value, path string)
	walk = func(t *testing.T, v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(t, v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Bool:
			old := v.Bool()
			v.SetBool(!old)
			if base.Digest() == baseDigest {
				t.Errorf("%s: digest ignores field", path)
			}
			v.SetBool(old)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			old := v.Int()
			v.SetInt(old + 1)
			if base.Digest() == baseDigest {
				t.Errorf("%s: digest ignores field", path)
			}
			v.SetInt(old)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			old := v.Uint()
			v.SetUint(old + 1)
			if base.Digest() == baseDigest {
				t.Errorf("%s: digest ignores field", path)
			}
			v.SetUint(old)
		case reflect.Float32, reflect.Float64:
			old := v.Float()
			v.SetFloat(old + 0.5)
			if base.Digest() == baseDigest {
				t.Errorf("%s: digest ignores field", path)
			}
			v.SetFloat(old)
		case reflect.String:
			old := v.String()
			v.SetString(old + "x")
			if base.Digest() == baseDigest {
				t.Errorf("%s: digest ignores field", path)
			}
			v.SetString(old)
		default:
			t.Errorf("%s: unexpected field kind %v in Config", path, v.Kind())
		}
	}
	walk(t, reflect.ValueOf(&base).Elem(), "Config")

	if base.Digest() != baseDigest {
		t.Fatal("perturbation walk did not restore the config")
	}
}

func TestDigestWithHelpers(t *testing.T) {
	base := Default(DMDP)
	variants := []Config{
		base.WithStoreBuffer(16),
		base.WithIssueWidth(4),
		base.WithROB(512),
		base.WithPhysRegs(160),
		base.WithConsistency(RMO),
		base.WithTAGE(true),
		base.WithCoalescing(false),
		base.WithPrefetch(true),
		base.WithSilentStorePolicy(false),
		base.WithWarmup(1000),
		base.WithFastForward(false),
	}
	seen := map[Digest]int{base.Digest(): -1}
	for i := range variants {
		d := variants[i].Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("variant %d aliases variant %d", i, prev)
		}
		seen[d] = i
	}
}
