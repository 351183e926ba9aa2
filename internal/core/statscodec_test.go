package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
)

// statsSchemas records, per StatsSchemaVersion, the SHA-256 of the
// canonical field list (statsSchemaListing). A Stats change that adds,
// removes, renames, reorders or retypes an encoded field changes the
// listing; the guard below then fails until StatsSchemaVersion is bumped
// and the new version's fingerprint is recorded here. Old entries stay,
// so a version can never be reused for a different layout.
var statsSchemas = map[int]string{
	1: "0b68e07917812bdcbe601affd9e2f0a14f50e97dc6c6ab78206448c6b20b6ead",
	2: "291032a9c2d1af2b201dd2141c3eb7cd5ac41102ccaafddec61378a6e844ac29", // v1 minus Faults.LineInvalidations
}

// statsSchemaListing renders the canonical field list, one
// "name kind words" line per field in encoding order.
func statsSchemaListing() string {
	var b strings.Builder
	for _, f := range statsFields {
		fmt.Fprintf(&b, "%s %s %d\n", f.name, f.kind, f.words)
	}
	return b.String()
}

func TestStatsSchemaGuard(t *testing.T) {
	listing := statsSchemaListing()
	sum := sha256.Sum256([]byte(listing))
	got := hex.EncodeToString(sum[:])
	want, ok := statsSchemas[StatsSchemaVersion]
	if !ok || got != want {
		t.Fatalf("canonical Stats fields changed without a schema bump: schema v%d records %q, the fields hash to %q.\n"+
			"Bump StatsSchemaVersion and record the new fingerprint in statsSchemas. Field list:\n%s",
			StatsSchemaVersion, want, got, listing)
	}
	for v, fp := range statsSchemas {
		if v != StatsSchemaVersion && fp == got {
			t.Fatalf("schema v%d and v%d record the same field list", v, StatsSchemaVersion)
		}
	}
}

// TestStatsCanonicalBytesPinned pins the exact schema v2 canonical bytes
// (632 of them) and digest text of a Stats with every field distinct.
// The v1 pins were recorded from the hand-written codec the field table
// replaced. Round trips and lengths cannot see a silently reordered
// field; these hashes can. A schema bump re-records them.
func TestStatsCanonicalBytesPinned(t *testing.T) {
	s := namedStats(t)
	s.SimWallClockNS = 987654321
	if n := len(s.MarshalCanonical()); n != 632 || n != statsWireSize {
		t.Fatalf("encoding is %d bytes (statsWireSize %d), want 632", n, statsWireSize)
	}
	for _, c := range []struct {
		what string
		data []byte
		want string
	}{
		{"MarshalCanonical", s.MarshalCanonical(), "3c7da36c89e901db674813963731990cc726815ee1794a90a1031e78a56ba703"},
		{"DigestLine", []byte(s.DigestLine()), "3df0acebc433cae6b239486010a4e4ddfb9090ca29c78e93fe4b782c7dc9367e"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s bytes changed: sha256 %s, want %s", c.what, got, c.want)
		}
	}
	const wantLine = "cyc=1 inst=2 uops=3 loads=[4 5 6 7] loadt=[8 9 10 11] " +
		"lat=[12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35] " +
		"lowconf=36/37/[38 39 40] mpred=41/[42 43 44 45] reexec=46 stall=47 sbstall=48 " +
		"pred=49 cloak=50 delay=51 viol=52 inval=53 bmiss=54 fstall=55 sc=56/57 rr=58 rw=59 " +
		"iqw=60 iqi=61 robw=62 sqs=63 tssbf=64/65 sdp=66/67 ca=68 l2=69 dram=70 tlb=71 " +
		"squash=72 miss=10.428571/10.571429 oracle=75"
	if got := fillStats(t).DigestLine(); got != wantLine {
		t.Errorf("DigestLine:\n got %s\nwant %s", got, wantLine)
	}
}

// namedStats fills every Stats word with a value derived from its field
// path ("LoadCount[2]", "Faults.ValueCorruptions"), not its position, so
// a reordered or renamed field moves or changes bytes in the pins.
func namedStats(t *testing.T) *Stats {
	t.Helper()
	s := &Stats{}
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		h := fnv.New64a()
		h.Write([]byte(path))
		x := h.Sum64()
		switch v.Kind() {
		case reflect.Int64:
			v.SetInt(int64(x >> 1))
		case reflect.Float64:
			v.SetFloat(float64(x>>40) / 7)
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				fill(v.Field(i), name)
			}
		default:
			t.Fatalf("unsupported kind %s", v.Kind())
		}
	}
	fill(reflect.ValueOf(s).Elem(), "")
	return s
}

// fillStats populates every field with a distinct value so round-trip
// mismatches cannot hide behind zeroes.
func fillStats(t *testing.T) *Stats {
	t.Helper()
	s := &Stats{}
	n := int64(1)
	v := reflect.ValueOf(s).Elem()
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int64:
			v.SetInt(n)
			n++
		case reflect.Float64:
			v.SetFloat(float64(n) / 7)
			n++
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		default:
			t.Fatalf("unsupported kind %s", v.Kind())
		}
	}
	fill(v)
	return s
}

func TestStatsCodecRoundTrip(t *testing.T) {
	s := fillStats(t)
	enc := s.MarshalCanonical()
	dec, err := UnmarshalCanonicalStats(enc)
	if err != nil {
		t.Fatal(err)
	}
	// The wall clock is excluded from the encoding by design.
	want := *s
	want.SimWallClockNS = 0
	if *dec != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *dec, want)
	}
	if !bytes.Equal(dec.MarshalCanonical(), enc) {
		t.Fatal("encode -> decode -> encode is not byte-identical")
	}
}

func TestStatsCodecRejectsBadLength(t *testing.T) {
	s := fillStats(t)
	enc := s.MarshalCanonical()
	for _, n := range []int{0, 1, len(enc) - 1, len(enc) + 1} {
		if _, err := UnmarshalCanonicalStats(enc[:min(n, len(enc))]); n <= len(enc) && err == nil {
			t.Fatalf("length %d accepted", n)
		}
	}
	padded := append(append([]byte(nil), enc...), 0)
	if _, err := UnmarshalCanonicalStats(padded); err == nil {
		t.Fatal("padded encoding accepted")
	}
}

func TestStatsCodecExcludesWallClock(t *testing.T) {
	a, b := fillStats(t), fillStats(t)
	a.SimWallClockNS = 123
	b.SimWallClockNS = 456789
	if !bytes.Equal(a.MarshalCanonical(), b.MarshalCanonical()) {
		t.Fatal("SimWallClockNS leaked into the canonical encoding")
	}
}
