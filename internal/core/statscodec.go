package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
)

// StatsSchemaVersion names the canonical Stats encoding below. It is part
// of every result-store cache key (see internal/artifact), so bumping it
// invalidates all persisted simulation results at once. Bump it whenever
// a Stats field is added, removed, renamed, reordered or retyped —
// TestStatsSchemaGuard fails until this constant and the recorded field
// list fingerprint are updated together.
const StatsSchemaVersion = 2

// statsField is one canonical Stats field, resolved once from the struct
// tags (see Stats). Faults' members flatten into one field each.
type statsField struct {
	name  string       // Go field path, e.g. "Faults.ValueCorruptions"
	index []int        // reflect field index path from Stats
	kind  reflect.Kind // Int64, Float64, or Array (of int64)
	words int          // 8-byte words on the wire: the array length, or 1
	label string       // DigestLine label; "" when the field is not digested
}

// word returns the i-th 8-byte word of the field's value fv.
func (f *statsField) word(fv reflect.Value, i int) reflect.Value {
	if f.kind == reflect.Array {
		return fv.Index(i)
	}
	return fv
}

// verb is the field's DigestLine format verb.
func (f *statsField) verb() string {
	switch f.kind {
	case reflect.Array:
		return "%v"
	case reflect.Float64:
		return "%.6f"
	}
	return "%d"
}

var (
	// statsFields lists the canonical fields in encoding order.
	statsFields = resolveStatsFields()
	// statsWireSize is the exact length of a canonical encoding.
	statsWireSize = wireSize(statsFields)
	// statsDigestFormat is DigestLine's format string.
	statsDigestFormat = digestFormat(statsFields)
)

// resolveStatsFields walks the Stats declaration. Every field must carry
// a digest tag unless canonical:"-" excludes it; a missing tag or an
// unsupported type panics at init, so no test can pass with a field the
// encoding silently drops.
func resolveStatsFields() []statsField {
	var fields []statsField
	var add func(t reflect.Type, index []int, name, label string)
	add = func(t reflect.Type, index []int, name, label string) {
		switch {
		case t.Kind() == reflect.Int64 || t.Kind() == reflect.Float64:
			fields = append(fields, statsField{name, index, t.Kind(), 1, label})
		case t.Kind() == reflect.Array && t.Elem().Kind() == reflect.Int64:
			fields = append(fields, statsField{name, index, reflect.Array, t.Len(), label})
		case t.Kind() == reflect.Struct && label == "":
			for i := 0; i < t.NumField(); i++ {
				sf := t.Field(i)
				add(sf.Type, append(index[:len(index):len(index)], i), name+"."+sf.Name, "")
			}
		default:
			panic(fmt.Sprintf("core: Stats.%s: type %s has no canonical encoding", name, t))
		}
	}
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Tag.Get("canonical") == "-" {
			continue
		}
		label := f.Tag.Get("digest")
		if label == "" {
			panic(fmt.Sprintf("core: Stats.%s needs a digest tag (a label, or \"-\")", f.Name))
		}
		if label == "-" {
			label = ""
		}
		add(f.Type, []int{i}, f.Name, label)
	}
	return fields
}

func wireSize(fields []statsField) int {
	n := 0
	for _, f := range fields {
		n += 8 * f.words
	}
	return n
}

// digestFormat renders "label=verb" for every digested field, joining
// runs of one label with '/' ("lowconf=%d/%d/%v").
func digestFormat(fields []statsField) string {
	var b strings.Builder
	prev := ""
	for _, f := range fields {
		switch {
		case f.label == "":
		case f.label == prev:
			b.WriteString("/" + f.verb())
		default:
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(f.label + "=" + f.verb())
		}
		prev = f.label
	}
	return b.String()
}

// MarshalCanonical serializes the statistics into the canonical
// little-endian form used by the persistent result store and by
// determinism comparisons: every field in declaration order, int64
// counters as two's complement and float64 rates as IEEE-754 bits, 8
// bytes per word — no maps, so equal statistics always produce
// identical bytes. SimWallClockNS is deliberately excluded: it is the
// one Stats field allowed to differ between behaviorally identical runs.
func (s *Stats) MarshalCanonical() []byte {
	buf := make([]byte, 0, statsWireSize)
	v := reflect.ValueOf(s).Elem()
	for i := range statsFields {
		f := &statsFields[i]
		fv := v.FieldByIndex(f.index)
		for w := 0; w < f.words; w++ {
			bits := uint64(0)
			if e := f.word(fv, w); e.Kind() == reflect.Float64 {
				bits = math.Float64bits(e.Float())
			} else {
				bits = uint64(e.Int())
			}
			buf = binary.LittleEndian.AppendUint64(buf, bits)
		}
	}
	return buf
}

// UnmarshalCanonicalStats decodes a canonical encoding produced by
// MarshalCanonical. The length is checked exactly; a truncated or padded
// buffer is rejected. SimWallClockNS decodes as 0 (the encoding excludes
// it).
func UnmarshalCanonicalStats(data []byte) (*Stats, error) {
	if len(data) != statsWireSize {
		return nil, fmt.Errorf("core: canonical stats length %d, want %d (schema v%d)",
			len(data), statsWireSize, StatsSchemaVersion)
	}
	s := &Stats{}
	v := reflect.ValueOf(s).Elem()
	for i := range statsFields {
		f := &statsFields[i]
		fv := v.FieldByIndex(f.index)
		for w := 0; w < f.words; w++ {
			bits := binary.LittleEndian.Uint64(data)
			data = data[8:]
			if e := f.word(fv, w); e.Kind() == reflect.Float64 {
				e.SetFloat(math.Float64frombits(bits))
			} else {
				e.SetInt(int64(bits))
			}
		}
	}
	return s, nil
}

// DigestLine renders every deterministic counter of one run on a single
// fixed-format line. Two builds of the simulator are behaviorally
// identical iff their digest lines are byte-identical; wall-clock
// observability counters (SimWallClockNS and friends) are deliberately
// excluded — they are the only Stats fields allowed to differ between
// runs — and so are the injected-fault counts. Field order and labels
// are frozen; do not reorder (diffs against recorded digests would
// churn). Shared by cmd/statsdigest, the committed golden files under
// testdata/goldens/ and the difftest aggregate digest.
func (s *Stats) DigestLine() string {
	v := reflect.ValueOf(s).Elem()
	args := make([]any, 0, len(statsFields))
	for i := range statsFields {
		if f := &statsFields[i]; f.label != "" {
			args = append(args, v.FieldByIndex(f.index).Interface())
		}
	}
	return fmt.Sprintf(statsDigestFormat, args...)
}
