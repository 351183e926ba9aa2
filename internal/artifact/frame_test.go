package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"testing"

	"dmdp/internal/core"
	"dmdp/internal/trace"
)

// encodeFile returns the complete file image of v, as the store writes
// it: the frame header, then the payload.
func (k *framedKind[T]) encodeFile(v *T) []byte {
	parts := k.encode(v)
	return bytes.Join(append([][]byte{k.header(parts...)}, parts...), nil)
}

// tracePayload returns encodeTrace's payload as one buffer.
func tracePayload(tr *trace.Trace) []byte { return bytes.Join(encodeTrace(tr), nil) }

// TestPayloadChecksumChunks pins the frame checksum: up to one 4 MiB
// chunk it is the plain CRC32C of the payload, which is what kept the
// bytes of the records framed before traces joined; past that it is the
// CRC32C of the chunk CRC32Cs in chunk order, however the chunks were
// spread over goroutines.
func TestPayloadChecksumChunks(t *testing.T) {
	p := make([]byte, 2*crcChunkSize+123)
	for i := range p {
		p[i] = byte(i*7 + i>>13)
	}
	one := p[:crcChunkSize]
	if got, want := payloadChecksum(one), crc32.Checksum(one, crcTable); got != want {
		t.Fatalf("one chunk: checksum %08x, want the plain CRC32C %08x", got, want)
	}
	var sums []byte
	for lo := 0; lo < len(p); lo += crcChunkSize {
		sums = binary.LittleEndian.AppendUint32(sums, crc32.Checksum(p[lo:min(lo+crcChunkSize, len(p))], crcTable))
	}
	want := crc32.Checksum(sums, crcTable)
	if got := payloadChecksum(p); got != want {
		t.Fatalf("three chunks: checksum %08x, want the folded %08x", got, want)
	}
	// Any split into parts checksums as the concatenation: cuts on,
	// next to and away from the chunk boundaries, and empty parts.
	c := crcChunkSize
	for _, cuts := range [][]int{
		{c}, {c - 1}, {c + 1}, {1}, {len(p) - 1}, {0, 0, c, c},
		{100, c - 5, c + 5, 2*c - 1, 2 * c}, {3, c / 2, 3 * c / 2, 2*c + 100},
	} {
		var parts [][]byte
		lo := 0
		for _, cut := range cuts {
			parts = append(parts, p[lo:cut])
			lo = cut
		}
		parts = append(parts, p[lo:])
		if got := payloadChecksum(parts...); got != want {
			t.Fatalf("split at %v: checksum %08x, want %08x", cuts, got, want)
		}
	}
	if got, want := payloadChecksum(one[:c/2], one[c/2:]), crc32.Checksum(one, crcTable); got != want {
		t.Fatalf("one chunk in two parts: checksum %08x, want %08x", got, want)
	}
}

func testPlan() *PlanRecord {
	return &PlanRecord{
		ChunkLen: 100_000,
		Total:    10_000_000,
		Warmup:   5000,
		HitHalt:  true,
		Intervals: []PlanInterval{
			{Start: 0, End: 100_000, Weight: 0.25},
			{Start: 400_000, End: 500_000, Weight: 0.75},
		},
	}
}

// TestFramedEncodingsPinned pins the exact file bytes of each framed kind
// for a fixed record. The four kinds that predate the shared frame keep
// the bytes their per-kind encoders wrote; the trace record (format v3)
// is the small program of fuzzTrace. A changed magic, header
// layout, field order or width changes the hash; the round trips
// elsewhere cannot see that. The result record carries the canonical
// Stats, so a Stats schema bump re-records its pin (schema v2: 644
// bytes), and the trace record carries trace.Entry verbatim, so a
// layout change re-records its pin.
func TestFramedEncodingsPinned(t *testing.T) {
	st := &core.Stats{Cycles: 123, Instructions: 456, L1MissRate: 0.25, SimWallClockNS: 999}
	st.LoadCount[1] = 7
	st.Faults.ValueCorruptions = 3
	for _, c := range []struct {
		kind string
		data []byte
		size int
		want string
	}{
		{"trace", traceKind.encodeFile(fuzzTrace(t)), 312, "8449b07cf9bd98d23225d52bccc659249c0dd1ebc71436c6c3c8b817f5f27af1"},
		{"checkpoint", checkpointKind.encodeFile(testCheckpoint()), 8360, "5ea23a338361be17b603de685bf87202411986971618a55042df6ed5ec7665c9"},
		{"plan", planKind.encodeFile(testPlan()), 100, "9f7db1b63c475789b391158a49ba2667cd820221a0109e31f5c1199b01fe1045"},
		{"result", resultKind.encodeFile(st), 644, "0f4954ffcb4f625f06660f7b7d601fda848ac37950a5d335300965e80251489e"},
		{"warm", warmKind.encodeFile(&WarmRecord{At: 4096, BaseAt: 2048, Payload: []byte("fixed warm payload")}), 46, "7ff5d1386d8011e4c3a3ef1207bdf0f4570d9b81da6a5424f2e249a3f495d7ea"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); len(c.data) != c.size || got != c.want {
			t.Errorf("%s record changed: %d bytes sha256 %s, want %d bytes %s", c.kind, len(c.data), got, c.size, c.want)
		}
	}
}

// TestPlanCountOverflowIsMiss replays a 76-byte plan record whose CRC is
// valid and whose interval count is 2^61+1: 24 times that count wraps to
// 24, so the old length check passed and the decoder panicked in
// makeslice. It must be a counted miss and be dropped instead.
func TestPlanCountOverflowIsMiss(t *testing.T) {
	payload := make([]byte, 64) // fixed fields + room for one interval
	binary.LittleEndian.PutUint64(payload[32:40], 1<<61+1)
	rec := append([]byte("DMDPPLN1"), make([]byte, 4)...)
	binary.LittleEndian.PutUint32(rec[8:12], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	rec = append(rec, payload...)
	if len(rec) != 76 {
		t.Fatalf("record is %d bytes, want 76", len(rec))
	}

	dir := t.TempDir()
	s, err := Open(dir, RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := PlanKey(Key{7}, "auto:4", 1)
	path := s.path(key, planKind.suffix)
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if p, ok := s.LoadPlan(key); ok || p != nil {
		t.Fatalf("hostile plan decoded: %v", p)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("hostile plan not dropped by rw store")
	}
	if c := s.Counters(); c.CheckpointMisses != 1 || c.CheckpointHits != 0 || c.CorruptDropped != 1 {
		t.Fatalf("counters %+v", c)
	}
}

// FuzzFramedDecode feeds mutated bytes to the checkpoint and plan
// decoders. The contract matches FuzzTraceDecode's: any input is a miss
// (nil) or a record that survives a re-encode unchanged — never a panic
// and never an allocation sized by an unchecked count. Each mutation is
// decoded as-is (the magic/CRC gate) and re-signed as both kinds, which
// drives the fuzzer into the payload decoders.
func FuzzFramedDecode(f *testing.F) {
	ck := checkpointKind.encodeFile(testCheckpoint())
	plan := planKind.encodeFile(testPlan())
	for _, valid := range [][]byte{ck, plan} {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:frameHeaderSize])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)-1] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkFramedRoundTrip(t, &checkpointKind, data)
		checkFramedRoundTrip(t, &planKind, data)
		if len(data) < frameHeaderSize {
			return
		}
		for _, magic := range [][8]byte{checkpointMagic, planMagic} {
			patched := append([]byte(nil), data...)
			copy(patched, magic[:])
			binary.LittleEndian.PutUint32(patched[8:12], crc32.Checksum(patched[frameHeaderSize:], crcTable))
			checkFramedRoundTrip(t, &checkpointKind, patched)
			checkFramedRoundTrip(t, &planKind, patched)
		}
	})
}

// checkFramedRoundTrip decodes data as kind k. An accepted record must
// re-encode to bytes that decode and re-encode to the same bytes (byte
// comparison, so a NaN weight is not a false alarm).
func checkFramedRoundTrip[T any](t *testing.T, k *framedKind[T], data []byte) {
	t.Helper()
	v := k.decodeFile(data)
	if v == nil {
		return // a miss is always a fine outcome
	}
	enc := k.encodeFile(v)
	again := k.decodeFile(enc)
	if again == nil || !bytes.Equal(k.encodeFile(again), enc) {
		t.Fatalf("accepted %s record does not survive a re-encode", k.suffix)
	}
}
