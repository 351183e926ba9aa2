package artifact

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"dmdp/internal/asm"
	"dmdp/internal/config"
	"dmdp/internal/emu"
	"dmdp/internal/warm"
)

// fuzzWarmBytes builds a real encoded warm-state record (full-frame
// snapshot captured over a short trace) to seed the corpus.
func fuzzWarmBytes(tb testing.TB) []byte {
	tb.Helper()
	src := "\t.text\nmain:\n\tli $t0, 40\nloop:\n\tsw $t0, 0($gp)\n\tlw $t1, 0($gp)\n\taddi $t0, $t0, -1\n\tbne $t0, $zero, loop\n\thalt\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := emu.Run(prog, 500)
	if err != nil {
		tb.Fatal(err)
	}
	s := warm.New(warm.ConfigFrom(config.Default(config.DMDP)))
	s.UpdateChunk(tr.Entries)
	return warmKind.encodeFile(&WarmRecord{At: int64(len(tr.Entries)), BaseAt: -1, Payload: s.Snapshot()})
}

// FuzzWarmStateDecode feeds mutated DMDPCKP2 bytes to the warm-state
// decoder — the mirror of FuzzTraceDecode. The contract: any input
// yields either a miss (nil, degrading the interval to a cold start) or
// a structurally sound record — never a panic and never silently wrong
// warm state. Each mutation is decoded twice: as-is (exercising the
// magic/CRC gate) and re-signed with a recomputed payload CRC, which
// drives the fuzzer past the checksum into the structural decoder and,
// for full frames, into warm.FromSnapshot's section validation.
func FuzzWarmStateDecode(f *testing.F) {
	valid := fuzzWarmBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])        // truncated mid-payload
	f.Add(valid[:frameHeaderSize])     // header only
	f.Add([]byte{})                    // empty
	f.Add([]byte("DMDPCKP2 not real")) // magic, garbage rest
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	cfg := warm.ConfigFrom(config.Default(config.DMDP))
	check := func(t *testing.T, r *WarmRecord) {
		if r == nil {
			return // a miss is always a fine outcome
		}
		if r.At < 0 {
			t.Fatalf("decoded record at negative boundary %d", r.At)
		}
		if r.BaseAt != -1 && (r.BaseAt < 0 || r.BaseAt >= r.At) {
			t.Fatalf("decoded record has invalid base %d for boundary %d", r.BaseAt, r.At)
		}
		if r.BaseAt != -1 {
			return // a delta is opaque until its base resolves
		}
		// A full frame that FromSnapshot accepts must be canonical: the
		// rebuilt state re-encodes to the same bytes. Anything else would
		// be the "silently wrong warm state" failure mode.
		st, err := warm.FromSnapshot(cfg, r.Payload)
		if err != nil {
			return
		}
		if !bytes.Equal(st.Snapshot(), r.Payload) {
			t.Fatal("accepted snapshot is not a serialize-load fixed point")
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, warmKind.decodeFile(data))

		// Re-sign the mutation so the structural decoder runs.
		if len(data) < frameHeaderSize+warmFixed {
			return
		}
		patched := append([]byte(nil), data...)
		copy(patched[:8], warmMagic[:])
		binary.LittleEndian.PutUint32(patched[8:12], crc32.Checksum(patched[frameHeaderSize:], crcTable))
		check(t, warmKind.decodeFile(patched))
	})
}

// TestWarmRecordRoundTrip pins the store round trip: encode, decode,
// and the loaded record equals the stored one.
func TestWarmRecordRoundTrip(t *testing.T) {
	valid := fuzzWarmBytes(t)
	r := warmKind.decodeFile(valid)
	if r == nil {
		t.Fatal("valid record did not decode")
	}
	again := warmKind.decodeFile(warmKind.encodeFile(r))
	if again == nil || again.At != r.At || again.BaseAt != r.BaseAt || !bytes.Equal(again.Payload, r.Payload) {
		t.Fatal("warm record round trip mismatch")
	}
}
