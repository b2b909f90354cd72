package remus

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/hv"
	"repro/internal/mem"
)

// nopStream is an identity cipher.Stream: fuzz inputs are treated as
// already-decrypted wire bytes, which is the interesting layer (CTR
// decryption cannot fail, it only permutes bytes).
type nopStream struct{}

func (nopStream) XORKeyStream(dst, src []byte) { copy(dst, src) }

const fuzzPages = 8

// fuzzBatch assembles a syntactically valid v2 batch for the seed
// corpus.
func fuzzBatch(records ...[]byte) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(records)))
	for _, r := range records {
		b = append(b, r...)
	}
	return b
}

func fuzzRecord(pfn uint64, op byte, payload ...byte) []byte {
	r := binary.LittleEndian.AppendUint64(nil, pfn)
	r = append(r, op)
	return append(r, payload...)
}

// FuzzRestoreDecodeV2 feeds arbitrary bytes through the v2 restore
// decoder. The decoder must fail closed: no panic, no out-of-bounds
// access, and a rejected batch changes no page of the backup — the batch
// is staged and exchanged whole or not at all, wherever the bad record
// sits.
func FuzzRestoreDecodeV2(f *testing.F) {
	rawPage := bytes.Repeat([]byte{0xAB}, mem.PageSize)
	changed := make([]byte, mem.PageSize)
	copy(changed, []byte{1, 2, 3})
	delta, _ := encodeDelta(nil, make([]byte, mem.PageSize), changed)
	deltaPayload := append(binary.LittleEndian.AppendUint16(nil, uint16(len(delta))), delta...)

	f.Add(fuzzBatch()) // empty batch
	f.Add(fuzzBatch(fuzzRecord(2, opRaw, rawPage...)))
	f.Add(fuzzBatch(fuzzRecord(1, opDelta, deltaPayload...)))
	f.Add(fuzzBatch(fuzzRecord(0, opSame), fuzzRecord(3, opZero)))
	f.Add(fuzzBatch(fuzzRecord(4, opDup, binary.LittleEndian.AppendUint64(nil, 2)...)))
	f.Add(fuzzBatch(fuzzRecord(5, 0x09)))                                                  // bad opcode
	f.Add(fuzzBatch(fuzzRecord(99, opSame)))                                               // pfn out of range
	f.Add(fuzzBatch(fuzzRecord(4, opDup, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF))) // ref out of range
	f.Add(fuzzBatch(fuzzRecord(1, opDelta, 0xFF, 0xFF)))                                   // oversized delta length
	f.Add(fuzzBatch(fuzzRecord(1, opDelta, 4, 0, 0x80, 0x80)))                             // malformed varints
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))                               // absurd count
	f.Add(fuzzBatch(fuzzRecord(2, opRaw, 1, 2, 3)))                                        // truncated raw payload
	f.Add([]byte{1, 0})                                                                    // truncated header
	// Streams that end inside the restore side's read buffer: mid record
	// header, mid payload, between records, one byte short.
	whole := fuzzBatch(fuzzRecord(2, opRaw, rawPage...), fuzzRecord(1, opDelta, deltaPayload...),
		fuzzRecord(4, opDup, binary.LittleEndian.AppendUint64(nil, 2)...), fuzzRecord(3, opZero))
	for _, cut := range []int{4 + 5, 4 + 9 + 100, 4 + 9 + mem.PageSize, 4 + 9 + mem.PageSize + 9 + 1,
		4 + 9 + mem.PageSize + 9 + 2 + len(delta) + 9 + 3, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	// A dup of a page staged earlier in the batch, a descending batch, and
	// a page staged twice.
	f.Add(fuzzBatch(fuzzRecord(2, opRaw, rawPage...), fuzzRecord(4, opDup, binary.LittleEndian.AppendUint64(nil, 2)...)))
	f.Add(fuzzBatch(fuzzRecord(3, opZero), fuzzRecord(1, opRaw, rawPage...)))
	f.Add(fuzzBatch(fuzzRecord(1, opZero), fuzzRecord(1, opRaw, rawPage...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRestore(t, data, true)
	})
}

// FuzzRestoreV1 is FuzzRestoreDecodeV2 for the raw v1 restore: whatever
// the bytes — a count beyond the domain, an out-of-range PFN, a record
// cut short — it must not panic, and a rejected batch changes no page.
func FuzzRestoreV1(f *testing.F) {
	rec := func(pfn uint64, fill byte) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, pfn), bytes.Repeat([]byte{fill}, mem.PageSize)...)
	}
	whole := fuzzBatch(rec(1, 0xA1), rec(4, 0xA4), rec(6, 0xA6))
	f.Add(fuzzBatch())
	f.Add(whole)
	f.Add(fuzzBatch(rec(6, 0xA6), rec(2, 0xA2)))                             // descending
	f.Add(fuzzBatch(rec(3, 0xA3), rec(3, 0xB3)))                             // pfn staged twice
	f.Add(fuzzBatch(rec(1, 0xA1), rec(99, 0xA9)))                            // pfn out of range
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))                 // absurd count
	f.Add(binary.LittleEndian.AppendUint32(nil, fuzzPages+1))                // one page beyond the domain
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 2), rec(1, 0xA1)...)) // one record short
	for _, cut := range []int{2, 4 + 3, 4 + 8 + 100, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRestore(t, data, false)
	})
}

// fuzzRestore runs one fuzz input through a restore decoder twice — fed
// whole, and one byte per read, so every field straddles a refill — over
// a fresh backup domain with recognizable pages. The two must agree on
// the verdict and the pages, and a rejected batch must leave every page
// as it was.
func fuzzRestore(t *testing.T, data []byte, v2 bool) {
	seed := func(pfn int) []byte { return bytes.Repeat([]byte{byte(0x10 + pfn)}, mem.PageSize) }
	decode := func(src io.Reader) ([][]byte, error) {
		h := hv.New(fuzzPages + 2)
		backup, err := h.CreateDomain("backup", fuzzPages)
		if err != nil {
			t.Fatalf("CreateDomain: %v", err)
		}
		for pfn := 0; pfn < fuzzPages; pfn++ {
			if err := backup.WritePhys(uint64(pfn)*mem.PageSize, seed(pfn)); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
		}
		// Must not panic, whatever the input.
		decodeErr := (&restoreStage{backup: backup}).apply(newWireReader(src, nopStream{}), v2)
		got := make([][]byte, fuzzPages)
		for pfn := range got {
			got[pfn] = make([]byte, mem.PageSize)
			if err := backup.ReadPhys(uint64(pfn)*mem.PageSize, got[pfn]); err != nil {
				t.Fatalf("ReadPhys pfn %d after decode (err=%v): %v", pfn, decodeErr, err)
			}
			if decodeErr != nil && !bytes.Equal(got[pfn], seed(pfn)) {
				t.Fatalf("rejected batch (%v) changed pfn %d", decodeErr, pfn)
			}
		}
		return got, decodeErr
	}
	bulk, bulkErr := decode(bytes.NewReader(data))
	drip, dripErr := decode(iotest.OneByteReader(bytes.NewReader(data)))
	if (bulkErr == nil) != (dripErr == nil) {
		t.Fatalf("verdict depends on read sizes: bulk err=%v, byte-wise err=%v", bulkErr, dripErr)
	}
	for pfn := range bulk {
		if !bytes.Equal(bulk[pfn], drip[pfn]) {
			t.Fatalf("pfn %d depends on read sizes (bulk err=%v, byte-wise err=%v)", pfn, bulkErr, dripErr)
		}
	}
}
