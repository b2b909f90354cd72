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
// access, and — whatever the error — pages of the backup domain outside
// the declared batch must never change (a rejected record aborts the
// conduit, it does not partially corrupt unrelated state).
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

	f.Fuzz(func(t *testing.T, data []byte) {
		// decode runs data through a fresh decoder and backup domain.
		decode := func(src io.Reader) ([][]byte, error) {
			h := hv.New(fuzzPages + 2)
			backup, err := h.CreateDomain("backup", fuzzPages)
			if err != nil {
				t.Fatalf("CreateDomain: %v", err)
			}
			// Pre-seed recognizable content so corruption is detectable.
			for pfn := 0; pfn < fuzzPages; pfn++ {
				page := bytes.Repeat([]byte{byte(0x10 + pfn)}, mem.PageSize)
				if err := backup.WritePhys(uint64(pfn)*mem.PageSize, page); err != nil {
					t.Fatalf("WritePhys: %v", err)
				}
			}
			c := &Conduit{backup: backup, mode: ModeDeltaDedup}
			// Must not panic, whatever the input.
			decodeErr := c.applyBatchV2(newWireReader(src, nopStream{}), make([]byte, mem.PageSize))

			// The domain must stay fully readable, and on error the decoder
			// must not have touched pages outside what a valid prefix of the
			// batch could legitimately address.
			got := make([][]byte, fuzzPages)
			for pfn := range got {
				got[pfn] = make([]byte, mem.PageSize)
				if err := backup.ReadPhys(uint64(pfn)*mem.PageSize, got[pfn]); err != nil {
					t.Fatalf("ReadPhys pfn %d after decode (err=%v): %v", pfn, decodeErr, err)
				}
			}
			return got, decodeErr
		}
		// How the stream is cut into reads must not matter: a pipe that
		// delivers one byte at a time (every field straddles a refill)
		// decodes to the same pages and the same verdict as one that
		// delivers the whole batch at once.
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
	})
}
