package remus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hv"
	"repro/internal/mem"
)

// newFailingConduitPair is newModeConduitPair for a test that kills the
// restore side on purpose: Close's report of the recorded cause is
// expected, not a failure.
func newFailingConduitPair(t *testing.T, pages int, mode Mode) (*hv.Hypervisor, *hv.Domain, *hv.Domain, *Conduit) {
	t.Helper()
	h := hv.New(2*pages + 4)
	primary, err := h.CreateDomain("primary", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	backup, err := h.CreateDomain("backup", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := NewConduitMode(h, backup, []byte("0123456789abcdef"), mode, 0)
	if err != nil {
		t.Fatalf("NewConduitMode: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return h, primary, backup, c
}

// A replica holds exactly one commit. On both wires, a batch whose first,
// middle or last record is malformed, cut short or tampered with on the
// wire leaves the replica equal, byte for byte, to the previous
// acknowledged commit — including the pages of the records before the
// bad one, which an in-place restore would already have written.
func TestReplicaHoldsExactlyOneCommit(t *testing.T) {
	const pages = 16
	batch := []mem.PFN{1, 4, 6, 9, 12}
	for _, mode := range []Mode{ModeRaw, ModeDeltaDedup} {
		// Every page of the batch is fresh random content, so each v2
		// record is raw: 8-byte PFN, opcode, page.
		recLen, opOff := 8+mem.PageSize, -1
		if mode != ModeRaw {
			recLen, opOff = 9+mem.PageSize, 8
		}
		for _, bad := range []string{"malformed", "truncated", "tampered"} {
			for _, at := range []struct {
				name string
				i    int
			}{{"first", 0}, {"middle", len(batch) / 2}, {"last", len(batch) - 1}} {
				t.Run(fmt.Sprintf("%v/%s/%s", mode, bad, at.name), func(t *testing.T) {
					h, primary, backup, c := newFailingConduitPair(t, pages, mode)
					rng := rand.New(rand.NewSource(int64(at.i)))
					fill := func(pfns []mem.PFN) {
						page := make([]byte, mem.PageSize)
						for _, pfn := range pfns {
							rng.Read(page)
							if err := primary.WritePhys(uint64(pfn)*mem.PageSize, page); err != nil {
								t.Fatalf("WritePhys: %v", err)
							}
						}
					}
					all := make([]mem.PFN, pages)
					for i := range all {
						all[i] = mem.PFN(i)
					}
					fill(all)
					if err := c.SendCheckpoint(all, pageReader(h, primary)); err != nil {
						t.Fatalf("previous commit: %v", err)
					}
					prev, err := backup.DumpMemory()
					if err != nil {
						t.Fatalf("DumpMemory: %v", err)
					}

					fill(batch)
					rec := 4 + at.i*recLen // the bad record's offset in the batch
					sendErr := error(nil)
					switch bad {
					case "tampered":
						// v1: the PFN's top byte, sending it out of range; v2:
						// the opcode, which no longer decodes.
						if mode == ModeRaw {
							c.TamperNextBatch(rec+7, 0x80)
						} else {
							c.TamperNextBatch(rec+opOff, 0x55)
						}
						_, sendErr = c.Send(batch, pageReader(h, primary))
					default:
						wire := binary.LittleEndian.AppendUint32(nil, uint32(len(batch)))
						page := make([]byte, mem.PageSize)
						for _, pfn := range batch {
							if err := primary.ReadPhys(uint64(pfn)*mem.PageSize, page); err != nil {
								t.Fatalf("ReadPhys: %v", err)
							}
							wire = binary.LittleEndian.AppendUint64(wire, uint64(pfn))
							if mode != ModeRaw {
								wire = append(wire, opRaw)
							}
							wire = append(wire, page...)
						}
						if bad == "truncated" {
							wire = wire[:rec+recLen/2]
						} else if mode == ModeRaw {
							binary.LittleEndian.PutUint64(wire[rec:], pages)
						} else {
							wire[rec+opOff] = 0x09
						}
						c.mu.Lock()
						c.enc.XORKeyStream(wire, wire)
						_, _ = c.conn.Write(wire) // the restore side may hang up first
						if bad == "truncated" {
							_ = c.conn.Close()
						}
						c.mu.Unlock()
					}
					if sendErr == nil {
						if err := c.AwaitAck(); err == nil {
							t.Fatal("a batch with a bad record was acknowledged")
						}
					}
					now, err := backup.DumpMemory()
					if err != nil {
						t.Fatalf("DumpMemory: %v", err)
					}
					if !bytes.Equal(now.Bytes(), prev.Bytes()) {
						t.Fatal("the replica no longer equals the previous acknowledged commit")
					}
				})
			}
		}
	}
}

// A duplicate reference reads the page as the sender last shipped it:
// one staged earlier in the same batch when there is one — in whatever
// order the batch lists its pages — else the backup's current frame.
func TestDupReadsPageStagedEarlierInBatch(t *testing.T) {
	fresh := bytes.Repeat([]byte{0xAB}, mem.PageSize)
	dup := func(ref uint64) []byte { return binary.LittleEndian.AppendUint64(nil, ref) }
	for _, tc := range []struct {
		name  string
		batch []byte
		want  map[uint64]byte // pfn -> every byte; others keep their seed
	}{
		{"ascending", fuzzBatch(fuzzRecord(2, opRaw, fresh...), fuzzRecord(4, opDup, dup(2)...), fuzzRecord(5, opDup, dup(6)...)),
			map[uint64]byte{2: 0xAB, 4: 0xAB, 5: 0x16}},
		{"descending", fuzzBatch(fuzzRecord(6, opRaw, fresh...), fuzzRecord(3, opDup, dup(6)...), fuzzRecord(1, opDup, dup(0)...)),
			map[uint64]byte{6: 0xAB, 3: 0xAB, 1: 0x10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := hv.New(fuzzPages + 2)
			backup, err := h.CreateDomain("backup", fuzzPages)
			if err != nil {
				t.Fatalf("CreateDomain: %v", err)
			}
			for pfn := 0; pfn < fuzzPages; pfn++ {
				if err := backup.WritePhys(uint64(pfn)*mem.PageSize, bytes.Repeat([]byte{byte(0x10 + pfn)}, mem.PageSize)); err != nil {
					t.Fatalf("WritePhys: %v", err)
				}
			}
			s := &restoreStage{backup: backup}
			if err := s.apply(newWireReader(bytes.NewReader(tc.batch), nopStream{}), true); err != nil {
				t.Fatalf("apply: %v", err)
			}
			got := make([]byte, mem.PageSize)
			for pfn := uint64(0); pfn < fuzzPages; pfn++ {
				want, ok := tc.want[pfn]
				if !ok {
					want = byte(0x10 + pfn)
				}
				if err := backup.ReadPhys(pfn*mem.PageSize, got); err != nil {
					t.Fatalf("ReadPhys: %v", err)
				}
				if !bytes.Equal(got, bytes.Repeat([]byte{want}, mem.PageSize)) {
					t.Fatalf("pfn %d does not hold %#x", pfn, want)
				}
			}
		})
	}
}

// The initial full sync stages the whole guest, but the restore pool does
// not keep it: after the sync and through small steady-state batches it
// holds no more than restoreSpare staging pages, and the replica still
// converges.
func TestRestorePoolNotGuestSizedAfterInitialSync(t *testing.T) {
	const pages = 4 * restoreSpare
	for _, mode := range []Mode{ModeRaw, ModeDeltaDedup} {
		t.Run(mode.String(), func(t *testing.T) {
			h, primary, backup, c := newModeConduitPair(t, pages, mode, 0)
			all := make([]mem.PFN, pages)
			for i := range all {
				all[i] = mem.PFN(i)
				if err := primary.WritePhys(uint64(i)*mem.PageSize, []byte{byte(i), byte(i >> 8), 1}); err != nil {
					t.Fatalf("WritePhys: %v", err)
				}
			}
			if err := c.SendCheckpoint(all, pageReader(h, primary)); err != nil {
				t.Fatalf("initial sync: %v", err)
			}
			// The ack follows the publication, so the pool is settled here.
			if n := len(c.staging.pool); n > restoreSpare {
				t.Fatalf("restore pool holds %d pages after a %d-page initial sync, want <= %d", n, pages, restoreSpare)
			}
			for e := 0; e < 5; e++ {
				pfns := []mem.PFN{mem.PFN(e), mem.PFN(3*e + 1), mem.PFN(pages - 1 - e)}
				for _, pfn := range pfns {
					if err := primary.WritePhys(uint64(pfn)*mem.PageSize+9, []byte{byte(e), 7}); err != nil {
						t.Fatalf("WritePhys: %v", err)
					}
				}
				if err := c.SendCheckpoint(pfns, pageReader(h, primary)); err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if n := len(c.staging.pool); n > restoreSpare {
					t.Fatalf("epoch %d: restore pool holds %d pages", e, n)
				}
			}
			domainPagesEqual(t, primary, backup, pages)
		})
	}
}

// A raw batch longer than rawChunk goes out in several writes and arrives
// as the one batch it is: the replica converges, and a tamper aimed past
// the first write flips exactly the byte it names.
func TestRawBatchWrittenInChunks(t *testing.T) {
	const pages = 2*rawChunk + 88
	h, primary, backup, c := newModeConduitPair(t, pages, ModeRaw, 0)
	all := make([]mem.PFN, pages)
	for i := range all {
		all[i] = mem.PFN(i)
		if err := primary.WritePhys(uint64(i)*mem.PageSize, []byte{byte(i), byte(i >> 8), 0x5A}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	if err := c.SendCheckpoint(all, pageReader(h, primary)); err != nil {
		t.Fatalf("SendCheckpoint: %v", err)
	}
	domainPagesEqual(t, primary, backup, pages)

	const victim, at = rawChunk + 44, 9 // a page in the second write, a byte in it
	c.TamperNextBatch(4+victim*(8+mem.PageSize)+8+at, 0x01)
	if err := c.SendCheckpoint(all, pageReader(h, primary)); err != nil {
		t.Fatalf("tampered SendCheckpoint: %v", err)
	}
	want := make([]byte, mem.PageSize)
	got := make([]byte, mem.PageSize)
	for pfn := uint64(0); pfn < pages; pfn++ {
		if err := primary.ReadPhys(pfn*mem.PageSize, want); err != nil {
			t.Fatalf("ReadPhys: %v", err)
		}
		if pfn == victim {
			want[at] ^= 0x01
		}
		if err := backup.ReadPhys(pfn*mem.PageSize, got); err != nil {
			t.Fatalf("ReadPhys: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pfn %d: the replica does not hold the tampered batch byte for byte", pfn)
		}
	}
}
