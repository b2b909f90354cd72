package remus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/hv"
	"repro/internal/mem"
)

// restoreStage is the restore process's staging area. A batch's records
// are decoded into staging pages, never into the backup; after the
// batch's last record publish exchanges them into the backup's frames in
// one all-or-nothing step (hv.Domain.Exchange), and only then is the
// batch acknowledged. So the backup holds exactly one acknowledged
// checkpoint at every instant: a malformed, truncated or tampered batch
// changes no page, wherever its bad record sits. The staging pages come
// from the backup's spares, and the pages they replace go back to them:
// the restore goroutine is the backup's only writer until Handoff.
type restoreStage struct {
	backup *hv.Domain
	pfns   []mem.PFN   // the batch's staged pages, in arrival order until publish
	pages  []*mem.Page // pages[i] holds pfns[i]'s staged contents; one more may wait as the next slot
	sorted bool        // pfns arrived ascending, as every sender ships them
}

// slot is the staging page of the next record, which add stages as pfn.
// A record that stages nothing leaves it for the next one.
func (s *restoreStage) slot() []byte {
	if len(s.pages) == len(s.pfns) {
		s.pages = append(s.pages, s.backup.Spares().Take())
	}
	return s.pages[len(s.pfns)][:]
}

func (s *restoreStage) add(pfn mem.PFN) {
	if n := len(s.pfns); n > 0 && pfn <= s.pfns[n-1] {
		s.sorted = false
	}
	s.pfns = append(s.pfns, pfn)
}

// lastShipped copies pfn's last-shipped contents into dst: the page
// staged earlier in this batch, or else the backup's current frame.
func (s *restoreStage) lastShipped(pfn mem.PFN, dst []byte) error {
	i, ok := slices.BinarySearch(s.pfns, pfn)
	if !s.sorted {
		i = slices.Index(s.pfns, pfn)
		ok = i >= 0
	}
	if ok {
		copy(dst, s.pages[i][:])
		return nil
	}
	return s.backup.ReadPhys(uint64(pfn)*mem.PageSize, dst)
}

// readsZero reports whether pfn already reads zero (lastShipped, read
// into the free staging page scratch). A zero page onto it — opZero, or
// a raw zero page — stages nothing, as opSame: a full sync into a fresh
// domain stages, and gives frames to, only the pages that hold data.
func (s *restoreStage) readsZero(pfn mem.PFN, scratch []byte) (bool, error) {
	if err := s.lastShipped(pfn, scratch); err != nil {
		return false, err
	}
	return bytes.Equal(scratch, zeroPage[:]), nil
}

// publish exchanges the staged batch into the backup. The exchange
// rejects a PFN staged twice, so such a batch changes nothing either.
func (s *restoreStage) publish() error {
	if !s.sorted {
		sort.Sort(s)
	}
	return s.backup.Exchange(s.pfns, s.pages[:len(s.pfns)])
}

// Len, Less and Swap order the staged batch by PFN, pages alongside.
func (s *restoreStage) Len() int           { return len(s.pfns) }
func (s *restoreStage) Less(i, j int) bool { return s.pfns[i] < s.pfns[j] }
func (s *restoreStage) Swap(i, j int) {
	s.pfns[i], s.pfns[j] = s.pfns[j], s.pfns[i]
	s.pages[i], s.pages[j] = s.pages[j], s.pages[i]
}

// apply restores one batch (stage, then publish) and gives the staging
// pages the backup's frames did not take back to its spares: the waiting
// slot, or every page of a batch that fails.
func (s *restoreStage) apply(r wireReader, v2 bool) error {
	err := s.stage(r, v2)
	if err == nil {
		err = s.publish()
	}
	taken := 0
	if err == nil {
		taken = len(s.pfns)
	}
	s.backup.Spares().Give(s.pages[taken:]...)
	clear(s.pages)
	s.pages = s.pages[:0]
	return err
}

// stage decodes one batch: a 4-byte count, then per page an 8-byte PFN
// and — on the v2 wire — an opcode and its payload; v1 records are raw
// pages. It fails closed: a count beyond the domain (rejected before
// anything is staged), out-of-range PFNs, bad opcodes, oversized deltas
// and truncated records all return an error before the batch is
// published.
func (s *restoreStage) stage(r wireReader, v2 bool) error {
	hdr, err := r.next(4)
	if err != nil {
		return err
	}
	count, pages := binary.LittleEndian.Uint32(hdr), uint64(s.backup.Pages())
	if uint64(count) > pages {
		return fmt.Errorf("remus: restore: batch of %d pages exceeds domain's %d", count, pages)
	}
	s.pfns, s.sorted = s.pfns[:0], true
	head := 8
	if v2 {
		head = 9
	}
	for i := uint32(0); i < count; i++ {
		rec, err := r.next(head)
		if err != nil {
			return fmt.Errorf("remus: restore: record header: %w", err)
		}
		pfn, op := binary.LittleEndian.Uint64(rec[:8]), byte(opRaw)
		if v2 {
			op = rec[8]
		}
		if pfn >= pages {
			return fmt.Errorf("remus: restore: pfn %d out of range", pfn)
		}
		if op == opSame {
			continue // no payload: the backup already holds this page
		}
		page := s.slot()
		switch op {
		case opZero:
			zero, err := s.readsZero(mem.PFN(pfn), page)
			if err != nil {
				return err
			}
			if zero {
				continue
			}
			clear(page)
		case opRaw:
			raw, err := r.next(mem.PageSize)
			if err != nil {
				return fmt.Errorf("remus: restore: raw page: %w", err)
			}
			if bytes.Equal(raw, zeroPage[:]) {
				zero, err := s.readsZero(mem.PFN(pfn), page)
				if err != nil {
					return err
				}
				if zero {
					continue
				}
			}
			copy(page, raw)
		case opDelta:
			ln, err := r.next(2)
			if err != nil {
				return fmt.Errorf("remus: restore: delta length: %w", err)
			}
			n := int(binary.LittleEndian.Uint16(ln))
			if n >= mem.PageSize {
				return fmt.Errorf("remus: restore: %d-byte delta not shorter than a page", n)
			}
			delta, err := r.next(n)
			if err != nil {
				return fmt.Errorf("remus: restore: delta payload: %w", err)
			}
			if err := s.backup.ReadPhys(pfn*mem.PageSize, page); err != nil {
				return err
			}
			if err := applyDelta(page, delta); err != nil {
				return err
			}
		case opDup:
			refb, err := r.next(8)
			if err != nil {
				return fmt.Errorf("remus: restore: dup reference: %w", err)
			}
			ref := binary.LittleEndian.Uint64(refb)
			if ref >= pages {
				return fmt.Errorf("remus: restore: dup reference pfn %d out of range", ref)
			}
			if err := s.lastShipped(mem.PFN(ref), page); err != nil {
				return err
			}
		default:
			return fmt.Errorf("remus: restore: bad opcode %#x", op)
		}
		s.add(mem.PFN(pfn))
	}
	return nil
}
