package checkpoint

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vdisk"
)

// The share, exhaustively. A CoW commit shares a three-page set plus one
// staged disk block with the backup. Then every sequence of up to four
// steps runs — a committed image taken (event 0) or a guest write to
// set[i-1] and the block (event i) — and the guest rewrites the whole set
// for a next commit, in which the first, second or third page's copy
// fault fires, or none. The oracle is sequential: after every step the
// backup's memory and disk, ReadCommitted and every image taken equal
// the paused instant, and the primary reads what the guest wrote. The
// next commit either fails with the backup still at the paused instant,
// and a rollback returns the primary there, or makes the backup the
// primary as it stood; the images never change.
func TestCoWPublicationExhaustive(t *testing.T) {
	set := []mem.PFN{2, 5, 7}
	var seqs [][]int
	var gen func(prefix []int)
	gen = func(prefix []int) {
		seqs = append(seqs, slices.Clone(prefix))
		if len(prefix) == 4 {
			return
		}
		for e := 0; e <= len(set); e++ {
			gen(append(prefix, e))
		}
	}
	gen(nil)
	for _, seq := range seqs {
		for failAt := 0; failAt <= len(set); failAt++ {
			t.Run(fmt.Sprintf("%v/fail=%d", seq, failAt), func(t *testing.T) {
				runPublication(t, set, seq, failAt)
			})
		}
	}
}

// runPublication drives one case of TestCoWPublicationExhaustive.
func runPublication(t *testing.T, set []mem.PFN, seq []int, failAt int) {
	const pages, block = 8, 3
	h := hv.New(2*pages + 4)
	inj := fault.NewInjector()
	h.InjectFaults(inj)
	d, err := h.CreateDomain("vm", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := newCkpt(h, d, cost.Full, 1)
	if err != nil {
		t.Fatalf("NewWithParams: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	vd := vdisk.New(4)
	if err := c.AttachDisk(vd); err != nil {
		t.Fatalf("AttachDisk: %v", err)
	}
	if err := c.EnableCoW(); err != nil {
		t.Fatalf("EnableCoW: %v", err)
	}
	epoch := func(tag byte) {
		for _, pfn := range set {
			fillPage(t, d, pfn, tag+byte(pfn))
		}
		if err := vd.WriteBlock(block, 0, []byte{tag, tag}); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
	}
	dump := func(dom *hv.Domain) []byte {
		s, err := dom.DumpMemory()
		if err != nil {
			t.Fatalf("DumpMemory: %v", err)
		}
		return s.Bytes()
	}

	// The commit before, then the paused instant of the commit under test.
	epoch(0x10)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("commit 1: %v", err)
	}
	epoch(0x40)
	pausedMem, pausedDisk := dump(d), vd.Snapshot()
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("commit 2: %v", err)
	}

	wantPrimary := slices.Clone(pausedMem)
	var images []*hv.Snapshot
	check := func(step string) {
		t.Helper()
		if !bytes.Equal(dump(c.Backup()), pausedMem) || !bytes.Equal(c.BackupDisk().Snapshot(), pausedDisk) {
			t.Fatalf("%s: the backup is not the paused instant", step)
		}
		for pfn := mem.PFN(0); pfn < pages; pfn++ {
			off := int(pfn) * mem.PageSize
			if got := readCommitted(t, c, pfn); !bytes.Equal(got, pausedMem[off:off+mem.PageSize]) {
				t.Fatalf("%s: ReadCommitted(%d) is not the paused instant's", step, pfn)
			}
		}
		for i, snap := range images {
			if !bytes.Equal(snap.Bytes(), pausedMem) {
				t.Fatalf("%s: image %d changed", step, i)
			}
		}
	}
	check("after commit")
	for i, e := range seq {
		step := fmt.Sprintf("step %d", i)
		if e == 0 {
			snap, err := c.Committed()
			if err != nil {
				t.Fatalf("%s: Committed: %v", step, err)
			}
			images = append(images, snap)
		} else {
			fillPage(t, d, set[e-1], 0xE0+byte(i))
			off := int(set[e-1]) * mem.PageSize
			copy(wantPrimary[off:off+mem.PageSize], bytes.Repeat([]byte{0xE0 + byte(i)}, mem.PageSize))
			if err := vd.WriteBlock(block, 0, []byte{0xE0 + byte(i)}); err != nil {
				t.Fatalf("WriteBlock: %v", err)
			}
		}
		check(step)
		if !bytes.Equal(dump(d), wantPrimary) {
			t.Fatalf("%s: the primary does not read what the guest wrote", step)
		}
	}

	epoch(0x70)
	if failAt > 0 {
		inj.FailNth(FaultCopyPage, inj.Calls(FaultCopyPage)+failAt)
	}
	_, err = c.Checkpoint()
	if failAt == 0 {
		if err != nil {
			t.Fatalf("commit 3: %v", err)
		}
		if !bytes.Equal(dump(c.Backup()), dump(d)) || !vdisk.Equal(vd, c.BackupDisk()) {
			t.Fatal("commit 3 left the backup different from the primary")
		}
	} else {
		if err == nil || !fault.IsInjected(err) || inj.Tripped(FaultCopyPage) != 1 {
			t.Fatalf("commit 3 with a copy fault = %v, want one injected failure", err)
		}
		check("failed commit 3")
		if err := c.Rollback(); err != nil {
			t.Fatalf("Rollback: %v", err)
		}
		if !bytes.Equal(dump(d), pausedMem) || !bytes.Equal(vd.Snapshot(), pausedDisk) {
			t.Fatal("rollback did not return the primary to the paused instant")
		}
		check("rollback")
	}
	for i, snap := range images {
		if !bytes.Equal(snap.Bytes(), pausedMem) {
			t.Fatalf("image %d changed by commit 3", i)
		}
	}
}
