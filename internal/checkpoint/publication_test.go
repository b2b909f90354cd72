package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vdisk"
)

// The copy-on-write publication, exhaustively. Each step of the protocol
// is one critical section under cowState.mu — the copier's stageNext, a
// guest write's handleFault, publish, and committedLocked behind
// ReadCommitted — so with the copier goroutine retired the test makes
// every step itself. Over a three-page set plus one staged disk block it
// runs every sequence of up to four copier steps and guest writes, with
// the first, second or third copy failing or none, and then settles. The
// oracle is sequential: ReadCommitted returns the paused instant's bytes
// at every step until a copy fails, and the previous commit's from then
// on (the set will not be published); after settle the backup's memory
// and disk both equal the paused instant, or settle reports
// ErrConvergence and both equal the previous commit.
func TestCoWPublicationExhaustive(t *testing.T) {
	set := []mem.PFN{2, 5, 7}
	// Event 0 is a copier step; event i > 0 is a guest write to set[i-1].
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
	stopCopier(c)
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

	// The previous commit, published.
	epoch(0x10)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("commit 1: %v", err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatalf("publish commit 1: %v", err)
	}
	prevMem, prevDisk := dump(d), vd.Snapshot()

	// The paused instant of the commit under test.
	epoch(0x40)
	pausedMem, pausedDisk := dump(d), vd.Snapshot()
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("commit 2: %v", err)
	}
	if failAt > 0 {
		inj.FailNth(FaultCopyPage, inj.Calls(FaultCopyPage)+failAt)
	}

	checkCommitted := func(step string) {
		t.Helper()
		want := pausedMem
		if inj.Tripped(FaultCopyPage) > 0 {
			want = prevMem
		}
		for pfn := mem.PFN(0); pfn < pages; pfn++ {
			off := int(pfn) * mem.PageSize
			if got := readCommitted(t, c, pfn); !bytes.Equal(got, want[off:off+mem.PageSize]) {
				t.Fatalf("%s: ReadCommitted(%d) is neither the paused instant's nor, after a lost copy, the previous commit's", step, pfn)
			}
		}
	}
	checkCommitted("after commit")
	for i, e := range seq {
		step := fmt.Sprintf("step %d", i)
		if e == 0 {
			c.cow.stageNext()
		} else {
			// The write trap runs handleFault before the bytes land.
			fillPage(t, d, set[e-1], 0xE0+byte(i))
			if err := vd.WriteBlock(block, 0, []byte{0xE0 + byte(i)}); err != nil {
				t.Fatalf("WriteBlock: %v", err)
			}
		}
		checkCommitted(step)
	}

	err = c.cow.settle()
	lost := inj.Tripped(FaultCopyPage) > 0
	if failAt > 0 && !lost {
		t.Fatal("the copy fault never fired")
	}
	wantMem, wantDisk := pausedMem, pausedDisk
	switch {
	case lost:
		if !errors.Is(err, ErrConvergence) || !fault.IsInjected(err) {
			t.Fatalf("settle after a failed copy = %v, want an injected ErrConvergence", err)
		}
		wantMem, wantDisk = prevMem, prevDisk
	case err != nil:
		t.Fatalf("settle: %v", err)
	}
	if !bytes.Equal(dump(c.Backup()), wantMem) {
		t.Fatalf("backup memory after settle (err=%v) is not the expected commit", err)
	}
	if !bytes.Equal(c.BackupDisk().Snapshot(), wantDisk) {
		t.Fatalf("backup disk after settle (err=%v) is not the expected commit", err)
	}
	for pfn := mem.PFN(0); pfn < pages; pfn++ {
		off := int(pfn) * mem.PageSize
		if got := readCommitted(t, c, pfn); !bytes.Equal(got, wantMem[off:off+mem.PageSize]) {
			t.Fatalf("after settle: ReadCommitted(%d) differs from the backup", pfn)
		}
	}
}
