package detect

import (
	"testing"

	"repro/internal/guestos"
	"repro/internal/mem"
)

// committedEnv boots a guest with one victim process, commits that
// state (a snapshot stands in for the checkpointer's committed image)
// and starts dirty logging, so the next epoch's writes are what the
// harvested bitmap reports.
func committedEnv(t *testing.T) (*guestos.Guest, *ScanContext, uint32) {
	t.Helper()
	g, sc := newScanEnv(t, guestos.LinuxProfile())
	victim, err := g.StartProcess("victim", 0, 4)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	snap, err := g.Domain().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	sc.Committed = func(pfn mem.PFN, dst []byte) error {
		return snap.ReadPhys(uint64(pfn)*mem.PageSize, dst)
	}
	g.Domain().EnableDirtyLogging()
	harvest(t, g)
	return g, sc, victim
}

// hideRestore unlinks the victim and relinks it, leaving the task-list
// bytes exactly as committed, and harvests the epoch's bitmap.
func hideRestore(t *testing.T, g *guestos.Guest, sc *ScanContext, victim uint32) {
	t.Helper()
	if err := g.HideProcess(victim); err != nil {
		t.Fatalf("HideProcess: %v", err)
	}
	if err := g.UnhideProcess(victim); err != nil {
		t.Fatalf("UnhideProcess: %v", err)
	}
	sc.Dirty = harvest(t, g)
}

// dirtyWatched counts the watched kernel-structure pages the bitmap
// marks dirty.
func dirtyWatched(t *testing.T, sc *ScanContext) int {
	t.Helper()
	spans, err := watchedRegions(sc)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range spans {
		for pa := s[0] &^ (mem.PageSize - 1); pa < s[0]+s[1]; pa += mem.PageSize {
			if sc.Dirty.Test(int(pa / mem.PageSize)) {
				n++
			}
		}
	}
	return n
}

func scanRevert(t *testing.T, sc *ScanContext) []Finding {
	t.Helper()
	fs, err := CrossEpochRevertModule{}.Scan(sc)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return fs
}

// A watched page that was written during the epoch yet ends it
// byte-identical to the last commit is flagged — on the very first
// audit, since the commit, not an earlier audit, is the baseline — and
// only dirty watched pages are.
func TestCrossEpochRevertFlagsDirtyIdenticalPage(t *testing.T) {
	g, sc, victim := committedEnv(t)
	hideRestore(t, g, sc, victim)
	fs := scanRevert(t, sc)
	if len(fs) == 0 {
		t.Fatal("hide-then-restore revert not flagged")
	}
	spans, err := watchedRegions(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		p := int(f.TaskVA / mem.PageSize)
		if f.Kind != KindWriteRevert || f.Module != "cross-epoch-revert" {
			t.Errorf("finding %+v, want a cross-epoch-revert write-revert", f)
		}
		if !sc.Dirty.Test(p) {
			t.Errorf("clean page %d flagged", p)
		}
		watched := false
		for _, s := range spans {
			watched = watched || (f.TaskVA+mem.PageSize > s[0] && f.TaskVA < s[0]+s[1])
		}
		if !watched {
			t.Errorf("page %d is outside the watched kernel structures", p)
		}
		if i > 0 && fs[i-1].TaskVA >= f.TaskVA {
			t.Errorf("findings not in ascending page order: %#x after %#x", f.TaskVA, fs[i-1].TaskVA)
		}
	}
}

// Pages the epoch left changed, and pages it never wrote, are not
// reverts.
func TestCrossEpochRevertIgnoresChangedAndCleanPages(t *testing.T) {
	g, sc, victim := committedEnv(t)
	if _, err := g.StartProcess("newcomer", 0, 4); err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	if err := g.HideProcess(victim); err != nil {
		t.Fatalf("HideProcess: %v", err)
	}
	sc.Dirty = harvest(t, g)
	if dirtyWatched(t, sc) == 0 {
		t.Fatal("the epoch dirtied no watched page")
	}
	if fs := scanRevert(t, sc); len(fs) != 0 {
		t.Fatalf("changed pages flagged: %+v", fs)
	}
	// Every watched page now matches the committed image, but none is
	// dirty: an empty bitmap means no write happened.
	g2, sc2, _ := committedEnv(t)
	sc2.Dirty = harvest(t, g2)
	if fs := scanRevert(t, sc2); len(fs) != 0 {
		t.Fatalf("clean pages flagged: %+v", fs)
	}
}

// A whole image restored and marked dirty leaves every watched page
// dirty-but-identical: that is no attack.
func TestCrossEpochRevertSkipsBlanketDirtyBitmap(t *testing.T) {
	g, sc, victim := committedEnv(t)
	hideRestore(t, g, sc, victim)
	for p := 0; p < sc.Dirty.Len(); p++ {
		sc.Dirty.Set(p)
	}
	if fs := scanRevert(t, sc); len(fs) != 0 {
		t.Fatalf("full bitmap after a restore flagged: %+v", fs)
	}
}

// Without a committed image (asynchronous audit, replay forensics) there
// is nothing to diff against, and without a bitmap nothing was written.
func TestCrossEpochRevertNeedsCommittedImageAndBitmap(t *testing.T) {
	g, sc, victim := committedEnv(t)
	hideRestore(t, g, sc, victim)
	noImage := *sc
	noImage.Committed = nil
	if fs := scanRevert(t, &noImage); len(fs) != 0 {
		t.Fatalf("nil committed reader flagged: %+v", fs)
	}
	noBitmap := *sc
	noBitmap.Dirty = nil
	if fs := scanRevert(t, &noBitmap); len(fs) != 0 {
		t.Fatalf("nil bitmap flagged: %+v", fs)
	}
}
