package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/hv"
)

// failAtScan errors on exactly its at-th scan.
type failAtScan struct{ n, at int }

func (m *failAtScan) Name() string { return "fail-at-scan" }
func (m *failAtScan) Scan(*detect.ScanContext) ([]detect.Finding, error) {
	if m.n++; m.n == m.at {
		return nil, errors.New("scanner crashed")
	}
	return nil, nil
}

// An epoch whose audit errors is undone before it commits, so the
// revert diff must keep comparing with the last commit — not with what
// the failed audit saw. Epoch 3 starts a process and its audit errors;
// epoch 4 runs no work and re-audits epoch 3's pages, which differ from
// the commit of epoch 2. A diff against the failed audit's view would
// call them written-then-reverted and halt a clean VM.
func TestAuditErrorUnwindRaisesNoRevert(t *testing.T) {
	ctl, _, _ := newFaultController(t, Config{
		EpochInterval: 20 * time.Millisecond,
		Modules:       []detect.Module{detect.CrossEpochRevertModule{}, &failAtScan{at: 3}},
	})
	for e := 1; e <= 2; e++ {
		if _, err := ctl.RunEpoch(nil); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		_, err := g.StartProcess("app", 0, 8)
		return err
	})
	if err == nil || res.Recovery.Unwind != UnwindResume {
		t.Fatalf("epoch 3: err=%v, want an audit error undone by %q", err, UnwindResume)
	}
	res, err = ctl.RunEpoch(nil)
	if err != nil {
		t.Fatalf("epoch 4: %v", err)
	}
	if res.Incident != nil || len(res.Findings) != 0 || ctl.Halted() {
		t.Fatalf("epoch 4: incident=%v findings=%+v halted=%v, want a clean commit",
			res.Incident != nil, res.Findings, ctl.Halted())
	}
}

// The first epoch already has a commit to diff against — the initial
// synchronization — so a write-then-revert in epoch 1 is caught there.
func TestCrossEpochRevertInFirstEpoch(t *testing.T) {
	h := hv.New(2*guestPages + 16)
	dom, err := h.CreateDomain("guest", guestPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 5})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	victim, err := g.StartProcess("victim", 0, 4)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	ctl, err := New(h, g, Config{
		EpochInterval: 20 * time.Millisecond,
		Modules:       []detect.Module{detect.CrossEpochRevertModule{}},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = ctl.Close() })
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		if err := g.HideProcess(victim); err != nil {
			return err
		}
		return g.UnhideProcess(victim)
	})
	if err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	if res.Incident == nil || len(res.Findings) == 0 {
		t.Fatal("write-then-revert in epoch 1 went unseen")
	}
	for _, f := range res.Findings {
		if f.Kind != detect.KindWriteRevert {
			t.Errorf("finding %+v, want %v", f, detect.KindWriteRevert)
		}
	}
}

// The committed state is held once: the newest history entry is the
// controller's committed state itself, and an epoch undone before its
// commit leaves it alone.
func TestCommittedStateHeldOnce(t *testing.T) {
	ctl, inj, _ := newFaultController(t, Config{
		EpochInterval: 20 * time.Millisecond,
		Modules:       detect.DefaultModules(),
		HistoryDepth:  2,
	})
	if _, err := ctl.RunEpoch(nil); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	hist := ctl.History()
	committed := ctl.CommittedState()
	if hist[len(hist)-1].State != committed {
		t.Fatal("newest history entry holds a copy, not the committed state")
	}
	inj.FailNext(hv.FaultSuspend, 1, false)
	if _, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		_, err := g.StartProcess("app", 0, 8)
		return err
	}); err == nil {
		t.Fatal("suspend fault did not fail the epoch")
	}
	if ctl.CommittedState() != committed {
		t.Fatal("an epoch undone before its commit replaced the committed state")
	}
}
