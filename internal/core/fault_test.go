package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/netbuf"
	"repro/internal/remus"
	"repro/internal/vdisk"
)

// newFaultController builds a controller on a hypervisor with an armed
// (but initially empty) fault injector. The machine is sized for an
// optional remote backup domain.
func newFaultController(t *testing.T, cfg Config) (*Controller, *fault.Injector, *netbuf.CollectDeliverer) {
	t.Helper()
	h := hv.New(4*guestPages + 64)
	inj := fault.NewInjector()
	h.InjectFaults(inj)
	dom, err := h.CreateDomain("guest", guestPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Profile: guestos.LinuxProfile(), Seed: 7})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	out := &netbuf.CollectDeliverer{}
	cfg.Deliverer = out
	ctl, err := New(h, g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = ctl.Close() })
	return ctl, inj, out
}

// TestFaultInjectedEpochs drives RunEpoch into every instrumented
// failure site and asserts the transactional guarantee: after any
// injected fault the domain is Running again (recovered or degraded) or
// deliberately halted with the halt reported, and the next RunEpoch
// behaves correctly.
func TestFaultInjectedEpochs(t *testing.T) {
	cases := []struct {
		name      string
		site      string
		transient bool
		disk      bool // attach a virtual disk
		history   bool // retain checkpoint history
		remote    bool // enable remote replication
		cow       bool // copy-on-write commit
		uncached  bool // audit through per-epoch mappings, so every audit maps pages

		wantErr     bool
		wantUnwind  string
		wantHalt    bool
		wantRetries bool
		wantDegrade bool
		wantWarn    bool
	}{
		{name: "pause-fatal", site: hv.FaultPause, wantErr: true, wantUnwind: UnwindNone},
		{name: "pause-transient", site: hv.FaultPause, transient: true, wantRetries: true},
		{name: "suspend-fatal", site: hv.FaultSuspend, wantErr: true, wantUnwind: UnwindResume},
		{name: "suspend-transient", site: hv.FaultSuspend, transient: true, wantRetries: true},
		{name: "harvest-fatal", site: hv.FaultHarvestDirty, wantErr: true, wantUnwind: UnwindResume},
		{name: "audit-map-fatal", site: hv.FaultMapPage, uncached: true, wantErr: true, wantUnwind: UnwindResume},
		{name: "memory-copy-fatal", site: checkpoint.FaultCopyPage, wantErr: true, wantUnwind: UnwindRollback},
		{name: "disk-copy-fatal", site: vdisk.FaultCopy, disk: true, wantErr: true, wantUnwind: UnwindRollback},
		{name: "resume-fatal", site: hv.FaultResume, wantErr: true, wantUnwind: UnwindHalt, wantHalt: true},
		{name: "resume-transient", site: hv.FaultResume, transient: true, wantRetries: true},
		{name: "history-dump-fatal", site: hv.FaultDump, history: true, wantWarn: true},
		{name: "remote-send-fatal", site: remus.FaultSend, remote: true, wantDegrade: true},
		{name: "remote-send-transient", site: remus.FaultSend, remote: true, transient: true, wantRetries: true},
		// Epoch 2's first page copy fails in the CoW commit, under pause,
		// as in an eager one: the epoch rolls back.
		{name: "cow-copy-fatal", site: checkpoint.FaultCopyPage, cow: true, history: true,
			wantErr: true, wantUnwind: UnwindRollback},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &dirtyRecorder{}
			cfg := Config{
				EpochInterval: 20 * time.Millisecond,
				Modules:       append(detect.DefaultModules(), rec),
			}
			if tc.uncached {
				cfg.ScanCache = ScanCacheUncached
			}
			if tc.disk {
				cfg.DiskBlocks = 16
			}
			if tc.history {
				cfg.HistoryDepth = 2
			}
			if tc.cow {
				cfg.CoW, cfg.Workers = true, 2
			}
			ctl, inj, _ := newFaultController(t, cfg)
			if tc.remote {
				if err := ctl.Checkpointer().EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
					t.Fatalf("EnableRemoteReplication: %v", err)
				}
			}

			var pid uint32
			var bufVA uint64
			var stamp byte
			work := func(g *guestos.Guest) error {
				if pid == 0 {
					var err error
					if pid, err = g.StartProcess("app", 0, 8); err != nil {
						return err
					}
					if bufVA, err = g.Malloc(pid, 4*mem.PageSize); err != nil {
						return err
					}
				}
				// Dirty a few pages so every epoch's commit copies work, with
				// a value of its own so retained history differs per epoch.
				stamp++
				for i := 0; i < 4; i++ {
					if err := g.WriteUser(pid, bufVA+uint64(i*mem.PageSize), []byte{stamp}); err != nil {
						return err
					}
				}
				if tc.disk {
					if err := g.WriteBlock(pid, 1, 0, []byte{0xBE}); err != nil {
						return err
					}
				}
				return g.SendPacket(pid, [4]byte{10, 0, 0, 1}, 80, []byte("out"))
			}

			// Epoch 1: clean, establishes a committed checkpoint.
			if _, err := ctl.RunEpoch(work); err != nil {
				t.Fatalf("clean epoch: %v", err)
			}

			// Epoch 2: the injected fault. The remote cases schedule it by
			// absolute occurrence — send 1 is the initial sync, send 2 epoch
			// 1's ship, send 3 epoch 2's — because a pipelined shipper may
			// still be working on epoch 1's ship when FailNext would count.
			if tc.remote {
				inj.Fail(tc.site, 3, 1, tc.transient)
			} else {
				inj.FailNext(tc.site, 1, tc.transient)
			}
			res, err := ctl.RunEpoch(work)
			// A pipelined ship leaves the pause window: its outcome is
			// reported by the commit that takes its shipment out of the
			// in-flight window — RemoteInFlight commits later, whatever the
			// goroutine scheduling — and the epochs in between are clean.
			if tc.remote && err == nil {
				for lag := res.Commit.RemoteInFlight; lag > 0 && err == nil; lag-- {
					if !res.Recovery.Clean() {
						t.Fatalf("epoch %d needed recovery before the faulted shipment left the window: %+v",
							res.Epoch, res.Recovery)
					}
					res, err = ctl.RunEpoch(work)
				}
			}
			if inj.Tripped(tc.site) == 0 {
				t.Fatalf("fault at %s never fired", tc.site)
			}

			if tc.wantErr {
				if err == nil {
					t.Fatalf("epoch with fatal fault at %s succeeded", tc.site)
				}
				if !fault.IsInjected(err) {
					t.Fatalf("error lost the injected sentinel: %v", err)
				}
				if res == nil {
					t.Fatal("no result returned alongside the epoch error")
				}
				if res.Recovery.Unwind != tc.wantUnwind {
					t.Fatalf("Unwind = %q, want %q (err: %v)", res.Recovery.Unwind, tc.wantUnwind, err)
				}
			} else {
				if err != nil {
					t.Fatalf("epoch with recoverable fault at %s failed: %v", tc.site, err)
				}
				if tc.wantRetries && res.Recovery.Retries == 0 {
					t.Fatalf("no retries recorded for transient fault; rec=%+v rep=%+v calls=%d tripped=%d",
						res.Recovery, ctl.Checkpointer().LastReport(), inj.Calls(tc.site), inj.Tripped(tc.site))
				}
				if tc.wantDegrade {
					if len(res.Recovery.Degradations) == 0 {
						t.Fatalf("no degradation recorded: %+v", res.Recovery)
					}
					if ctl.Checkpointer().Remote() != nil {
						t.Fatal("remote replication still enabled after degradation")
					}
				}
				if tc.wantWarn && len(res.Recovery.Warnings) == 0 {
					t.Fatalf("no warning recorded: %+v", res.Recovery)
				}
			}

			// The core invariant: never a silently stranded domain.
			state := ctl.Guest().Domain().State()
			if tc.wantHalt {
				if !ctl.Halted() {
					t.Fatal("controller not halted after unrecoverable fault")
				}
				if state == hv.StateRunning {
					t.Fatal("domain running despite deliberate halt")
				}
				if _, err := ctl.RunEpoch(nil); !errors.Is(err, ErrHalted) {
					t.Fatalf("RunEpoch after halt: %v, want ErrHalted", err)
				}
				return
			}
			if ctl.Halted() {
				t.Fatal("controller halted after recoverable fault")
			}
			if state != hv.StateRunning {
				t.Fatalf("domain stranded in state %v after %s fault", state, tc.site)
			}
			// Nothing was committed, so the dirty log still holds epoch 2's
			// pages: epoch 3 must audit and commit them.
			failed := ctl.Guest().Domain().DirtyPages(nil)
			if tc.wantErr && len(failed) == 0 {
				t.Fatal("the failed epoch left an empty dirty log")
			}

			// Epoch 3: the follow-up epoch must run cleanly.
			res, err = ctl.RunEpoch(work)
			if err != nil {
				t.Fatalf("follow-up epoch after %s fault: %v", tc.site, err)
			}
			for _, pfn := range failed {
				if !rec.dirty.Test(int(pfn)) {
					t.Fatalf("page %d, dirty when epoch 2 failed, is missing from epoch 3's audit", pfn)
				}
			}
			if res.Counts.DirtyPages != rec.dirty.Count() {
				t.Fatalf("epoch 3 committed %d pages, its audit saw %d", res.Counts.DirtyPages, rec.dirty.Count())
			}
			if res.Incident != nil {
				t.Fatalf("follow-up epoch raised a spurious incident: %+v", res.Findings)
			}
			if !res.Recovery.Clean() {
				t.Fatalf("follow-up epoch needed recovery: %+v", res.Recovery)
			}
			if tc.history {
				checkHistoryRecovers(t, ctl, work)
			}
		})
	}
}

// checkHistoryRecovers follows an hv.dump failure at the second retain
// (epoch 2, just run along with the clean epoch 3): a failed derivation
// keeps its base, so epoch 3's entry is derived from epoch 1's, sharing
// its unchanged pages, and every entry from then on equals a full dump
// of the backup taken right after its epoch.
func checkHistoryRecovers(t *testing.T, ctl *Controller, work func(*guestos.Guest) error) {
	t.Helper()
	hist := ctl.History()
	if len(hist) != 2 || hist[0].Epoch != 1 || hist[1].Epoch != 3 {
		t.Fatalf("history after a failed retain = %v, want epochs 1 and 3", historyEpochs(hist))
	}
	if sharedPages(hist[0].Snapshot, hist[1].Snapshot) == 0 {
		t.Fatal("entry after the failed retain was not derived from the one before it")
	}
	assertBackupImage(t, ctl, hist[1].Snapshot)
	for e := 4; e <= 5; e++ {
		if _, err := ctl.RunEpoch(work); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		hist = ctl.History()
		assertBackupImage(t, ctl, hist[1].Snapshot)
		if sharedPages(hist[0].Snapshot, hist[1].Snapshot) == 0 {
			t.Fatalf("epoch %d: entry was not derived from its predecessor", e)
		}
	}
}

func historyEpochs(hist []HistoryEntry) []int {
	var out []int
	for _, h := range hist {
		out = append(out, h.Epoch)
	}
	return out
}

// sharedPages counts the pages two snapshots hold in common by identity.
func sharedPages(a, b *hv.Snapshot) int {
	n := 0
	for pfn := 0; pfn < a.Pages; pfn++ {
		pa, _ := a.ReadPage(mem.PFN(pfn))
		pb, _ := b.ReadPage(mem.PFN(pfn))
		if &pa[0] == &pb[0] {
			n++
		}
	}
	return n
}

// assertBackupImage checks snap against a full dump of the backup now.
func assertBackupImage(t *testing.T, ctl *Controller, snap *hv.Snapshot) {
	t.Helper()
	full, err := ctl.Checkpointer().Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if snap.VCPU != full.VCPU || !bytes.Equal(snap.Bytes(), full.Bytes()) {
		t.Fatal("retained image differs from a full dump of the backup")
	}
}

// dirtyRecorder is a detector module that keeps a copy of the dirty
// bitmap of the last audit it ran in.
type dirtyRecorder struct{ dirty *mem.Bitmap }

func (r *dirtyRecorder) Name() string { return "dirty-recorder" }
func (r *dirtyRecorder) Scan(ctx *detect.ScanContext) ([]detect.Finding, error) {
	if r.dirty == nil {
		r.dirty = mem.NewBitmap(ctx.Dirty.Len())
	}
	return nil, r.dirty.CopyFrom(ctx.Dirty)
}

// flakyModule fails its first scans, then behaves.
type flakyModule struct{ fails int }

func (m *flakyModule) Name() string { return "flaky" }
func (m *flakyModule) Scan(*detect.ScanContext) ([]detect.Finding, error) {
	if m.fails > 0 {
		m.fails--
		return nil, errors.New("scanner crashed")
	}
	return nil, nil
}

// TestScanErrorResumesAndPreservesDirtyPages covers the paused-domain
// leak: a detector error used to strand the domain Suspended and every
// later call failed with hv.ErrBadState. Now the epoch unwinds — the
// domain resumes, the failed epoch's pages stay in the dirty log so the
// next checkpoint covers them, and the buffered outputs stay withheld
// until an epoch passes its audit.
func TestScanErrorResumesAndPreservesDirtyPages(t *testing.T) {
	ctl, _, out := newFaultController(t, Config{
		EpochInterval: 20 * time.Millisecond,
		Modules:       []detect.Module{&flakyModule{fails: 1}},
	})
	var pid uint32
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		var err error
		if pid, err = g.StartProcess("app", 0, 8); err != nil {
			return err
		}
		return g.SendPacket(pid, [4]byte{10, 0, 0, 1}, 80, []byte("held"))
	})
	if err == nil {
		t.Fatal("scan error did not fail the epoch")
	}
	if res.Recovery.Unwind != UnwindResume {
		t.Fatalf("Unwind = %q, want %q", res.Recovery.Unwind, UnwindResume)
	}
	if st := ctl.Guest().Domain().State(); st != hv.StateRunning {
		t.Fatalf("domain stranded in state %v after scan error", st)
	}
	if pks, _ := out.Snapshot(); len(pks) != 0 {
		t.Fatal("outputs released despite failed audit")
	}

	// The next epoch re-audits and commits everything, including the
	// failed epoch's pages and withheld packet.
	res, err = ctl.RunEpoch(nil)
	if err != nil {
		t.Fatalf("epoch after scan error: %v", err)
	}
	if res.Counts.DirtyPages == 0 {
		t.Fatal("failed epoch's dirty pages lost: nothing recommitted")
	}
	pks, _ := out.Snapshot()
	if len(pks) != 1 || string(pks[0].Payload) != "held" {
		t.Fatalf("withheld packet not released after clean audit: %+v", pks)
	}
}

// TestAsyncScanCountsAccounted covers the lost-accounting bug: in async
// mode the VMI node and canary counts were captured before the deferred
// scan ran, so every epoch reported zero audit work.
func TestAsyncScanCountsAccounted(t *testing.T) {
	ctl, _, _ := newFaultController(t, Config{
		Scan:    ScanAsync,
		Modules: detect.DefaultModules(),
	})
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		_, err := g.StartProcess("app", 0, 4)
		return err
	})
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if res.Counts.VMINodes == 0 {
		t.Fatal("async audit's VMI node count not accounted")
	}
}

// TestRollbackRecommitsEverything: after a mid-commit fault the primary
// is rolled back to the last clean checkpoint by restoring the pages in
// its dirty log, which keeps them. The next commit covers exactly those
// pages and the ones written since — not the whole guest — and leaves
// the backup equal to the primary.
func TestRollbackRecommitsEverything(t *testing.T) {
	ctl, inj, _ := newFaultController(t, Config{
		EpochInterval: 20 * time.Millisecond,
		Modules:       detect.DefaultModules(),
	})
	var pid uint32
	var bufVA uint64
	if _, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		var err error
		if pid, err = g.StartProcess("app", 0, 8); err != nil {
			return err
		}
		bufVA, err = g.Malloc(pid, 4*mem.PageSize)
		return err
	}); err != nil {
		t.Fatalf("clean epoch: %v", err)
	}
	// Fail the commit a few pages in, so the undo log has work to do.
	inj.Fail(checkpoint.FaultCopyPage, inj.Calls(checkpoint.FaultCopyPage)+3, 1, false)
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		for i := 0; i < 4; i++ {
			if err := g.WriteUser(pid, bufVA+uint64(i*mem.PageSize), []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("mid-commit fault did not fail the epoch")
	}
	if res.Recovery.Unwind != UnwindRollback {
		t.Fatalf("Unwind = %q, want %q", res.Recovery.Unwind, UnwindRollback)
	}
	dom := ctl.Guest().Domain()
	restored := dom.DirtyPages(nil)
	if len(restored) == 0 {
		t.Fatal("rollback emptied the dirty log")
	}
	var before []mem.PFN
	res, err = ctl.RunEpoch(func(g *guestos.Guest) error {
		if err := g.WriteUser(pid, bufVA, []byte{0xEE}); err != nil {
			return err
		}
		before = dom.DirtyPages(nil)
		return nil
	})
	if err != nil {
		t.Fatalf("epoch after rollback: %v", err)
	}
	if !isSubset(restored, before) {
		t.Fatalf("restored pages %v left the dirty log before the next commit (%v)", restored, before)
	}
	if res.Counts.DirtyPages != len(before) || len(before) >= guestPages {
		t.Fatalf("post-rollback commit covered %d pages, want the %d restored or written since (guest %d)",
			res.Counts.DirtyPages, len(before), guestPages)
	}
	if n := dom.DirtyCount(); n != 0 {
		t.Fatalf("the commit left %d pages in the dirty log", n)
	}
	primary, err := dom.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	backup, err := ctl.Checkpointer().Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if !bytes.Equal(primary.Bytes(), backup.Bytes()) {
		t.Fatal("backup differs from the primary after the post-rollback commit")
	}
}

// isSubset reports whether every PFN of sub, ascending, is in set,
// ascending.
func isSubset(sub, set []mem.PFN) bool {
	for _, pfn := range sub {
		if _, ok := slices.BinarySearch(set, pfn); !ok {
			return false
		}
	}
	return true
}

// TestRetryBudgetExhaustion: a transient fault that persists past
// maxRetries is treated as fatal and unwinds.
func TestRetryBudgetExhaustion(t *testing.T) {
	ctl, inj, _ := newFaultController(t, Config{
		EpochInterval: 20 * time.Millisecond,
		Modules:       detect.DefaultModules(),
	})
	if _, err := ctl.RunEpoch(nil); err != nil {
		t.Fatalf("clean epoch: %v", err)
	}
	// One transient failure more than the retry budget: the op fails for
	// good.
	inj.FailNext(hv.FaultSuspend, maxRetries+1, true)
	res, err := ctl.RunEpoch(nil)
	if err == nil {
		t.Fatal("epoch succeeded despite exhausted retry budget")
	}
	if res.Recovery.Retries != maxRetries {
		t.Fatalf("Retries = %d, want %d", res.Recovery.Retries, maxRetries)
	}
	if res.Recovery.Unwind != UnwindResume {
		t.Fatalf("Unwind = %q, want %q", res.Recovery.Unwind, UnwindResume)
	}
	if st := ctl.Guest().Domain().State(); st != hv.StateRunning {
		t.Fatalf("domain stranded in state %v", st)
	}
	if _, err := ctl.RunEpoch(nil); err != nil {
		t.Fatalf("follow-up epoch: %v", err)
	}
}

// TestNewReleasesResourcesOnLateFailure covers the constructor leak: a
// step failing after the checkpointer was built (the initial disk sync,
// the CoW switch) used to return nil with the backup domain alive, its
// premapped frames held and the guest's outputs pointed at a buffer
// nobody owned — and the caller had no handle to any of it. The third
// late step, introspecting the backup for the asynchronous audit, shares
// the same unwind but cannot be made to fail from outside: the backup is
// a byte copy of a primary whose own introspection just succeeded.
func TestNewReleasesResourcesOnLateFailure(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		site string // fault site to fail once, if any
	}{
		{name: "disk-sync", cfg: Config{DiskBlocks: 16}, site: vdisk.FaultCopy},
		{name: "enable-cow", cfg: Config{CoW: true, Opt: cost.Memcpy}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := hv.New(2*guestPages + 16)
			inj := fault.NewInjector()
			h.InjectFaults(inj)
			dom, err := h.CreateDomain("guest", guestPages)
			if err != nil {
				t.Fatalf("CreateDomain: %v", err)
			}
			g, err := guestos.Boot(dom, guestos.BootConfig{Profile: guestos.LinuxProfile(), Seed: 7})
			if err != nil {
				t.Fatalf("Boot: %v", err)
			}
			doms0, free0 := h.DomainCount(), h.Machine().FreeFrames()
			if tc.site != "" {
				inj.Fail(tc.site, 1, 1, false)
			}
			tc.cfg.Modules = detect.DefaultModules()
			tc.cfg.Workers = 1
			if ctl, err := New(h, g, tc.cfg); err == nil {
				ctl.Close()
				t.Fatal("New survived a failing late step")
			}
			if tc.site != "" && inj.Tripped(tc.site) != 1 {
				t.Fatalf("fault at %s fired %d times, want once", tc.site, inj.Tripped(tc.site))
			}
			if got := h.DomainCount(); got != doms0 {
				t.Errorf("DomainCount = %d after failed New, want %d (backup leaked)", got, doms0)
			}
			if got := h.Machine().FreeFrames(); got != free0 {
				t.Errorf("FreeFrames = %d after failed New, want %d (frames leaked)", got, free0)
			}
			if g.Disk() != nil {
				t.Error("failed New left a disk attached to the guest")
			}
			// The guest is untouched: a corrected retry must succeed.
			ctl, err := New(h, g, Config{Modules: detect.DefaultModules(), Workers: 1, DiskBlocks: tc.cfg.DiskBlocks})
			if err != nil {
				t.Fatalf("retry New: %v", err)
			}
			defer ctl.Close()
			if _, err := ctl.RunEpoch(dirtyingWork(t)); err != nil {
				t.Fatalf("epoch after retried New: %v", err)
			}
		})
	}
}
