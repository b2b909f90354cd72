package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/analyze"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/netbuf"
	"repro/internal/remus"
	"repro/internal/vdisk"
	"repro/internal/vmi"
)

// The unrolled epoch: the traced run assembles a protected VM from the
// same public constructors core.New uses and then makes, one by one, the
// calls Controller.RunEpoch makes at an epoch boundary, with one span
// around each. It covers the configurations the workloads use (sync
// audit, scan cache off or on, eager or CoW commit, history, replay) and
// no fault handling — the workloads inject no faults. README.md lists
// every function pinned here; a refactor that renames one re-pins it.

// timedModule wraps a detector module so that each module's share of
// Detector.Scan is timed from outside the detect package, serial or
// concurrent alike.
type timedModule struct {
	detect.Module
	span string // "detect.<module name>"
	ns   atomic.Int64
}

func (m *timedModule) Scan(ctx *detect.ScanContext) ([]detect.Finding, error) {
	start := time.Now()
	fs, err := m.Module.Scan(ctx)
	m.ns.Add(int64(time.Since(start)))
	return fs, err
}

// unrolledVM is one protected VM held together by the harness instead
// of a core.Controller.
type unrolledVM struct {
	p   vmParams
	rec *recorder

	hv    *hv.Hypervisor
	dom   *hv.Domain
	guest *guestos.Guest
	vctx  *vmi.Context
	cache *hv.CachedMapping
	memo  *vmi.WalkMemo
	det   *detect.Detector
	mods  []*timedModule
	buf   *netbuf.Buffer
	ckpt  *checkpoint.Checkpointer
	dirty *mem.Bitmap
	last  *guestos.State
	// history mirrors Config.HistoryDepth retention.
	history []core.HistoryEntry

	load  *guestLoad
	sent  *outputTally
	deliv *tallyDeliverer

	// Out-of-boundary diagnostics: a premapped view of the primary and a
	// stand-alone conduit into a scratch domain.
	view    *hv.GlobalMapping
	conduit *remus.Conduit
	pfns    []mem.PFN

	tot unrolledTotals
}

// unrolledTotals are the exact counters summed over the timed epochs.
type unrolledTotals struct {
	epochs, diags                  int
	dirtyPages, canaries, nodes    int
	bytesRead, outputs             int
	cacheHits, cacheMisses         int
	memoHits, memoMisses           int
	armed                          int
	faults                         uint64
	diagNodes, diagDirty, sentPage int
}

func (t *unrolledTotals) add(o unrolledTotals) {
	t.epochs += o.epochs
	t.diags += o.diags
	t.dirtyPages += o.dirtyPages
	t.canaries += o.canaries
	t.nodes += o.nodes
	t.bytesRead += o.bytesRead
	t.outputs += o.outputs
	t.cacheHits += o.cacheHits
	t.cacheMisses += o.cacheMisses
	t.memoHits += o.memoHits
	t.memoMisses += o.memoMisses
	t.armed += o.armed
	t.faults += o.faults
	t.diagNodes += o.diagNodes
	t.diagDirty += o.diagDirty
	t.sentPage += o.sentPage
}

func wireMode(m core.RemusMode) remus.Mode {
	switch m {
	case core.RemusDelta:
		return remus.ModeDelta
	case core.RemusDeltaDedup:
		return remus.ModeDeltaDedup
	default:
		return remus.ModeRaw
	}
}

// launchUnrolled mirrors core.New step by step.
func launchUnrolled(p vmParams, seed int64, rec *recorder) (*unrolledVM, error) {
	if p.core.ScanCache == core.ScanCacheUncached || p.core.Scan == core.ScanAsync {
		return nil, errors.New("unrolled epoch: uncached and async audits are not pinned")
	}
	u := &unrolledVM{p: p, rec: rec, sent: &outputTally{}, deliv: &tallyDeliverer{}}
	u.hv = hv.New(p.frames(1))
	var err error

	rec.begin("hv.create_domain")
	u.dom, err = u.hv.CreateDomain("guest", p.pages)
	rec.end()
	if err != nil {
		return nil, err
	}
	rec.begin("guestos.boot")
	u.guest, err = guestos.Boot(u.dom, guestos.BootConfig{Seed: seed, CanaryCapacity: p.canaryCap})
	rec.end()
	if err != nil {
		return nil, err
	}
	u.dirty = mem.NewBitmap(p.pages)

	var reader vmi.PhysReader = u.dom
	if p.core.ScanCache == core.ScanCacheOn {
		u.cache = hv.NewCachedMapping(u.dom, p.core.ScanCacheCapacity)
		reader = u.cache
	}
	rec.begin("vmi.init_preprocess")
	u.vctx, err = vmi.NewContext(reader, u.guest.Profile(), u.guest.SystemMap())
	if err == nil {
		err = u.vctx.Preprocess()
	}
	rec.end()
	if err != nil {
		return nil, err
	}
	if u.cache != nil {
		u.memo = vmi.NewWalkMemo()
		u.vctx.SetMemo(u.memo)
	}

	var mods []detect.Module
	for _, m := range defaultModules() {
		tm := &timedModule{Module: m, span: "detect." + m.Name()}
		u.mods = append(u.mods, tm)
		mods = append(mods, tm)
	}
	u.det = detect.NewDetector(mods...)
	u.det.SetWorkers(p.core.Workers)
	u.buf = netbuf.New(netbuf.Synchronous, u.deliv)
	u.guest.SetOutputSink(u.buf)

	rec.begin("checkpoint.new")
	u.ckpt, err = checkpoint.NewWithParams(u.hv, u.dom, checkpoint.Params{
		Opt: p.core.Opt, Workers: p.core.Workers,
		Remus: wireMode(p.core.Remus), RemusBudgetPages: p.core.RemusBudgetPages,
	})
	rec.end()
	if err != nil {
		return nil, err
	}
	if p.diskBlocks > 0 {
		disk := vdisk.New(p.diskBlocks)
		u.guest.AttachDisk(disk)
		if err := u.ckpt.AttachDisk(disk); err != nil {
			return nil, err
		}
	}
	if p.core.CoW {
		if err := u.ckpt.EnableCoW(); err != nil {
			return nil, err
		}
	}
	if p.remote {
		if err := u.ckpt.EnableRemoteReplication(replicationKey); err != nil {
			return nil, err
		}
	}
	u.last = u.guest.CloneState()
	u.load = newGuestLoad(p, subSeed(seed, 0), u.sent)
	return u, nil
}

// outcome is what one unrolled epoch did.
type outcome struct {
	dirtyPages int
	findings   []detect.Finding
	pin        *pinpoint
	replayed   int
	rendered   string
}

// diagMode selects the timed calls an epoch makes after its boundary,
// outside the boundary's spans.
type diagMode int

const (
	// diagWalks times the word scan over the epoch's harvested bitmap and
	// each VMI walk on a forked context. Cheap (tens of microseconds), so
	// the timed pass can afford it on a sample of epochs.
	diagWalks diagMode = 1 << iota
	// diagShip ships the epoch's dirty pages through a stand-alone
	// conduit into a scratch domain. It takes as long as a real shipment,
	// which would hand a pipelined shipper idle time it does not get in
	// the measured run, so only the side pass does it.
	diagShip
)

// epoch runs one epoch the way Controller.RunEpoch does. inject, when
// set, runs as guest work after the load generator's.
func (u *unrolledVM) epoch(tag byte, inject func(*guestos.Guest) error, diag diagMode) (outcome, error) {
	var out outcome
	rec := u.rec
	rec.epoch++
	// Write faults on the previous commit's armed pages land during work.
	armedBefore, faultsBefore := u.ckpt.CoWStats().ArmedPages, u.dom.WriteFaults()
	u.guest.BeginEpoch()
	rec.begin("guestos.work")
	err := u.load.runEpoch(u.guest, tag)
	if err == nil && inject != nil {
		err = inject(u.guest)
	}
	rec.end()
	if err != nil {
		return out, err
	}
	// An error below abandons the run, so open spans are not unwound.
	if inject != nil {
		rec.begin("incident")
	} else {
		rec.begin("boundary")
	}
	rec.begin("hv.pause_suspend")
	if err = u.dom.Pause(); err == nil {
		err = u.dom.Suspend()
	}
	rec.end()
	if err != nil {
		return out, err
	}
	rec.begin("hv.harvest_dirty")
	err = u.dom.HarvestDirty(u.dirty)
	rec.end()
	if err != nil {
		return out, err
	}

	var cacheBefore hv.ScanCacheStats
	var memoBefore vmi.MemoStats
	if u.cache != nil {
		cacheBefore, memoBefore = u.cache.Stats(), u.memo.Stats()
		rec.begin("hv.scancache.invalidate")
		u.cache.Invalidate(u.dirty)
		rec.end()
		rec.begin("vmi.memo.invalidate")
		u.memo.Invalidate(u.dirty)
		rec.end()
	}

	sc := &detect.ScanCounts{}
	bytesBefore := u.vctx.Stats().BytesRead
	rec.begin("detect.scan")
	out.findings, err = u.det.Scan(&detect.ScanContext{
		VMI: u.vctx, Dirty: u.dirty, Counts: sc,
		Packets: u.buf.PendingPackets(), DiskWrites: u.buf.PendingDisks(),
	})
	var off time.Duration
	for _, m := range u.mods {
		d := time.Duration(m.ns.Swap(0))
		rec.child(m.span, off, d)
		off += d
	}
	rec.end()
	if err != nil {
		return out, err
	}
	u.tot.nodes += sc.NodesWalked
	u.tot.canaries += sc.CanariesChecked
	u.tot.bytesRead += u.vctx.Stats().BytesRead - bytesBefore
	if u.cache != nil {
		cd, md := u.cache.Stats().Sub(cacheBefore), u.memo.Stats().Sub(memoBefore)
		u.tot.cacheHits += cd.Hits
		u.tot.cacheMisses += cd.Misses
		u.tot.memoHits += md.Hits
		u.tot.memoMisses += md.Misses
	}

	if len(out.findings) > 0 {
		err = u.respond(&out)
		rec.end() // incident
		return out, err
	}

	if u.p.core.CoW {
		// The commit settles the previous epoch's lazy copies on entry;
		// calling Quiesce first changes nothing but makes that cost its
		// own span.
		rec.begin("checkpoint.cow.quiesce")
		err = u.ckpt.Quiesce()
		rec.end()
		if err != nil {
			return out, err
		}
	}
	rec.begin("checkpoint.commit")
	counts, err := u.ckpt.CheckpointBitmap(u.dirty)
	t := u.ckpt.LastReport().Timings
	off = 0
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"checkpoint.scan", t.Scan}, {"checkpoint.undo", t.Undo}, {"checkpoint.memcopy", t.MemCopy},
		{"checkpoint.diskcopy", t.DiskCopy}, {"checkpoint.remote_ship", t.RemoteShip},
	} {
		if ph.d > 0 {
			rec.child(ph.name, off, ph.d)
			off += ph.d
		}
	}
	rec.end()
	if err != nil {
		return out, err
	}
	out.dirtyPages = counts.DirtyPages

	released := u.buf.Released()
	rec.begin("netbuf.release")
	u.buf.Release()
	rec.end()
	rec.begin("guestos.clone_state")
	u.last = u.guest.CloneState()
	rec.end()
	if depth := u.p.core.HistoryDepth; depth > 0 {
		rec.begin("hv.dump_memory")
		err = u.ckpt.Quiesce()
		var snap *hv.Snapshot
		if err == nil {
			snap, err = u.ckpt.Backup().DumpMemory()
		}
		rec.end()
		if err != nil {
			return out, err
		}
		u.history = append(u.history, core.HistoryEntry{Epoch: rec.epoch, Snapshot: snap, State: u.guest.CloneState()})
		if len(u.history) > depth {
			u.history = u.history[len(u.history)-depth:]
		}
	}
	rec.begin("hv.resume")
	err = u.dom.Resume()
	rec.end()
	rec.end() // boundary
	if err != nil {
		return out, err
	}

	u.tot.epochs++
	u.tot.dirtyPages += counts.DirtyPages
	u.tot.outputs += u.buf.Released() - released
	u.tot.armed += u.ckpt.CoWStats().ArmedPages - armedBefore
	u.tot.faults += u.dom.WriteFaults() - faultsBefore
	if diag != 0 {
		return out, u.diagnostics(diag)
	}
	return out, nil
}

// respond mirrors the controller's failed-audit path: discard the
// epoch's outputs, capture dumps, roll back and replay to pinpoint an
// overflow, assemble and render the report.
func (u *unrolledVM) respond(out *outcome) error {
	rec := u.rec
	rec.begin("netbuf.discard")
	u.buf.Discard()
	rec.end()
	if err := u.ckpt.Quiesce(); err != nil {
		return err
	}
	rec.begin("analyze.capture_dumps")
	dumps, err := analyze.CaptureDumps(u.guest, u.ckpt)
	rec.end()
	if err != nil {
		return err
	}
	ops := u.guest.EpochOps()
	var pin *analyze.Pinpoint
	overflow := false
	for _, f := range out.findings {
		overflow = overflow || f.Kind == detect.KindBufferOverflow
	}
	if u.p.core.ReplayOnIncident && overflow {
		rec.begin("analyze.replay_pinpoint")
		pin, err = analyze.ReplayPinpoint(u.guest, u.ckpt, u.last, ops, out.findings)
		rec.end()
		if err != nil && !errors.Is(err, analyze.ErrNotPinpointed) {
			return err
		}
		if pin != nil {
			out.pin = &pinpoint{pid: pin.Op.PID, va: pin.Op.VA}
			out.replayed = int(pin.OpSeq-ops[0].Seq) + 1
			rec.begin("analyze.capture_attack_dump")
			err = dumps.CaptureAttackDump(u.guest)
			rec.end()
			if err != nil {
				return err
			}
		}
	}
	rec.begin("analyze.postmortem")
	report, err := analyze.Postmortem(dumps, out.findings, pin)
	rec.end()
	if err != nil {
		return err
	}
	rec.begin("volatility.render")
	out.rendered = report.Render()
	rec.end()
	return nil
}

// diagnostics makes the timed calls selected by mode, under one "diag"
// span so they are never mistaken for boundary time.
func (u *unrolledVM) diagnostics(mode diagMode) error {
	rec := u.rec
	rec.begin("diag")
	defer rec.end()

	rec.begin("mem.bitmap_scan")
	u.pfns = u.dirty.ScanWords(u.pfns[:0])
	rec.end()
	u.tot.diags++
	u.tot.diagDirty += len(u.pfns)

	if mode&diagWalks != 0 {
		fork := u.vctx.Fork()
		for i, walk := range []struct {
			name string
			call func() error
		}{
			{"vmi.process_list", func() error { _, err := fork.ProcessList(); return err }},
			{"vmi.pid_hash_list", func() error { _, err := fork.PIDHashList(); return err }},
			{"vmi.module_list", func() error { _, err := fork.ModuleList(); return err }},
			{"vmi.syscall_table", func() error { _, err := fork.SyscallTable(); return err }},
			{"vmi.canary_table", func() error { _, err := fork.CanaryTable(); return err }},
		} {
			rec.begin(walk.name)
			err := walk.call()
			rec.end()
			if err != nil {
				return err
			}
			if i == 2 {
				// The three list walks are the ones the cost model prices
				// per node.
				u.tot.diagNodes += fork.Stats().NodesWalked
			}
		}
	}
	if mode&diagShip != 0 {
		if u.conduit == nil {
			if err := u.openConduit(); err != nil {
				return err
			}
		}
		rec.begin("remus.send")
		err := u.conduit.SendCheckpoint(u.pfns, u.view.Page)
		rec.end()
		u.tot.sentPage += len(u.pfns)
		return err
	}
	return nil
}

// openConduit builds the stand-alone replication channel: a scratch
// domain on the same hypervisor, a conduit in the workload's wire mode
// and, for the delta modes, the same initial full synchronisation the
// real remote session starts from, so the version table matches.
func (u *unrolledVM) openConduit() error {
	scratch, err := u.hv.CreateDomain("scratch", u.p.pages)
	if err != nil {
		return err
	}
	if u.view, err = u.hv.MapAll(u.dom); err != nil {
		return err
	}
	mode := wireMode(u.p.core.Remus)
	if u.conduit, err = remus.NewConduitMode(u.hv, scratch, replicationKey, mode, u.p.core.RemusBudgetPages); err != nil {
		return err
	}
	if mode == remus.ModeRaw {
		return nil
	}
	all := make([]mem.PFN, u.p.pages)
	for i := range all {
		all[i] = mem.PFN(i)
	}
	if err := u.conduit.SendCheckpoint(all, u.view.Page); err != nil {
		return fmt.Errorf("stand-alone conduit: initial sync: %w", err)
	}
	return nil
}

// close settles and releases everything the VM holds.
func (u *unrolledVM) close() error {
	var errs []error
	if u.conduit != nil {
		errs = append(errs, u.conduit.Close())
	}
	if u.view != nil {
		u.view.Unmap()
	}
	errs = append(errs, u.ckpt.Close())
	return errors.Join(errs...)
}
