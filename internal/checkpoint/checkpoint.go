// Package checkpoint implements the CRIMES Checkpointer (§3.1, §4.1):
// continuous checkpointing of a primary domain into a local backup
// domain, with the paper's three optimizations selectable independently:
//
//	No-opt:  Remus path — per-epoch foreign mapping of dirty pages,
//	         serialization through an encrypted socket to a Restore
//	         process, bit-by-bit dirty bitmap scan.
//	Memcpy:  Optimization 1 — direct in-memory copy into the backup
//	         domain's frames (maps both VMs' pages each epoch).
//	Pre-map: Optimization 2 — the full PFN-to-MFN mapping of both VMs
//	         resolved once at startup into flat arrays.
//	Full:    Optimization 3 — word-granularity dirty bitmap scanning.
package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/remus"
	"repro/internal/vdisk"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("checkpoint: checkpointer closed")

// FaultCopyPage is the fault-injection site for the per-page step of a
// commit that shares the dirty pages with the backup (Memcpy, Premap,
// Full). Every page passes it before any is shared, so an armed fault
// fails the commit with the backup untouched.
const FaultCopyPage = "checkpoint.copypage"

// maxRemoteRetries bounds in-commit retries of transiently failing
// remote checkpoint ships before replication degrades to local-only.
const maxRemoteRetries = 3

// maxShipsInFlight bounds the pipelined remote-replication window: at
// most this many checkpoints may be enqueued behind the resumed guest
// awaiting the remote backup's acknowledgement. When the window is
// full the next commit blocks until the oldest shipment drains, so an
// unreachable remote applies backpressure instead of unbounded queueing.
const maxShipsInFlight = 2

// Checkpointer keeps a backup domain synchronized with a primary by
// handing it the dirty pages at every epoch boundary. The backup is
// always the most recent clean snapshot (the paper keeps it on the local
// host for security rather than remote for availability).
type Checkpointer struct {
	hv      *hv.Hypervisor
	primary *hv.Domain
	backup  *hv.Domain
	opt     cost.Optimization

	// remusMode selects the conduits' wire protocol (raw v1 by
	// default); remusBudget bounds the sender-side shipped-version
	// table in the delta modes.
	remusMode   remus.Mode
	remusBudget int

	// workers is the pause-path parallelism: the dirty-bitmap scan and
	// the remote-shipment snapshot shard across this many goroutines over
	// disjoint PFN ranges, the disk-block stage overlaps the memory stage,
	// and remote replication is pipelined out of the pause window
	// entirely. workers == 1 is the exact serial path.
	workers int

	dirty   *mem.Bitmap
	scratch []mem.PFN

	// Cached every-page index slice, built lazily for the initial remote
	// sync.
	allPages []mem.PFN

	// Premap/Full: global mappings built once.
	gmPrimary *hv.GlobalMapping
	gmBackup  *hv.GlobalMapping

	// No-opt: encrypted socket conduit to the restore process.
	conduit *remus.Conduit

	// Disk-snapshot extension (§3.1): when attached, the disk's dirty
	// blocks are copied into diskStaging at each checkpoint, exchanged
	// into the backup disk with the memory set, and rolled back with
	// memory.
	disk        *vdisk.Disk
	backupDisk  *vdisk.Disk
	diskStaging *vdisk.Disk
	diskScratch []mem.PFN

	// Remote replication (§4.1: "If users desire both high availability
	// and security, CRIMES could be configured to perform remote
	// checkpoints"): dirty pages are additionally shipped over an
	// encrypted conduit to a second, remote backup domain. remoteHV is
	// the hypervisor hosting that domain — c.hv for the classic
	// same-host remote, a peer host's hypervisor when the cluster
	// control plane places the replica anti-affine.
	remote        *hv.Domain
	remoteConduit *remus.Conduit
	remoteHV      *hv.Hypervisor

	// Pipelined remote shipping (workers > 1): the ship is
	// availability-only, so it leaves the pause window — committed page
	// data is snapshotted from the backup and handed to a shipper
	// goroutine. The in-flight window is bounded: a commit that would
	// overfill it first settles the oldest shipment (see settleShipment),
	// which is the only point a commit ever waits for the shipper.
	// shipFree holds the snapshot buffers of settled shipments for reuse;
	// drained totals the shipments settled outside any commit.
	shipCh   chan shipment
	shipRes  chan shipResult
	shipDone chan struct{}
	inFlight int
	shipFree []shipment
	drained  ShipReport

	// The current commit's exact v2 wire accounting, per conduit: summed
	// from what each Send returned, never read off a conduit under the
	// lock a concurrent Send holds.
	localRepl, remoteRepl cost.ReplicationCounts

	// Copy-on-write accounting (EnableCoW); nil on the eager paths.
	cow *cowState

	// image is Committed's last result, nil until the first call;
	// published marks the pages the backup has taken since.
	image     *hv.Snapshot
	published mem.Bitmap

	report CommitReport

	// closeMu serializes Close so a double close — including concurrent
	// closes from a fleet teardown racing a test's deferred cleanup — is
	// a strict no-op.
	closeMu sync.Mutex
	closed  bool

	// Observability (nil/inert when disabled).
	obsr  *obs.Observer
	obsVM string
	met   ckptMetrics
}

// ckptMetrics are the checkpointer's pre-resolved metric handles; all
// nil (inert) without a metrics registry.
type ckptMetrics struct {
	scanNs, undoNs, memcopyNs, diskcopyNs, shipNs *obs.Histogram
	inFlight                                      *obs.Gauge
	acked, retries, degraded                      *obs.Counter
}

// SetObserver wires the observability layer into the checkpointer and
// its replication conduits. vm labels this VM's metric series. Safe to
// call once, before the first instrumented commit.
func (c *Checkpointer) SetObserver(o *obs.Observer, vm string) {
	if !o.Enabled() {
		return
	}
	c.obsr = o
	c.obsVM = vm
	reg := o.Registry()
	phaseHist := func(phase string) *obs.Histogram {
		return reg.Histogram("crimes_commit_phase_ns", obs.DurationBuckets(), "vm", vm, "phase", phase)
	}
	c.met = ckptMetrics{
		scanNs:     phaseHist("scan"),
		undoNs:     phaseHist("undo"),
		memcopyNs:  phaseHist("memcopy"),
		diskcopyNs: phaseHist("diskcopy"),
		shipNs:     phaseHist("remoteship"),
		inFlight:   reg.Gauge("crimes_remote_inflight", "vm", vm),
		acked:      reg.Counter("crimes_remote_acked_total", "vm", vm),
		retries:    reg.Counter("crimes_remote_ship_retries_total", "vm", vm),
		degraded:   reg.Counter("crimes_remote_degraded_total", "vm", vm),
	}
	c.conduit.SetObserver(o, vm)
	c.remoteConduit.SetObserver(o, vm)
}

// observeCommit folds the just-finished commit attempt's report into
// the metric series.
func (c *Checkpointer) observeCommit() {
	t := c.report.Timings
	c.met.scanNs.ObserveDuration(int64(t.Scan))
	c.met.undoNs.ObserveDuration(int64(t.Undo))
	c.met.memcopyNs.ObserveDuration(int64(t.MemCopy))
	if t.DiskCopy > 0 {
		c.met.diskcopyNs.ObserveDuration(int64(t.DiskCopy))
	}
	if t.RemoteShip > 0 {
		c.met.shipNs.ObserveDuration(int64(t.RemoteShip))
	}
	c.met.inFlight.Set(int64(c.inFlight))
	c.met.acked.Add(int64(c.report.RemoteAcked))
	c.met.retries.Add(int64(c.report.RemoteRetries))
}

// CommitReport describes the recovery events and measured phase
// timings of the most recent checkpoint commit attempt.
type CommitReport struct {
	// RemoteRetries counts transient remote-ship failures retried during
	// the commit, plus the retries of the pipelined shipments this commit
	// settled.
	RemoteRetries int
	// RemoteDegraded is true when remote replication was disabled
	// during the commit after a persistent failure.
	RemoteDegraded bool
	// Warnings records non-fatal anomalies, such as the degradation.
	Warnings []string
	// Timings are the real wall-clock durations of the commit's phases.
	Timings PhaseTimings
	// RemoteInFlight is the number of pipelined remote shipments still
	// awaiting acknowledgement when the commit returned.
	RemoteInFlight int
	// RemoteAcked counts the acknowledged pipelined shipments this commit
	// settled: the one that had to leave the full window, or the whole
	// window when replication degraded.
	RemoteAcked int
}

// ShipReport totals the outcome of settled pipelined remote shipments.
type ShipReport struct {
	// Acked counts shipments the remote backup acknowledged.
	Acked int
	// Retries counts transient send failures the shipper retried.
	Retries int
	// Repl is the shipments' exact v2 wire accounting (zero in raw mode).
	Repl cost.ReplicationCounts
}

// Drained totals the pipelined shipments settled outside any commit — by
// Close, DetachRemote or DisableRemoteReplication. A shipment's outcome
// is reported exactly once: in the CommitReport (and Counts.RemoteRepl)
// of the commit that settled it, or here.
func (c *Checkpointer) Drained() ShipReport { return c.drained }

// PhaseTimings is the measured wall-clock breakdown of one commit's
// pause-path phases. Virtual-time pricing lives in internal/cost; these
// are the substrate's real timings, surfaced so the parallel speedup is
// observable per epoch.
type PhaseTimings struct {
	// Workers is the parallelism the commit ran with.
	Workers int
	// Scan is the dirty-bitmap scan.
	Scan time.Duration
	// Undo reads ~0: no commit keeps an undo log, since nothing reaches
	// a backup before its set is published whole, so the phase times no
	// work. It stays for the traced benchmark's checkpoint.undo.
	Undo time.Duration
	// MemCopy is the memory stage (the copy fault pass, at Memcpy with
	// the epoch's mapping) plus the publication of memory and disk: the
	// share and the block exchange, at No-opt the conduit's round trip.
	// No page is copied in it; the guest copies a shared page on its
	// next write.
	MemCopy time.Duration
	// DiskCopy is the dirty-block copy into staging; with workers > 1 it
	// overlaps MemCopy.
	DiskCopy time.Duration
	// RemoteShip is the remote-replication time spent inside the
	// commit: the full encrypted round trip when serial, only the
	// snapshot/enqueue (plus any window backpressure) when pipelined.
	RemoteShip time.Duration
}

// LastReport returns the recovery report of the most recent commit
// attempt.
func (c *Checkpointer) LastReport() CommitReport { return c.report }

// Params configures a checkpointer.
type Params struct {
	// Opt is the paper's optimization level.
	Opt cost.Optimization
	// Workers is the pause-path parallelism; <= 1 is the serial path.
	Workers int
	// Remus selects the replication conduits' wire protocol. The zero
	// value (remus.ModeRaw) is the v1 seed path, bit-for-bit.
	Remus remus.Mode
	// RemusBudgetPages bounds the delta modes' sender-side
	// shipped-version table; <= 0 is unbounded.
	RemusBudgetPages int
}

// NewWithParams creates a checkpointer for the primary domain: it
// allocates the backup domain (doubling the VM's memory cost, §3.3, for
// the pages the guest has written: frames are demand-zero) and performs
// the initial full synchronization. It is the only constructor.
func NewWithParams(h *hv.Hypervisor, primary *hv.Domain, p Params) (*Checkpointer, error) {
	if p.Workers < 1 {
		p.Workers = 1
	}
	backup, err := h.CreateDomain(primary.Name()+"-backup", primary.Pages())
	if err != nil {
		return nil, fmt.Errorf("checkpoint: create backup: %w", err)
	}
	c := &Checkpointer{
		hv:          h,
		primary:     primary,
		backup:      backup,
		opt:         p.Opt,
		remusMode:   p.Remus,
		remusBudget: p.RemusBudgetPages,
		workers:     p.Workers,
		dirty:       mem.NewBitmap(primary.Pages()),
		scratch:     make([]mem.PFN, 0, primary.Pages()),
	}
	opt := p.Opt
	// Any failure below must release everything acquired so far — in
	// particular the backup domain, whose machine frames would otherwise
	// leak with no handle left to destroy them.
	fail := func(err error) (*Checkpointer, error) {
		if c.gmPrimary != nil {
			c.gmPrimary.Unmap()
		}
		if c.gmBackup != nil {
			c.gmBackup.Unmap()
		}
		if c.conduit != nil {
			_ = c.conduit.Close()
		}
		_ = h.DestroyDomain(backup.ID())
		return nil, err
	}
	switch {
	case opt >= cost.Premap:
		if c.gmPrimary, err = h.MapAll(primary); err != nil {
			return fail(fmt.Errorf("checkpoint: premap primary: %w", err))
		}
		if c.gmBackup, err = h.MapAll(backup); err != nil {
			return fail(fmt.Errorf("checkpoint: premap backup: %w", err))
		}
	case opt == cost.NoOpt:
		key := []byte("crimes-remus-key")
		if c.conduit, err = remus.NewConduitMode(h, backup, key, c.remusMode, c.remusBudget); err != nil {
			return fail(err)
		}
	}
	// Initial synchronization, as live migration's final stop-and-copy:
	// the pages the fresh backup does not already hold. A page the primary
	// never wrote reads zero there too, so only written pages are shared.
	// The No-opt conduit still ships every page: its sender's
	// shipped-version table learns each one, as a remote replica's does,
	// and its restore stages none that reads zero on both sides.
	primary.EnableDirtyLogging()
	if c.conduit != nil {
		primary.MarkAllDirty()
	} else {
		primary.MarkWrittenDirty()
	}
	if _, err := c.Checkpoint(); err != nil {
		return fail(fmt.Errorf("checkpoint: initial sync: %w", err))
	}
	return c, nil
}

// AttachDisk enables disk checkpointing for the primary's block device:
// the backup disk is allocated and fully synchronized.
func (c *Checkpointer) AttachDisk(d *vdisk.Disk) error {
	if c.closed {
		return ErrClosed
	}
	c.disk = d
	c.backupDisk, c.diskStaging = vdisk.New(d.Blocks()), vdisk.New(d.Blocks())
	d.InjectFaults(c.hv.Faults())
	c.backupDisk.InjectFaults(c.hv.Faults())
	d.EnableDirtyLogging()
	d.MarkAllDirty()
	blocks := d.HarvestDirty(nil)
	if err := d.CopyBlocksTo(c.backupDisk, blocks); err != nil {
		return fmt.Errorf("checkpoint: initial disk sync: %w", err)
	}
	d.CleanDirty(blocks)
	return nil
}

// BackupDisk returns the backup block device, or nil.
func (c *Checkpointer) BackupDisk() *vdisk.Disk { return c.backupDisk }

// EnableRemoteReplication adds Remus-style high availability on top of
// the local security checkpoints: every epoch's dirty pages are also
// shipped, encrypted, to a remote backup domain. This restores the
// availability guarantee CRIMES trades away by keeping its backup local
// (§4.1), at the cost of paying the socket path again.
func (c *Checkpointer) EnableRemoteReplication(key []byte) error {
	return c.EnableRemoteReplicationOn(c.hv, c.primary.Name()+"-remote", key)
}

// EnableRemoteReplicationOn is EnableRemoteReplication with an explicit
// placement: the replica domain is created (under the given name) on
// peer, which may be a different host's hypervisor. The conduit's
// restore side stages each batch and exchanges it into the replica
// domain, so the wire protocol is unchanged; only where the replica lives
// differs. The
// cluster control plane uses this to keep each VM's replica anti-affine
// to its primary.
func (c *Checkpointer) EnableRemoteReplicationOn(peer *hv.Hypervisor, name string, key []byte) error {
	if c.closed {
		return ErrClosed
	}
	if c.remote != nil {
		return errors.New("checkpoint: remote replication already enabled")
	}
	remote, err := peer.CreateDomain(name, c.primary.Pages())
	if err != nil {
		return fmt.Errorf("checkpoint: create remote backup: %w", err)
	}
	conduit, err := remus.NewConduitMode(c.hv, remote, key, c.remusMode, c.remusBudget)
	if err != nil {
		// The remote domain must not leak when the conduit to it cannot
		// be established.
		_ = peer.DestroyDomain(remote.ID())
		return err
	}
	c.remote = remote
	c.remoteConduit = conduit
	c.remoteHV = peer
	if c.obsr != nil {
		conduit.SetObserver(c.obsr, c.obsVM)
	}
	// Initial full sync of the remote (always synchronous: replication
	// is not active until the remote holds a complete snapshot).
	if err := c.ship(c.remoteConduit, &c.remoteRepl, c.allPFNs()); err != nil {
		// Unwind completely: replication never became active.
		_ = conduit.Close()
		_ = peer.DestroyDomain(remote.ID())
		c.remote, c.remoteConduit, c.remoteHV = nil, nil, nil
		return fmt.Errorf("checkpoint: initial remote sync: %w", err)
	}
	return nil
}

// Remote returns the remote backup domain, or nil.
func (c *Checkpointer) Remote() *hv.Domain { return c.remote }

// TamperRemoteWire arms a one-shot man-in-the-middle mutation on the
// remote replication conduit: the next shipped batch has one ciphertext
// byte XORed with mask at the given wire offset. Scenario harness only —
// it models an attacker on the replication network. Raw-mode streams
// silently apply the flipped plaintext to the remote backup; the v2
// decoder is fail-closed and kills the channel instead, which surfaces
// as a remote-replication degradation at the next commit.
func (c *Checkpointer) TamperRemoteWire(offset int, mask byte) error {
	if c.remoteConduit == nil {
		return fmt.Errorf("checkpoint: tamper remote wire: no remote replication session")
	}
	c.remoteConduit.TamperNextBatch(offset, mask)
	return nil
}

// RemoteHV returns the hypervisor hosting the remote backup domain, or
// nil when remote replication is off.
func (c *Checkpointer) RemoteHV() *hv.Hypervisor { return c.remoteHV }

// DetachRemote settles the replication session and hands the remote
// backup domain to the caller, which takes ownership. Outstanding
// pipelined shipments are drained first — bytes already on the wire
// land — so the returned domain holds exactly the last committed,
// acknowledged checkpoint. This is the promotion hook: after the
// primary's host dies, the cluster adopts the returned replica as the
// VM's new primary. An error means the session could not be settled
// cleanly (the replica may be stale) and promotion must not proceed.
func (c *Checkpointer) DetachRemote() (*hv.Domain, error) {
	if c.remote == nil {
		return nil, errors.New("checkpoint: no remote replication session")
	}
	if err := c.drainShipper(); err != nil {
		c.degradeRemote(err)
		return nil, fmt.Errorf("checkpoint: detach remote: drain shipper: %w", err)
	}
	dom := c.remote
	conduit := c.remoteConduit
	c.remote, c.remoteConduit, c.remoteHV = nil, nil, nil
	if _, err := conduit.Handoff(); err != nil {
		return nil, fmt.Errorf("checkpoint: detach remote: %w", err)
	}
	return dom, nil
}

// DisableRemoteReplication tears the remote session down — conduit
// closed, replica domain destroyed — without recording a degradation.
// The cluster uses it when the host holding a VM's replica dies and a
// fresh replica must be re-armed elsewhere; the destroy on the dead
// host's hypervisor is bookkeeping only.
func (c *Checkpointer) DisableRemoteReplication() error {
	if c.remote == nil {
		return nil
	}
	shipErr := c.drainShipper()
	closeErr := c.remoteConduit.Close()
	destroyErr := c.remoteHV.DestroyDomain(c.remote.ID())
	c.remote, c.remoteConduit, c.remoteHV = nil, nil, nil
	return errors.Join(shipErr, closeErr, destroyErr)
}

// ship sends the primary's dirty pages, mapped for this batch only,
// through a conduit and waits for the ack, adding the wire accounting to
// into: No-opt's local commit and the serial remote replication.
func (c *Checkpointer) ship(conduit *remus.Conduit, into *cost.ReplicationCounts, dirty []mem.PFN) error {
	fmP, err := c.hv.MapForeign(c.primary, dirty)
	if err != nil {
		return err
	}
	defer fmP.Unmap()
	return sendAcked(conduit, into, dirty, fmP.Page)
}

// sendAcked is Conduit.SendCheckpoint that also adds the batch's wire
// accounting to into.
func sendAcked(conduit *remus.Conduit, into *cost.ReplicationCounts, pfns []mem.PFN, page func(mem.PFN) ([]byte, error)) error {
	stats, err := conduit.Send(pfns, page)
	if err != nil {
		return err
	}
	into.Add(stats)
	return conduit.AwaitAck()
}

// Backup returns the backup domain holding the most recent clean
// snapshot.
func (c *Checkpointer) Backup() *hv.Domain { return c.backup }

// Primary returns the protected domain.
func (c *Checkpointer) Primary() *hv.Domain { return c.primary }

// ReadCommitted copies page pfn of the last committed memory image into
// dst (one page): the image Rollback would restore, which the backup
// holds from the moment a commit returns.
func (c *Checkpointer) ReadCommitted(pfn mem.PFN, dst []byte) error {
	return c.backup.ReadPhys(uint64(pfn)*mem.PageSize, dst[:mem.PageSize])
}

// Committed returns the memory image of the last commit, which Rollback
// restores and forensics reads. No page is copied: the image aliases the
// backup's pages, which no one writes in place (see publishMemory). The
// first call aliases the whole backup; each later one derives from the
// previous image, taking only the pages published since. The image is
// then held for the checkpointer's life, and past it; a failed derivation
// keeps it as the base. Under CoW it ends the last commit's write
// accounting first (disarmCoW).
func (c *Checkpointer) Committed() (*hv.Snapshot, error) {
	c.disarmCoW()
	if c.image == nil {
		snap, err := c.backup.AliasMemory()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: committed image: %w", err)
		}
		c.image, c.published = snap, *mem.NewBitmap(snap.Pages)
		return snap, nil
	}
	// The commit's scan buffer is sized to the guest and free between commits.
	c.scratch = c.published.ScanWords(c.scratch[:0])
	if len(c.scratch) == 0 {
		return c.image, nil
	}
	snap, err := c.backup.AliasDirty(c.image, c.scratch)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: committed image: %w", err)
	}
	c.published.ClearAll()
	c.image = snap
	return snap, nil
}

// notePublished records pages a commit has just made the backup's, for
// Committed to take; nothing is noted before the first image.
func (c *Checkpointer) notePublished(pages []mem.PFN) {
	if c.image == nil {
		return
	}
	for _, pfn := range pages {
		c.published.Set(int(pfn))
	}
}

// Domains returns every domain this checkpointer touches: the primary,
// the local backup, and the remote backup when remote replication is
// enabled. A fleet uses it to charge a VM's full checkpointing
// footprint (backups included) to that VM, and to reclaim every domain
// on teardown.
func (c *Checkpointer) Domains() []*hv.Domain {
	ds := []*hv.Domain{c.primary, c.backup}
	if c.remote != nil {
		ds = append(ds, c.remote)
	}
	return ds
}

// Optimization returns the active optimization level.
func (c *Checkpointer) Optimization() cost.Optimization { return c.opt }

// Workers returns the pause-path parallelism.
func (c *Checkpointer) Workers() int { return c.workers }

// SetWorkers retunes the pause-path parallelism between epochs (values
// below 1 force the exact serial path). An SLO controller uses this to
// spend parallelism against the commit pause at runtime; changing it
// mid-commit is not supported.
func (c *Checkpointer) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.workers = n
}

// allPFNs returns the cached every-page index slice, building it on
// first use.
func (c *Checkpointer) allPFNs() []mem.PFN {
	if c.allPages == nil {
		c.allPages = make([]mem.PFN, c.primary.Pages())
		for i := range c.allPages {
			c.allPages[i] = mem.PFN(i)
		}
	}
	return c.allPages
}

// runSharded splits n items into at most c.workers contiguous shards
// and runs fn(lo, hi) over each shard concurrently. Shards are disjoint
// index ranges, so workers never alias pages. The returned error is the
// lowest-indexed shard's, making the reported failure deterministic
// regardless of scheduling. With one worker (or one item) fn runs
// inline — the exact serial path.
func (c *Checkpointer) runSharded(n int, fn func(lo, hi int) error) error {
	w := c.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		if n == 0 {
			return nil
		}
		return fn(0, n)
	}
	errs := make([]error, w)
	per := (n + w - 1) / w
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo, hi := i*per, (i+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			errs[i] = fn(lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint propagates the pages dirtied since the previous checkpoint
// into the backup domain and returns the real operation counts for cost
// accounting. The caller is responsible for pausing the primary first.
func (c *Checkpointer) Checkpoint() (cost.Counts, error) {
	if c.closed {
		return cost.Counts{}, ErrClosed
	}
	if err := c.primary.HarvestDirty(c.dirty); err != nil {
		return cost.Counts{}, err
	}
	return c.commitDirty()
}

// CheckpointBitmap is Checkpoint for a caller that already harvested
// the epoch's dirty bitmap (the CRIMES controller harvests once and
// shares the bitmap with the Detector for dirty-scoped scans, §3.2).
func (c *Checkpointer) CheckpointBitmap(dirty *mem.Bitmap) (cost.Counts, error) {
	if c.closed {
		return cost.Counts{}, ErrClosed
	}
	if err := c.dirty.CopyFrom(dirty); err != nil {
		return cost.Counts{}, err
	}
	return c.commitDirty()
}

// commitDirty commits the harvested dirty set as one staged sequence:
// scan, disk harvest, stage, publish, remote replication. The eager and
// copy-on-write strategies share every step; CoW only arms write traps on
// the published set, for the accounting its pricing reads. The returned
// counts carry the commit's exact replication traffic in the delta wire
// modes: what the local conduit and a serial remote ship sent, plus the
// traffic of the pipelined shipments this commit settled.
func (c *Checkpointer) commitDirty() (cost.Counts, error) {
	c.report = CommitReport{Timings: PhaseTimings{Workers: c.workers}}
	c.localRepl, c.remoteRepl = cost.ReplicationCounts{}, cost.ReplicationCounts{}
	if c.obsr != nil {
		defer c.observeCommit()
	}
	c.disarmCoW()

	dirty := c.scanDirty()

	// Like the primary's pages, the disk's dirty blocks stay in its log
	// until the commit succeeds, so a failed commit leaves both logs as
	// they were and a retry sees the same set.
	var diskDirty []mem.PFN
	if c.disk != nil {
		c.diskScratch = c.disk.HarvestDirty(c.diskScratch[:0])
		diskDirty = c.diskScratch
	}

	// BytesCopied counts the paper's copy of every dirty page, which the
	// cost model prices, although the commit shares the pages and the
	// guest copies only those it writes again.
	counts := cost.Counts{
		TotalPages:  c.primary.Pages(),
		DirtyPages:  len(dirty),
		BytesCopied: len(dirty) * mem.PageSize,
	}
	// Nothing reaches the backup before both stages succeeded and the set
	// is published whole, so a failed commit leaves its memory and disk at
	// the previous commit with nothing to undo. The undo phase is empty;
	// it is still timed (reading ~0) for the traced benchmark's
	// checkpoint.undo.
	undoStart := time.Now()
	c.report.Timings.Undo = time.Since(undoStart)
	if err := c.stageAndApply(dirty, diskDirty); err != nil {
		return cost.Counts{}, err
	}
	c.armCoW(dirty)
	// The commit stands, so its pages and blocks leave the dirty logs.
	// c.dirty covers the primary, so the clean cannot fail.
	_ = c.primary.CleanDirty(c.dirty)
	if c.disk != nil {
		c.disk.CleanDirty(diskDirty)
		counts.DiskBlocks = len(diskDirty)
		counts.BytesCopied += len(diskDirty) * vdisk.BlockSize
	}

	// The pipelined snapshot reads the paused primary (see
	// enqueueShipment), so it must run before the guest resumes.
	c.replicateRemote(dirty, &counts)

	c.report.RemoteInFlight = c.inFlight
	counts.LocalRepl, counts.RemoteRepl = c.localRepl, c.remoteRepl
	return counts, nil
}

// scanDirty is the dirty bitmap scan: the Full level uses the
// word-granularity scan, sharded across the worker pool for large
// bitmaps.
func (c *Checkpointer) scanDirty() []mem.PFN {
	start := time.Now()
	switch {
	case c.opt < cost.Full:
		c.scratch = c.dirty.ScanBits(c.scratch[:0])
	case c.workers > 1:
		c.scratch = c.dirty.ScanWordsParallel(c.scratch[:0], c.workers)
	default:
		c.scratch = c.dirty.ScanWords(c.scratch[:0])
	}
	c.report.Timings.Scan = time.Since(start)
	return c.scratch
}

// stageAndApply stages the commit and publishes it. The memory stage and
// the disk stage are independent (disjoint storage), so with workers > 1
// they overlap. Only once both have succeeded does publish make them the
// backup's — memory, then disk.
func (c *Checkpointer) stageAndApply(pages, blocks []mem.PFN) error {
	var err error
	if c.disk != nil && c.workers > 1 {
		err = c.stageOverlapped(pages, blocks)
	} else if err = c.stageMemory(pages); err == nil {
		err = c.stageDisk(blocks)
	}
	if err != nil {
		return err
	}
	start := time.Now()
	err = c.publish(pages, blocks)
	c.report.Timings.MemCopy += time.Since(start)
	return err
}

// stageOverlapped runs the disk stage beside the memory stage. The memory
// error takes precedence, matching the serial path's report.
func (c *Checkpointer) stageOverlapped(pages, blocks []mem.PFN) error {
	diskErr := make(chan error, 1)
	go func() { diskErr <- c.stageDisk(blocks) }()
	if err := c.stageMemory(pages); err != nil {
		<-diskErr
		return err
	}
	return <-diskErr
}

// stageMemory readies the memory half of a commit without touching the
// backup. At Memcpy, Premap and Full every dirty page passes the copy
// fault site, so a fault fails the commit before any page is shared; at
// Memcpy the primary's dirty pages are mapped for the epoch meanwhile, as
// Optimization 1 maps both VMs. No-opt stages nothing here: its restore
// process stages the shipped batch. The stage is timed as MemCopy.
func (c *Checkpointer) stageMemory(dirty []mem.PFN) error {
	start := time.Now()
	defer func() { c.report.Timings.MemCopy = time.Since(start) }()
	if c.conduit != nil {
		return nil
	}
	if c.gmPrimary == nil {
		fm, err := c.hv.MapForeign(c.primary, dirty)
		if err != nil {
			return err
		}
		defer fm.Unmap()
	}
	for _, pfn := range dirty {
		if err := c.hv.Faults().Check(FaultCopyPage); err != nil {
			return fmt.Errorf("checkpoint: copy pfn %d: %w", pfn, err)
		}
	}
	return nil
}

// publish makes the staged commit the backup's: memory, then disk.
// ExchangeBlocks rejects no harvested (ascending) list the disk stage
// accepted, so once memory is published the disk exchange cannot fail:
// both land in one step.
func (c *Checkpointer) publish(dirty, blocks []mem.PFN) error {
	if err := c.publishMemory(dirty); err != nil {
		return err
	}
	c.notePublished(dirty)
	if len(blocks) == 0 {
		return nil
	}
	return c.backupDisk.ExchangeBlocks(c.diskStaging, blocks)
}

// publishMemory makes the dirty pages the backup's. At Memcpy, Premap and
// Full the backup's frames take the primary's pages by reference
// (hv.Domain.ShareTo), at Memcpy with the backup's dirty pages mapped for
// the epoch. No byte moves under pause: the guest copies a page on its
// next write to it (mem.Machine.Write), and nothing writes the backup's
// pages in place, so the backup and every image aliasing it keep the
// commit. At No-opt the conduit ships the pages, and its restore process
// exchanges the batch into the backup before it acks.
func (c *Checkpointer) publishMemory(dirty []mem.PFN) error {
	if c.conduit != nil {
		return c.ship(c.conduit, &c.localRepl, dirty)
	}
	if c.gmBackup == nil {
		fm, err := c.hv.MapForeign(c.backup, dirty)
		if err != nil {
			return err
		}
		defer fm.Unmap()
	}
	if err := c.primary.ShareTo(c.backup, dirty); err != nil {
		return fmt.Errorf("checkpoint: share dirty pages: %w", err)
	}
	return nil
}

// stageDisk copies the dirty blocks into the staging disk, when a disk
// is attached.
func (c *Checkpointer) stageDisk(blocks []mem.PFN) error {
	if c.disk == nil {
		return nil
	}
	start := time.Now()
	err := c.disk.CopyBlocksTo(c.diskStaging, blocks)
	c.report.Timings.DiskCopy = time.Since(start)
	return err
}

// replicateRemote ships the committed dirty pages to the remote backup,
// when there is one. Remote replication is an availability add-on
// (§4.1): it must never fail the security-critical local commit. Serial
// mode ships inside the commit (transient failures retried, a persistent
// failure downgrades to local-only); parallel mode pipelines the ship
// behind the resumed guest and only pays the committed-page snapshot
// plus any window backpressure here.
func (c *Checkpointer) replicateRemote(dirty []mem.PFN, counts *cost.Counts) {
	if c.remote == nil {
		return
	}
	shipStart := time.Now()
	if c.workers > 1 {
		if c.enqueueShipment(dirty) {
			counts.RemotePages = len(dirty)
		}
	} else if err := c.shipSerial(dirty); err != nil {
		c.degradeRemote(err)
	} else {
		counts.RemotePages = len(dirty)
	}
	c.report.Timings.RemoteShip = time.Since(shipStart)
}

// shipSerial ships dirty pages to the remote backup inside the commit,
// retrying transient conduit failures up to maxRemoteRetries times. A
// pipeline left running by an earlier parallel commit (the worker count
// can be retuned between epochs) is settled first, so the conduit never
// carries two senders.
func (c *Checkpointer) shipSerial(dirty []mem.PFN) error {
	if err := c.stopShipper(c.settleInCommit); err != nil {
		return err
	}
	for retries := 0; ; retries++ {
		err := c.ship(c.remoteConduit, &c.remoteRepl, dirty)
		if err == nil {
			return nil
		}
		if !fault.IsTransient(err) || retries >= maxRemoteRetries {
			return err
		}
		c.report.RemoteRetries++
	}
}

// degradeRemote disables remote replication after a persistent ship
// failure: the conduit is closed, the remote domain destroyed, and the
// downgrade recorded, so local security checkpointing continues. In
// pipelined mode the caller stops the shipper first.
func (c *Checkpointer) degradeRemote(cause error) {
	_ = c.remoteConduit.Close()
	_ = c.remoteHV.DestroyDomain(c.remote.ID())
	c.remote, c.remoteConduit, c.remoteHV = nil, nil, nil
	c.report.RemoteDegraded = true
	c.met.degraded.Inc()
	c.report.Warnings = append(c.report.Warnings,
		fmt.Sprintf("remote replication disabled, continuing local-only: %v", cause))
}

// shipment is one committed checkpoint queued for pipelined remote
// replication: the dirty PFNs plus a snapshot of their committed
// contents, taken from the paused primary so the resumed (and again
// mutating) guest cannot tear the data mid-ship.
type shipment struct {
	pfns []mem.PFN
	data []byte // len(pfns) * mem.PageSize
}

// shipResult is the shipper goroutine's outcome for one shipment: the
// error and retry count, the exact wire accounting of what it sent, and
// the shipment itself so its buffers can be reused.
type shipResult struct {
	err     error
	retries int
	repl    cost.ReplicationCounts
	ship    shipment
}

// newShipment returns a shipment for dirty with its PFN list copied and
// its data buffer sized, reusing a settled shipment's buffers when they
// fit. The PFN list must be snapshotted along with the data: dirty
// aliases the checkpointer's reusable scratch slice, which the next
// epoch's scan overwrites while this shipment may still be in flight. A
// buffer grows to twice what it must hold, so a dirty count that
// wanders upwards epoch by epoch does not reallocate at every new peak;
// one more than four times too large is dropped rather than reused, so
// one huge epoch (a post-rollback full resync) does not pin its
// snapshot for the rest of the session.
func (c *Checkpointer) newShipment(dirty []mem.PFN) shipment {
	var s shipment
	if n := len(c.shipFree); n > 0 {
		s, c.shipFree = c.shipFree[n-1], c.shipFree[:n-1]
	}
	need := len(dirty) * mem.PageSize
	if cap(s.data) < need || cap(s.data) > 4*need+sparePages*mem.PageSize {
		s.data = make([]byte, need, 2*need)
	}
	if cap(s.pfns) < len(dirty) {
		s.pfns = make([]mem.PFN, 0, 2*len(dirty))
	}
	s.data = s.data[:need]
	s.pfns = append(s.pfns[:0], dirty...)
	return s
}

// sparePages is the snapshot-buffer slack newShipment always tolerates,
// so small epochs of varying size share one buffer.
const sparePages = 64

// enqueueShipment snapshots the committed pages from the paused primary
// and hands them to the shipper goroutine, blocking only when the
// in-flight window is full. It reports whether the shipment was enqueued;
// false means replication degraded while settling the window.
func (c *Checkpointer) enqueueShipment(dirty []mem.PFN) bool {
	if c.shipCh == nil {
		c.shipCh = make(chan shipment, maxShipsInFlight)
		c.shipRes = make(chan shipResult, maxShipsInFlight)
		c.shipDone = make(chan struct{})
		conduit, in, out, done := c.remoteConduit, c.shipCh, c.shipRes, c.shipDone
		go pprof.Do(context.Background(), pprof.Labels("vm", c.primary.Name(), "role", "shipper"),
			func(context.Context) { shipper(conduit, in, out, done) })
	}
	if c.inFlight >= maxShipsInFlight {
		// Window backpressure: the oldest shipment must leave the window.
		// This is the one point a commit consumes a shipper result, so
		// which commit reports which shipment depends on the commit
		// sequence alone, never on how far the shipper happened to get.
		if err := c.settleShipment(c.settleInCommit); err != nil {
			// Stopping settles the rest of the window into this commit
			// too; a second failure surfacing there is part of the same
			// degradation.
			_ = c.stopShipper(c.settleInCommit)
			c.degradeRemote(err)
			return false
		}
	}
	s := c.newShipment(dirty)
	// Snapshot through the worker pool, shards writing disjoint regions.
	// The paused primary holds exactly the committed epoch's bytes.
	if err := c.runSharded(len(dirty), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			off := i * mem.PageSize
			if err := c.primary.ReadPhys(uint64(dirty[i])*mem.PageSize, s.data[off:off+mem.PageSize]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		// Snapshot failure is local, not a conduit failure; degrade the
		// same way rather than fail the already-committed epoch.
		_ = c.stopShipper(c.settleInCommit)
		c.degradeRemote(fmt.Errorf("checkpoint: snapshot for remote ship: %w", err))
		return false
	}
	c.shipCh <- s
	c.inFlight++
	return true
}

// shipper is the pipelined replication goroutine: it serializes,
// encrypts, and sends each queued shipment and waits for the backup's
// acknowledgement, overlapping all of it with the resumed guest's
// execution. Transient conduit failures are retried in place; each
// shipment's result is delivered in order for a commit (or the final
// drain) to settle.
func shipper(conduit *remus.Conduit, in <-chan shipment, out chan<- shipResult, done chan<- struct{}) {
	defer close(done)
	for s := range in {
		res := shipResult{ship: s}
		for {
			res.err = shipSnapshot(conduit, s, &res.repl)
			if res.err == nil || !fault.IsTransient(res.err) || res.retries >= maxRemoteRetries {
				break
			}
			res.retries++
		}
		out <- res
	}
}

// shipSnapshot sends one snapshotted shipment over the conduit and
// waits for its ack.
func shipSnapshot(conduit *remus.Conduit, s shipment, into *cost.ReplicationCounts) error {
	return sendAcked(conduit, into, s.pfns, func(pfn mem.PFN) ([]byte, error) {
		i := sort.Search(len(s.pfns), func(i int) bool { return s.pfns[i] >= pfn })
		if i >= len(s.pfns) || s.pfns[i] != pfn {
			return nil, fmt.Errorf("checkpoint: shipment missing pfn %d", pfn)
		}
		return s.data[i*mem.PageSize : (i+1)*mem.PageSize], nil
	})
}

// settleShipment consumes the oldest in-flight shipment's result,
// waiting for the shipper to deliver it, hands the outcome to note, and
// returns the shipment's persistent failure, if any. Its snapshot
// buffers go back on the free list.
func (c *Checkpointer) settleShipment(note func(ShipReport)) error {
	res := <-c.shipRes
	c.inFlight--
	if len(c.shipFree) < maxShipsInFlight {
		c.shipFree = append(c.shipFree, res.ship)
	}
	r := ShipReport{Retries: res.retries, Repl: res.repl}
	if res.err == nil {
		r.Acked = 1
	}
	note(r)
	return res.err
}

// settleInCommit folds a shipment settled by the running commit into
// that commit's report and counts.
func (c *Checkpointer) settleInCommit(r ShipReport) {
	c.report.RemoteAcked += r.Acked
	c.report.RemoteRetries += r.Retries
	c.remoteRepl.Add(r.Repl)
}

// settleDrained folds a shipment settled outside any commit into the
// drain report and the metric series a commit would have fed.
func (c *Checkpointer) settleDrained(r ShipReport) {
	c.drained.Acked += r.Acked
	c.drained.Retries += r.Retries
	c.drained.Repl.Add(r.Repl)
	c.met.acked.Add(int64(r.Acked))
	c.met.retries.Add(int64(r.Retries))
}

// stopShipper shuts the pipelined shipper down, settling every
// outstanding shipment first (shipRes is buffered to the window size, so
// the shipper never blocks after its input closes), and returns the
// first persistent failure among them. Nothing stays parked: a dead
// shipper's error must not fail commits long after replication already
// degraded, nor tear down a healthy remote re-enabled later.
func (c *Checkpointer) stopShipper(note func(ShipReport)) error {
	if c.shipCh == nil {
		return nil
	}
	close(c.shipCh)
	var first error
	for c.inFlight > 0 {
		if err := c.settleShipment(note); err != nil && first == nil {
			first = err
		}
	}
	<-c.shipDone
	c.shipCh, c.shipRes, c.shipDone = nil, nil, nil
	return first
}

// drainShipper is stopShipper outside a commit: the tail of the window
// lands in the drain report.
func (c *Checkpointer) drainShipper() error {
	err := c.stopShipper(c.settleDrained)
	c.met.inFlight.Set(0)
	return err
}

// Rollback returns the primary to the last commit — the Analyzer's
// first response step after a failed audit. Only the pages in the
// primary's dirty log may differ from that commit, so exactly those are
// restored from Committed, by sharing the image's pages back into the
// primary (hv.Domain.RestoreMemory), and the dirty disk blocks are copied
// from the backup disk. Both logs keep what they held: the next commit
// shares the restored pages again with whatever is written after.
func (c *Checkpointer) Rollback() error {
	if c.closed {
		return ErrClosed
	}
	snap, err := c.Committed()
	if err != nil {
		return fmt.Errorf("checkpoint: rollback: %w", err)
	}
	// Committed is done with the scan buffer.
	c.scratch = c.primary.DirtyPages(c.scratch[:0])
	if err := c.primary.RestoreMemory(snap, c.scratch); err != nil {
		return fmt.Errorf("checkpoint: rollback restore: %w", err)
	}
	if c.disk != nil {
		c.diskScratch = c.disk.HarvestDirty(c.diskScratch[:0])
		if err := c.backupDisk.CopyBlocksTo(c.disk, c.diskScratch); err != nil {
			return fmt.Errorf("checkpoint: rollback disk: %w", err)
		}
	}
	return nil
}

// Close releases the conduits and mappings. The backup domain is left
// intact for post-mortem use. Any pipelined remote shipments are drained
// first so the remote backup converges to the last committed epoch.
// Both conduits are always closed; their errors, if any, are joined.
// Close is idempotent and safe to call concurrently: a second close —
// serial or racing the first — is a no-op returning nil.
func (c *Checkpointer) Close() error {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.disarmCoW()
	if err := c.drainShipper(); err != nil {
		if c.remote != nil {
			c.degradeRemote(err)
		}
	}
	if c.gmPrimary != nil {
		c.gmPrimary.Unmap()
		c.gmBackup.Unmap()
	}
	var errs []error
	if c.remoteConduit != nil {
		errs = append(errs, c.remoteConduit.Close())
	}
	if c.conduit != nil {
		errs = append(errs, c.conduit.Close())
	}
	return errors.Join(errs...)
}
