// Package core implements the CRIMES controller: the epoch loop that
// ties speculative execution, output buffering, detection, continuous
// checkpointing, and post-attack analysis together (Figure 1).
//
// Each epoch: the guest executes speculatively with outputs buffered;
// at the epoch boundary the domain is paused, the Detector audits the
// VM through introspection (scoped to the epoch's dirty pages), and on
// a passing audit the Checkpointer commits the epoch and the buffered
// outputs are released. On a failing audit the outputs are discarded,
// dumps are captured, and the Analyzer rolls back and replays the epoch
// to pinpoint the attack before producing a forensic report.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analyze"
	"repro/internal/checkpoint"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/netbuf"
	"repro/internal/obs"
	"repro/internal/remus"
	"repro/internal/slo"
	"repro/internal/vdisk"
	"repro/internal/vmi"
	"repro/internal/volatility"
)

// ErrHalted is returned from RunEpoch once the VM is halted: by an
// incident, an unrecoverable fault or a lost copy-on-write publication.
var ErrHalted = errors.New("core: VM halted")

// Gate bounds how many co-located controllers hold their domains paused
// at once. Acquire blocks until a pause slot is free; Release returns
// it. A fleet scheduler shares one Gate across the VMs on a host so at
// most K of them are inside the pause window (paused or committing) at
// any moment, staggering epoch boundaries and bounding contention on
// the shared pause-path worker pool.
type Gate interface {
	Acquire()
	Release()
}

// ScanMode selects when the audit runs relative to the checkpoint.
type ScanMode int

// Scan scheduling modes.
const (
	// ScanSync audits before committing the epoch: combined with
	// Synchronous buffering this is the paper's zero-window-of-
	// vulnerability configuration.
	ScanSync ScanMode = iota + 1
	// ScanAsync audits the previous checkpoint (the backup domain)
	// while the VM keeps running — cheaper, but evidence is found one
	// epoch late and outputs may already have left (§5.3, future work).
	ScanAsync
)

// String renders the scan mode.
func (m ScanMode) String() string {
	if m == ScanAsync {
		return "async"
	}
	return "sync"
}

// ScanCacheMode selects the audit's guest-memory read strategy.
type ScanCacheMode int

// Scan-cache modes. The zero value is ScanCacheOff, so existing
// configurations are untouched: with the cache off the audit reads the
// domain directly, exactly as before, and every priced number is
// bit-identical to previous releases (mirroring how Workers=1
// reproduces the serial pause path).
const (
	// ScanCacheOff reads guest memory directly with no modelled mapping
	// cost — today's behavior, byte-for-byte.
	ScanCacheOff ScanCacheMode = iota
	// ScanCacheUncached routes the audit through per-epoch foreign
	// mappings: every page the scan touches pays one MapPage, and all
	// mappings are torn down after each audit. This models an
	// introspection stack with no page cache (LibVMI with its cache
	// disabled) and is the baseline the cached mode is measured against.
	ScanCacheUncached
	// ScanCacheOn keeps a bounded LRU of foreign mappings alive across
	// epochs and memoizes kernel-structure walks, both invalidated at
	// each epoch boundary by the harvested dirty bitmap. Steady-state
	// scan cost becomes O(dirty pages intersecting structures).
	ScanCacheOn
)

// String renders the scan-cache mode.
func (m ScanCacheMode) String() string {
	switch m {
	case ScanCacheUncached:
		return "uncached"
	case ScanCacheOn:
		return "on"
	default:
		return "off"
	}
}

// ParseScanCacheMode parses "off", "uncached", or "on".
func ParseScanCacheMode(s string) (ScanCacheMode, error) {
	switch s {
	case "off", "":
		return ScanCacheOff, nil
	case "uncached":
		return ScanCacheUncached, nil
	case "on":
		return ScanCacheOn, nil
	default:
		return 0, fmt.Errorf("core: unknown scan-cache mode %q (want off|uncached|on)", s)
	}
}

// RemusMode selects the replication conduit's wire protocol: it is the
// conduit's own remus.Mode, re-exported so a Config reads in one
// vocabulary. The zero value is RemusRaw, so existing configurations
// are untouched: the conduit ships every dirty page as a full encrypted
// copy, exactly as before, and every priced number is bit-identical to
// previous releases (mirroring how ScanCacheOff preserves the
// direct-read audit).
type RemusMode = remus.Mode

// Replication wire-protocol modes.
const (
	// RemusRaw ships full 4 KiB pages — the v1 wire protocol,
	// byte-for-byte.
	RemusRaw = remus.ModeRaw
	// RemusDelta keeps a bounded shipped-version table on the sender and
	// emits XOR-delta records against the last-shipped copy of each
	// page, falling back to raw when a page has no table entry or the
	// delta does not compress.
	RemusDelta = remus.ModeDelta
	// RemusDeltaDedup adds content-hash deduplication on top of delta
	// encoding: unchanged pages, all-zero pages, and cross-page
	// duplicates ship as constant-size references.
	RemusDeltaDedup = remus.ModeDeltaDedup
)

// ParseRemusMode parses "raw", "delta", or "delta+dedup".
var ParseRemusMode = remus.ParseMode

// Config configures a CRIMES controller.
type Config struct {
	// EpochInterval is the speculative execution window (10 ms to a few
	// hundred ms, §3.1).
	EpochInterval time.Duration
	// Safety selects Synchronous (buffered) or BestEffort outputs.
	Safety netbuf.Mode
	// Scan selects synchronous or asynchronous audits.
	Scan ScanMode
	// Opt is the checkpointing optimization level.
	Opt cost.Optimization
	// Modules are the detector scan modules.
	Modules []detect.Module
	// Deliverer receives released outputs; nil collects them internally.
	Deliverer netbuf.Deliverer
	// HistoryDepth keeps the last N checkpoints for forensics instead
	// of only the most recent one (the paper's proposed extension).
	HistoryDepth int
	// ReplayOnIncident enables rollback-and-replay pinpointing for
	// buffer-overflow incidents (§3.3 "optional").
	ReplayOnIncident bool
	// DiskBlocks, when positive, attaches a virtual block device of
	// that size to the guest and checkpoints it alongside memory (the
	// paper's disk-snapshot extension).
	DiskBlocks int
	// Workers is the pause-path parallelism: the dirty-bitmap scan and
	// the page copy into staging (at Memcpy, Premap and Full) shard
	// across this many goroutines, detector modules scan concurrently,
	// the disk stage overlaps the memory stage, and remote replication is
	// pipelined out of the pause window. The default (0) is
	// runtime.GOMAXPROCS(0); 1 (or negative) forces the exact serial
	// path, which reproduces the paper's Table 1 / Figure 3 / Figure 4
	// numbers bit-for-bit.
	Workers int
	// ScanCache selects the audit's read strategy: ScanCacheOff (the
	// default — direct reads, no modelled mapping cost, bit-identical to
	// previous releases), ScanCacheUncached (per-epoch mappings, the
	// no-page-cache baseline), or ScanCacheOn (cross-epoch LRU mapping
	// cache plus incremental walk memo, invalidated by the dirty
	// bitmap). Only the synchronous audit reads through the cache; the
	// asynchronous mode scans the backup domain, whose contents change
	// wholesale at each commit with no usable dirty bitmap, so it
	// ignores this setting.
	ScanCache ScanCacheMode
	// ScanCacheCapacity bounds the page-mapping cache, in pages; 0 (or
	// a value past the domain size) caches up to the whole domain. A
	// fleet divides its host-wide mapping budget across VMs with this.
	ScanCacheCapacity int
	// CoW prices and counts the commit as copy-on-write: the commit
	// write-protects its dirty pages via the hypervisor's memory-event
	// machinery, the guest's next write to each takes a counted fault, and
	// the cost model prices the protect, the faults and the lazy copy of
	// the rest instead of an eager copy under pause. The commit itself is
	// the same for both: it shares the dirty pages with the backup and
	// the guest copies a page when it writes it again. Requires Opt >=
	// cost.Premap. The zero value (off) keeps the eager pricing.
	CoW bool
	// Remus selects the replication conduit's wire protocol: RemusRaw
	// (the default — full encrypted page copies, bit-identical to
	// previous releases), RemusDelta (XOR-delta encoding against a
	// sender-side shipped-version table), or RemusDeltaDedup (delta
	// encoding plus content-hash deduplication of unchanged, zero, and
	// duplicate pages). Both local checkpoint shipping and remote
	// replication use the selected protocol.
	Remus RemusMode
	// RemusBudgetPages bounds the sender's shipped-version table, in
	// pages; 0 (or negative) keeps a full copy of every shipped page.
	// A fleet divides its host-side memory budget across VMs with this.
	RemusBudgetPages int
	// PauseGate, when non-nil, is acquired immediately before the
	// domain pauses at the epoch boundary and released when RunEpoch
	// returns — by which point the domain has resumed, unwound, or been
	// deliberately halted. A fleet controller shares one gate across
	// co-located VMs to bound how many are paused or committing at
	// once; a halted VM never retains its slot, so one incident cannot
	// stall its neighbors' epoch loops.
	PauseGate Gate
	// Obs, when non-nil, receives the structured epoch trace (one event
	// per phase: run, pause, scan, commit, replicate, rollback, replay,
	// halt) and per-VM metrics. The nil default is a strict no-op: no
	// events, no metrics, and no change to any cost-model output —
	// emission never touches the virtual clock, so priced pause times
	// are identical with and without an observer.
	Obs *obs.Observer
	// EpochJitter randomizes each epoch boundary: epoch N runs for
	// EpochInterval plus a deterministic pseudo-random offset in
	// [-EpochJitter, +EpochJitter] derived from JitterSeed and N. An
	// epoch-aware attacker who times its cleanup against the nominal
	// interval can no longer predict when the audit lands, so a
	// hide-then-restore scheduled "just before the boundary" is caught
	// mid-attack with probability proportional to the jitter window.
	// The zero value keeps every boundary at exactly EpochInterval —
	// bit-for-bit identical to previous releases.
	EpochJitter time.Duration
	// JitterSeed seeds the deterministic jitter sequence; runs with the
	// same seed, interval, and jitter reproduce the same boundaries.
	JitterSeed uint64
	// SLO, when non-nil, is the per-VM tail-latency controller: after
	// each clean epoch it reads the epoch's actual interval and priced
	// pause (plus any externally fed client p99) and retunes
	// EpochInterval, Workers, the scan-cache budget, and — when the
	// PauseGate supports Resize — the gate's K for the next epoch. Each
	// controller instance belongs to exactly one VM; fleets construct one
	// per VM. The nil default is a strict no-op (a single nil check per
	// epoch), so an untuned config reproduces every existing benchmark
	// and trace bit-for-bit.
	SLO *slo.Controller
}

func (c *Config) setDefaults() {
	if c.EpochInterval <= 0 {
		c.EpochInterval = 200 * time.Millisecond
	}
	if c.Safety == 0 {
		c.Safety = netbuf.Synchronous
	}
	if c.Scan == 0 {
		c.Scan = ScanSync
	}
	if c.Opt == 0 {
		c.Opt = cost.Full
	}
	if c.Deliverer == nil {
		c.Deliverer = &netbuf.CollectDeliverer{}
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	} else if c.Workers < 0 {
		c.Workers = 1
	}
}

// EpochIntervalAt returns the actual speculative-execution window for
// 1-based epoch n: EpochInterval exactly when EpochJitter is zero,
// otherwise EpochInterval plus a deterministic offset in
// [-EpochJitter, +EpochJitter] drawn from a splitmix64 hash of
// (JitterSeed, n). Deterministic so traces, benchmarks, and scenario
// outcomes reproduce across runs.
func (c *Config) EpochIntervalAt(n int) time.Duration {
	if c.EpochJitter <= 0 {
		return c.EpochInterval
	}
	iv := c.EpochInterval + jitterOffset(c.JitterSeed, uint64(n), c.EpochJitter)
	if iv < c.EpochInterval/2 {
		// A pathological jitter (>= interval/2) still leaves a real window.
		iv = c.EpochInterval / 2
	}
	return iv
}

// jitterOffset hashes (seed, n) through a splitmix64 finalizer into a
// duration in [-jitter, +jitter]. No math/rand and no global state: the
// same inputs always give the same boundary.
func jitterOffset(seed, n uint64, jitter time.Duration) time.Duration {
	z := seed + n*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	span := uint64(2*jitter) + 1
	return time.Duration(z%span) - jitter
}

// HistoryEntry is one retained checkpoint.
type HistoryEntry struct {
	Epoch    int
	Snapshot *hv.Snapshot
	State    *guestos.State
}

// Controller is a CRIMES instance protecting one guest.
type Controller struct {
	cfg   Config
	hv    *hv.Hypervisor
	guest *guestos.Guest
	dom   *hv.Domain

	vmiCtx    *vmi.Context
	vmiBackup *vmi.Context
	detector  *detect.Detector
	ckpt      *checkpoint.Checkpointer
	buf       *netbuf.Buffer

	dirty *mem.Bitmap
	// lastState is the guest bookkeeping at the last commit, taken once
	// per commit and never mutated: rollback, replay, history and
	// failover all read this one copy. Its memory half is the
	// checkpointer's committed image, which the synchronous audit reads
	// through committed, bound once here so no audit allocates it.
	lastState *guestos.State
	committed func(mem.PFN, []byte) error
	// restored is set from a rollback unwind to the next commit: the
	// pages the rollback restored stay in the dirty log, dirty yet equal
	// to the commit, so the audits in between get no committed image to
	// diff against.
	restored bool

	// Scan-path acceleration (nil / unused when cfg.ScanCache is off):
	// scanCache is the cross-epoch page-mapping cache the audit reads
	// through, scanMemo the incremental walk memo (ScanCacheOn only),
	// and scanStats the cumulative cache counters for fleet roll-ups.
	scanCache *hv.CachedMapping
	scanMemo  *vmi.WalkMemo
	scanStats cost.ScanCacheCounts

	// CoW accounting (zero / unused when cfg.CoW is off): cowPrevArmed
	// is the page count armed at the previous successful commit — the
	// pool the next epoch's write faults and lazy drain draw from — and
	// cowStats the cumulative counters for fleet roll-ups.
	cowPrevArmed int
	cowStats     cost.CoWCounts

	// Delta-replication accounting (zero / unused when cfg.Remus is
	// RemusRaw): the cumulative wire-protocol counters across local and
	// remote conduits, for fleet roll-ups. tailFolded records that Close
	// already added the shipments settled outside any epoch.
	replStats  cost.ReplicationCounts
	tailFolded bool

	epoch      int
	virtualNow time.Duration
	setupTime  time.Duration
	totalPause time.Duration
	halted     bool

	history []HistoryEntry

	// Observability: obs is nil when disabled (every emit is then a
	// single nil check); obsVM labels this VM's events and metric
	// series; met holds the handles resolved once at construction.
	obs   *obs.Observer
	obsVM string
	met   coreMetrics
}

// coreMetrics are the controller's pre-resolved metric handles. All are
// nil (inert) when no metrics registry is configured.
type coreMetrics struct {
	epochs     *obs.Counter
	findings   *obs.Counter
	incidents  *obs.Counter
	retries    *obs.Counter
	pauseNs    *obs.Histogram // priced (virtual) pause per clean epoch
	dirtyPages *obs.Histogram
	gateWaitNs *obs.Histogram // measured wall-clock pause-gate wait

	// One handle per counter set, bound to the series the set's own field
	// tags declare. The scan-cache, CoW and delta-replication sets are
	// bound only when their mode is on, so mode-off metric dumps are
	// unchanged; an unbound set is inert.
	hypercalls obs.SetCounters[obs.Hypercalls]
	scanCache  obs.SetCounters[obs.ScanCache]
	cow        obs.SetCounters[obs.CoW]
	repl       obs.SetCounters[obs.Replication]

	// SLO-controller series; registered only when a controller is
	// configured so untuned metric dumps are unchanged.
	sloSteps *obs.Counter
}

// New creates a controller: it initializes introspection (init +
// preprocess), wires the output buffer into the guest, creates the
// backup domain and performs the initial synchronization.
func New(h *hv.Hypervisor, g *guestos.Guest, cfg Config) (*Controller, error) {
	cfg.setDefaults()
	c := &Controller{
		cfg:   cfg,
		hv:    h,
		guest: g,
		dom:   g.Domain(),
		dirty: mem.NewBitmap(g.Domain().Pages()),
	}

	var reader vmi.PhysReader = c.dom
	if cfg.ScanCache != ScanCacheOff {
		c.scanCache = hv.NewCachedMapping(c.dom, cfg.ScanCacheCapacity)
		reader = c.scanCache
	}
	ctx, err := vmi.NewContext(reader, g.Profile(), g.SystemMap())
	if err != nil {
		return nil, fmt.Errorf("core: vmi init: %w", err)
	}
	if err := ctx.Preprocess(); err != nil {
		return nil, fmt.Errorf("core: vmi preprocess: %w", err)
	}
	switch cfg.ScanCache {
	case ScanCacheOn:
		// Preprocess warmed the cache; keep those mappings and start
		// memoizing walks from here (known-good state is now captured).
		c.scanMemo = vmi.NewWalkMemo()
		ctx.SetMemo(c.scanMemo)
	case ScanCacheUncached:
		// The uncached baseline maps per epoch: drop the preprocess
		// warmup so every audit starts cold.
		c.scanCache.Flush()
	}
	c.vmiCtx = ctx
	c.setupTime = cost.Default().Setup(cfg.Opt, c.dom.Pages())

	c.detector = detect.NewDetector(cfg.Modules...)
	c.detector.SetWorkers(cfg.Workers)
	c.buf = netbuf.New(cfg.Safety, cfg.Deliverer)

	if c.ckpt, err = checkpoint.NewWithParams(h, c.dom, checkpoint.Params{
		Opt:              cfg.Opt,
		Workers:          cfg.Workers,
		Remus:            cfg.Remus,
		RemusBudgetPages: cfg.RemusBudgetPages,
	}); err != nil {
		return nil, err
	}
	disk, err := c.armCheckpointer(g)
	if err != nil {
		// A failed New hands the caller nothing to close, so what the
		// checkpointer holds is given back here: its restore goroutine and
		// premapped frames (Close) and its backup domain.
		backup := c.ckpt.Backup()
		_ = c.ckpt.Close()
		_ = h.DestroyDomain(backup.ID())
		return nil, err
	}
	// Nothing below can fail, so only a fully built controller touches
	// the guest: its outputs now flow into the buffer and its disk, if
	// any, is the checkpointed one.
	g.SetOutputSink(c.buf)
	if disk != nil {
		g.AttachDisk(disk)
	}
	c.lastState = g.CloneState()
	c.committed = c.ckpt.ReadCommitted
	if cfg.Obs.Enabled() {
		c.obs = cfg.Obs
		c.obsVM = c.dom.Name()
		c.met = newCoreMetrics(cfg, c.obsVM)
		c.ckpt.SetObserver(cfg.Obs, c.obsVM)
	}
	// Seed the SLO controller with the system's actual starting knobs so
	// its first decision steps relative to the configured state.
	cfg.SLO.Init(slo.Tunables{
		Interval:   cfg.EpochInterval,
		Workers:    cfg.Workers,
		CachePages: cfg.ScanCacheCapacity,
	})
	return c, nil
}

// armCheckpointer configures the freshly built checkpointer for the
// controller's strategy: the disk to checkpoint alongside memory (which
// it returns, not yet attached to the guest), the copy-on-write
// accounting — whose own check rejects an Opt below Premap — and, for
// the asynchronous audit, introspection of the backup domain.
func (c *Controller) armCheckpointer(g *guestos.Guest) (*vdisk.Disk, error) {
	var disk *vdisk.Disk
	if c.cfg.DiskBlocks > 0 {
		disk = vdisk.New(c.cfg.DiskBlocks)
		if err := c.ckpt.AttachDisk(disk); err != nil {
			return nil, err
		}
	}
	if c.cfg.CoW {
		if err := c.ckpt.EnableCoW(); err != nil {
			return nil, fmt.Errorf("core: CoW commit: %w", err)
		}
	}
	if c.cfg.Scan == ScanAsync {
		bctx, err := vmi.NewContext(c.ckpt.Backup(), g.Profile(), g.SystemMap())
		if err != nil {
			return nil, fmt.Errorf("core: backup vmi init: %w", err)
		}
		if err := bctx.Preprocess(); err != nil {
			return nil, fmt.Errorf("core: backup vmi preprocess: %w", err)
		}
		c.vmiBackup = bctx
	}
	return disk, nil
}

// GuestSpec says where Launch gets its guest: a fresh domain of Pages
// pages named Name, booted from Boot — or, when Replica is set, an
// existing domain on the same hypervisor that already holds the guest's
// replicated memory (a promoted Remus replica), adopted together with
// State, the kernel bookkeeping that belongs to that memory.
type GuestSpec struct {
	Name    string
	Pages   int
	Boot    guestos.BootConfig
	Replica *hv.Domain
	State   *guestos.State
}

// Launch is the one way to put a guest under protection: create (or
// adopt) its domain on h, boot the guest in it and attach a controller.
// Launch owns the domain from the call on — on any failure the domain
// and everything New built on it are destroyed, so the caller holds
// either a running protected VM (the guest is Controller.Guest) or
// nothing.
func Launch(h *hv.Hypervisor, spec GuestSpec, cfg Config) (*Controller, error) {
	var (
		g   *guestos.Guest
		ctl *Controller
		err error
	)
	dom := spec.Replica
	if dom != nil {
		g, err = guestos.Adopt(dom, spec.Boot, spec.State)
	} else {
		if dom, err = h.CreateDomain(spec.Name, spec.Pages); err != nil {
			return nil, fmt.Errorf("core: launch %s: %w", spec.Name, err)
		}
		g, err = guestos.Boot(dom, spec.Boot)
	}
	if err == nil {
		ctl, err = New(h, g, cfg)
	}
	if err != nil {
		_ = h.DestroyDomain(dom.ID())
		return nil, fmt.Errorf("core: launch %s: %w", dom.Name(), err)
	}
	return ctl, nil
}

// newCoreMetrics resolves the controller's metric handles once, at
// construction.
func newCoreMetrics(cfg Config, vm string) coreMetrics {
	reg := cfg.Obs.Registry()
	met := coreMetrics{
		epochs:     reg.Counter("crimes_epochs_total", "vm", vm),
		findings:   reg.Counter("crimes_findings_total", "vm", vm),
		incidents:  reg.Counter("crimes_incidents_total", "vm", vm),
		retries:    reg.Counter("crimes_retries_total", "vm", vm),
		pauseNs:    reg.Histogram("crimes_pause_virtual_ns", obs.DurationBuckets(), "vm", vm),
		dirtyPages: reg.Histogram("crimes_dirty_pages", obs.PageBuckets(), "vm", vm),
		gateWaitNs: reg.Histogram("crimes_gate_wait_ns", obs.DurationBuckets(), "vm", vm),
		hypercalls: obs.BindCounters[obs.Hypercalls](reg, vm),
	}
	if cfg.ScanCache != ScanCacheOff {
		met.scanCache = obs.BindCounters[obs.ScanCache](reg, vm)
	}
	if cfg.CoW {
		met.cow = obs.BindCounters[obs.CoW](reg, vm)
	}
	if cfg.Remus != RemusRaw {
		met.repl = obs.BindCounters[obs.Replication](reg, vm)
	}
	if cfg.SLO.Enabled() {
		met.sloSteps = reg.Counter("crimes_slo_steps_total", "vm", vm)
	}
	return met
}

// emit fills the event's identity fields (VM, epoch, virtual clock) and
// forwards it to the observer's trace. Emission is strictly additive:
// it never advances the virtual clock, so priced pause numbers are
// byte-identical with tracing on or off.
func (c *Controller) emit(ev obs.Event) {
	if c.obs == nil {
		return
	}
	ev.VM = c.obsVM
	ev.Epoch = c.epoch
	ev.VirtualNs = int64(c.virtualNow)
	c.obs.Emit(ev)
}

// Hypercalls sums the per-domain hypercall attribution across every
// domain this VM's checkpointer touches (primary, backup, remote).
func (c *Controller) Hypercalls() hv.Hypercalls {
	var total hv.Hypercalls
	for _, d := range c.ckpt.Domains() {
		total.Add(d.Calls())
	}
	return total
}

// scanCacheDelta converts since-snapshot cache and memo counters into
// one epoch's cost-model counts.
func (c *Controller) scanCacheDelta(cacheBefore hv.ScanCacheStats, memoBefore vmi.MemoStats) cost.ScanCacheCounts {
	d := c.scanCache.Stats().Sub(cacheBefore)
	out := cost.ScanCacheCounts{
		CacheHits:   d.Hits,
		CacheMisses: d.Misses,
		CacheUnmaps: d.Unmaps,
		CacheSwept:  d.Swept,
	}
	if c.scanMemo != nil {
		md := c.scanMemo.Stats().Sub(memoBefore)
		out.MemoHits = md.Hits
		out.MemoMisses = md.Misses
	}
	return out
}

// cowSnap reads the cumulative CoW counters — pages armed across all
// commits, write faults the guest has taken — in the set's own shape, so
// commit derives the epoch's share by subtracting the snapshot taken at
// the epoch's start.
func (c *Controller) cowSnap() cost.CoWCounts {
	return cost.CoWCounts{
		ArmedPages:  c.ckpt.CoWStats().ArmedPages,
		WriteFaults: int(c.dom.WriteFaults()),
	}
}

// recordEpochMetrics rolls one completed RunEpoch (clean or not) into
// the per-VM metric series.
func (c *Controller) recordEpochMetrics(res *EpochResult, err error) {
	c.met.epochs.Add(1)
	c.met.findings.Add(int64(len(res.Findings)))
	if res.Incident != nil {
		c.met.incidents.Add(1)
	}
	c.met.retries.Add(int64(res.Recovery.Retries))
	if res.Recovery.Unwind != UnwindNone {
		c.obs.Registry().Counter("crimes_unwinds_total", "vm", c.obsVM, "path", res.Recovery.Unwind).Add(1)
	}
	if t := res.Phases.Total(); t > 0 {
		c.met.pauseNs.ObserveDuration(int64(t))
	}
	if err == nil && res.Incident == nil {
		c.met.dirtyPages.Observe(float64(res.Counts.DirtyPages))
	}
}

// Guest returns the protected guest.
func (c *Controller) Guest() *guestos.Guest { return c.guest }

// Buffer returns the output buffer (for inspection in tests and tools).
func (c *Controller) Buffer() *netbuf.Buffer { return c.buf }

// Checkpointer returns the underlying checkpointer.
func (c *Controller) Checkpointer() *checkpoint.Checkpointer { return c.ckpt }

// VirtualTime returns accumulated virtual execution time (epochs plus
// paused intervals).
func (c *Controller) VirtualTime() time.Duration { return c.virtualNow }

// TotalPause returns accumulated virtual paused time.
func (c *Controller) TotalPause() time.Duration { return c.totalPause }

// SetupTime returns the one-time initialization cost (VMI init and
// preprocessing, premapping).
func (c *Controller) SetupTime() time.Duration { return c.setupTime }

// Epoch returns the number of completed epochs.
func (c *Controller) Epoch() int { return c.epoch }

// SLOSteps counts the tuning decisions the SLO controller has taken; 0
// when no controller is configured.
func (c *Controller) SLOSteps() int { return c.cfg.SLO.Steps() }

// EpochIntervalAt returns the (possibly jittered) speculative window the
// controller will use for 1-based epoch n. Workload drivers that plan
// sub-epoch action timing consult this; an in-guest attacker cannot —
// that asymmetry is exactly what Config.EpochJitter buys.
func (c *Controller) EpochIntervalAt(n int) time.Duration { return c.cfg.EpochIntervalAt(n) }

// ScanCacheTotals returns the cumulative scan-path cache counters across
// all epochs (all zero when the scan cache is disabled). Fleet
// reporting rolls these up per VM.
func (c *Controller) ScanCacheTotals() cost.ScanCacheCounts { return c.scanStats }

// CoWTotals returns the cumulative copy-on-write commit counters
// across all epochs (all zero when CoW is disabled). Fleet reporting
// rolls these up per VM.
func (c *Controller) CoWTotals() cost.CoWCounts { return c.cowStats }

// ReplicationTotals returns the cumulative delta-replication wire
// counters across all epochs and both conduits, local and remote (all
// zero when the raw protocol is in use). Fleet reporting rolls these up
// per VM.
func (c *Controller) ReplicationTotals() cost.ReplicationCounts { return c.replStats }

// ScanCacheLive reports the page-mapping cache's current size and
// capacity in pages (0, 0 when the scan cache is disabled).
func (c *Controller) ScanCacheLive() (used, capacity int) {
	if c.scanCache == nil {
		return 0, 0
	}
	return c.scanCache.Len(), c.scanCache.Cap()
}

// CommittedState returns the guest kernel's bookkeeping at the last
// commit — the half of the committed state that the memory image does
// not hold. It is immutable: RestoreState and guestos.Adopt copy out of
// it, so a caller may keep it after the controller moves on or closes.
func (c *Controller) CommittedState() *guestos.State { return c.lastState }

// Halted reports whether an incident has stopped the VM.
func (c *Controller) Halted() bool { return c.halted }

// History returns the retained checkpoint history (most recent last).
// The snapshots are immutable and share unchanged pages with each
// other, so they are safe to keep and read after later epochs.
func (c *Controller) History() []HistoryEntry {
	out := make([]HistoryEntry, len(c.history))
	copy(out, c.history)
	return out
}

// Close releases the checkpointer resources. Pipelined remote shipments
// still in flight are settled first; their outcome belongs to no epoch,
// so it joins ReplicationTotals and the replication series here and a
// traced run gets one closing replicate event. Every shipment is thus
// reported exactly once: by the epoch whose commit settled it, or by
// Close.
func (c *Controller) Close() error {
	err := c.ckpt.Close()
	tail := c.ckpt.Drained()
	if c.tailFolded || tail == (checkpoint.ShipReport{}) {
		return err
	}
	c.tailFolded = true
	c.replStats.Add(tail.Repl)
	if c.obs != nil {
		c.met.repl.Add(tail.Repl)
		c.emit(obs.Event{Phase: obs.PhaseReplicate, Acked: tail.Acked, Retries: tail.Retries,
			Action: "drain", Repl: traced(tail.Repl)})
	}
	return err
}

// traced returns a counter set as a trace event's optional block: nil
// when the set is all zero, so the event omits it.
func traced[T comparable](set T) *T {
	var zero T
	if set == zero {
		return nil
	}
	return &set
}

// EpochResult reports what one epoch did.
type EpochResult struct {
	Epoch    int
	Findings []detect.Finding
	Counts   cost.Counts
	Phases   cost.Phases
	Incident *Incident
	// Commit is the checkpointer's report for this epoch's commit:
	// measured wall-clock phase timings and the pipelined remote-
	// replication window state (in-flight / acked shipments).
	Commit checkpoint.CommitReport
	// VirtualTime is the controller's clock after this epoch.
	VirtualTime time.Duration
	// Interval is the actual speculative window this epoch ran —
	// EpochIntervalAt's jittered value, further retuned when an SLO
	// controller is steering.
	Interval time.Duration
	// Recovery describes the fault-recovery actions the controller took
	// during the epoch (retries, degradations, the unwind path).
	Recovery Recovery
	// ScanCache is the epoch's scan-path cache activity (page-mapping
	// cache plus walk memo); zero when the scan cache is disabled.
	ScanCache cost.ScanCacheCounts
	// CoW is the epoch's copy-on-write commit activity (pages armed at
	// this commit, write faults taken during the epoch, previously
	// armed pages drained lazily); zero when CoW is disabled.
	CoW cost.CoWCounts
	// Replication is the epoch's delta-replication wire activity across
	// the local and remote conduits (wire bytes shipped vs. the raw-
	// protocol equivalent, plus the per-opcode page mix); zero when the
	// raw protocol is in use.
	Replication cost.ReplicationCounts
}

// Unwind paths a failing epoch can take; see Recovery.Unwind.
const (
	// UnwindNone: the epoch needed no unwinding.
	UnwindNone = ""
	// UnwindResume: a pre-commit failure; nothing was committed or
	// released, the harvested dirty pages were merged back, and the
	// domain resumed — the next epoch re-audits everything.
	UnwindResume = "resume"
	// UnwindRollback: a mid-commit failure; the epoch's outputs were
	// discarded and the VM was rolled back to the last clean checkpoint
	// and resumed.
	UnwindRollback = "rollback"
	// UnwindHalt: an unrecoverable fault; the VM was deliberately
	// halted and further RunEpoch calls return ErrHalted.
	UnwindHalt = "halt"
)

// Recovery reports how the controller recovered from infrastructure
// faults during one epoch. The zero value means the epoch needed no
// recovery at all.
type Recovery struct {
	// Retries counts transient operation failures that were retried
	// (including remote-replication ship retries inside the commit).
	Retries int
	// Unwind names the unwind path taken when the epoch failed:
	// UnwindNone, UnwindResume, UnwindRollback, or UnwindHalt.
	Unwind string
	// Degradations lists features that were disabled to keep the epoch
	// alive (e.g. remote replication downgraded to local-only).
	Degradations []string
	// Warnings lists non-fatal anomalies (e.g. checkpoint history not
	// retained this epoch).
	Warnings []string
}

// Clean reports whether the epoch completed with no recovery action.
func (r Recovery) Clean() bool {
	return r.Retries == 0 && r.Unwind == UnwindNone &&
		len(r.Degradations) == 0 && len(r.Warnings) == 0
}

// Incident is a failed audit plus the Analyzer's output.
type Incident struct {
	Epoch    int
	Findings []detect.Finding
	Pinpoint *analyze.Pinpoint
	Dumps    *analyze.Dumps
	Report   *volatility.Report
	Timeline Timeline
}

// SaveDumps writes the incident's memory dumps to dir as
// .crimesdump files — the paper's "three full system checkpoints for
// future analysis" (§5.5) — and returns the written paths. They can be
// analyzed offline with cmd/crimes-forensics.
func (inc *Incident) SaveDumps(dir string) ([]string, error) {
	if inc.Dumps == nil {
		return nil, errors.New("core: incident has no dumps")
	}
	var paths []string
	save := func(name string, d *volatility.Dump) error {
		if d == nil {
			return nil
		}
		path := filepath.Join(dir, fmt.Sprintf("epoch%d-%s.crimesdump", inc.Epoch, name))
		if err := d.SaveFile(path); err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}
	if err := save("last-good", inc.Dumps.LastGood); err != nil {
		return nil, err
	}
	if err := save("audit-fail", inc.Dumps.AuditFail); err != nil {
		return nil, err
	}
	if err := save("at-attack", inc.Dumps.AtAttack); err != nil {
		return nil, err
	}
	return paths, nil
}

// Timeline prices the detection-and-response sequence of Figure 8.
type Timeline struct {
	// AttackToEpochEnd is the speculative time between the attack op
	// and the epoch boundary where it was caught.
	AttackToEpochEnd time.Duration
	// SuspendAndScan is the pause plus audit cost at detection.
	SuspendAndScan time.Duration
	// ReplayReady is when the rolled-back VM resumed for replay.
	ReplayReady time.Duration
	// MemDump is the Volatility process-dump extraction time.
	MemDump time.Duration
	// CheckpointsToDisk is the time to persist the full system
	// checkpoints for later analysis.
	CheckpointsToDisk time.Duration
}

// RunEpoch speculatively executes one epoch of guest work, then runs
// the audit/commit/respond cycle. After an incident it returns the
// incident result; further calls return ErrHalted.
//
// RunEpoch is transactional with respect to the domain's lifecycle:
// when it returns an error the domain has always been unwound to a
// consistent state — resumed with nothing committed (pre-commit
// failures), rolled back to the last clean checkpoint and resumed
// (mid-commit failures), or deliberately halted (unrecoverable faults
// and incident-response failures). Transient failures are retried with
// bounded virtual-time backoff before any unwind. On error the returned
// result is non-nil whenever the epoch reached the pause boundary; its
// Recovery field reports the retries, degradations, and unwind path.
func (c *Controller) RunEpoch(work func(*guestos.Guest) error) (*EpochResult, error) {
	res, err := c.runEpoch(work)
	if c.obs != nil && res != nil {
		c.recordEpochMetrics(res, err)
	}
	return res, err
}

// epochState is what one RunEpoch hands from phase to phase. It lives
// on runEpoch's stack: phases take a pointer and never retain it.
type epochState struct {
	res *EpochResult
	// hcBefore (observed runs) and cowBefore (CoW runs) are the
	// since-epoch-start baselines the commit phase turns into deltas.
	hcBefore  hv.Hypercalls
	cowBefore cost.CoWCounts
	// scanCounts accumulates the audit's VMI work — the sync audit's
	// under pause, or the async audit's after resume.
	scanCounts *detect.ScanCounts
	findings   []detect.Finding
	counts     cost.Counts
}

// runEpoch is RunEpoch's body; the wrapper folds the result into the
// per-VM metrics when observability is enabled. The epoch is a sequence
// of named phases. Each phase emits its own trace events and owns its
// own unwind: a phase that returns an error has already left the domain
// Running again (unwindResume, unwindRollback) or deliberately halted
// (haltDomain) — between Pause succeeding and Resume there is no other
// way out.
func (c *Controller) runEpoch(work func(*guestos.Guest) error) (*EpochResult, error) {
	if c.halted {
		return nil, ErrHalted
	}
	c.epoch++
	res := &EpochResult{Epoch: c.epoch}
	ep := epochState{res: res, scanCounts: &detect.ScanCounts{}}
	if c.obs != nil {
		ep.hcBefore = c.Hypercalls()
	}
	if c.cfg.CoW {
		ep.cowBefore = c.cowSnap()
	}

	if err := c.speculate(&ep, work); err != nil {
		return nil, err
	}
	// With a PauseGate configured, a pause slot is acquired first and
	// held until RunEpoch returns: the fleet scheduler uses this to
	// stagger epoch boundaries so at most K co-located VMs are paused or
	// committing at once.
	if c.cfg.PauseGate != nil {
		c.acquireGate()
		defer c.cfg.PauseGate.Release()
	}
	if err := c.pauseAndHarvest(&ep); err != nil {
		return res, err
	}
	if c.cfg.Scan == ScanSync {
		if err := c.audit(&ep); err != nil {
			return res, err
		}
		if len(ep.findings) > 0 {
			return res, c.incident(&ep)
		}
	}
	if err := c.commit(&ep); err != nil {
		return res, err
	}
	if err := c.releaseAndResume(&ep); err != nil {
		return res, err
	}
	if c.cfg.Scan == ScanAsync {
		if err := c.auditAsync(&ep); err != nil {
			return res, err
		}
	}
	c.price(&ep)
	c.applySLO(res)
	return res, nil
}

// speculate runs the epoch's guest work with outputs buffered and
// advances the virtual clock by the (possibly jittered) interval. The
// domain is Running throughout, so a workload failure needs no unwind.
func (c *Controller) speculate(ep *epochState, work func(*guestos.Guest) error) error {
	c.guest.BeginEpoch()
	if work != nil {
		if err := work(c.guest); err != nil {
			c.emit(obs.Event{Phase: obs.PhaseRun, Err: err.Error()})
			return fmt.Errorf("core: epoch %d workload: %w", c.epoch, err)
		}
	}
	ep.res.Interval = c.cfg.EpochIntervalAt(c.epoch)
	c.virtualNow += ep.res.Interval
	c.emit(obs.Event{Phase: obs.PhaseRun, DurNs: int64(ep.res.Interval)})
	return nil
}

// acquireGate takes the pause slot, recording the measured wait when
// observability is on.
func (c *Controller) acquireGate() {
	if c.obs == nil {
		c.cfg.PauseGate.Acquire()
		return
	}
	gateStart := time.Now()
	c.cfg.PauseGate.Acquire()
	c.met.gateWaitNs.ObserveDuration(int64(time.Since(gateStart)))
}

// pauseAndHarvest stops the domain at the epoch boundary and harvests
// the epoch's dirty bitmap. Unwind: until Pause succeeds the domain is
// still Running, so a pause failure needs none; after it, a failure
// resumes the domain.
func (c *Controller) pauseAndHarvest(ep *epochState) error {
	res := ep.res
	if err := c.retryOp(res, c.dom.Pause); err != nil {
		c.emit(obs.Event{Phase: obs.PhasePause, Err: err.Error()})
		res.VirtualTime = c.virtualNow
		return fmt.Errorf("core: epoch %d pause: %w", c.epoch, err)
	}
	// From here until Resume the domain is stopped: every early return
	// must take an unwind path that leaves it Running again (or
	// deliberately halted) — never silently stranded in Suspended.
	if err := c.retryOp(res, c.dom.Suspend); err != nil {
		c.emit(obs.Event{Phase: obs.PhasePause, Err: err.Error(), Action: UnwindResume})
		return c.unwindResume(res, fmt.Errorf("core: epoch %d suspend: %w", c.epoch, err))
	}
	if err := c.retryOp(res, func() error { return c.dom.HarvestDirty(c.dirty) }); err != nil {
		c.emit(obs.Event{Phase: obs.PhasePause, Err: err.Error(), Action: UnwindResume})
		return c.unwindResume(res, fmt.Errorf("core: epoch %d harvest: %w", c.epoch, err))
	}
	if c.obs != nil {
		c.emit(obs.Event{Phase: obs.PhasePause, Pages: c.dirty.Count(), Retries: res.Recovery.Retries})
	}
	return nil
}

// audit is the synchronous audit under pause, scoped to the harvested
// dirty pages, leaving its findings in ep. Unwind: nothing was committed
// and no output released, so a failed audit just resumes; its pages are
// still in the domain's dirty log, which only a commit cleans, so the
// next epoch's audit and checkpoint cover them.
func (c *Controller) audit(ep *epochState) error {
	res := ep.res
	// Epoch-boundary cache invalidation: pages the guest wrote during
	// the epoch must be remapped and the structure walks that touched
	// them re-run; everything else stays cached across the boundary. The
	// counter snapshots are taken first so the sweep itself is billed to
	// this epoch's scan phase.
	var cacheBefore hv.ScanCacheStats
	var memoBefore vmi.MemoStats
	if c.scanCache != nil {
		cacheBefore = c.scanCache.Stats()
		if c.scanMemo != nil {
			memoBefore = c.scanMemo.Stats()
		}
		if c.cfg.ScanCache == ScanCacheOn {
			c.scanCache.Invalidate(c.dirty)
			c.scanMemo.Invalidate(c.dirty)
		}
	}
	committed := c.committed
	if c.restored {
		committed = nil
	}
	findings, err := c.detector.Scan(&detect.ScanContext{
		VMI: c.vmiCtx, Dirty: c.dirty, Counts: ep.scanCounts,
		Packets: c.buf.PendingPackets(), DiskWrites: c.buf.PendingDisks(),
		Committed: committed,
	})
	if c.cfg.ScanCache == ScanCacheUncached {
		// The no-page-cache baseline tears every mapping down after
		// each audit, so the next epoch maps from scratch.
		c.scanCache.Flush()
	}
	if err != nil {
		c.emit(obs.Event{Phase: obs.PhaseScan, Err: err.Error(), Action: UnwindResume})
		return c.unwindResume(res, fmt.Errorf("core: epoch %d audit: %w", c.epoch, err))
	}
	ep.findings = findings
	ev := obs.Event{Phase: obs.PhaseScan, Findings: len(findings)}
	if c.scanCache != nil {
		res.ScanCache = c.scanCacheDelta(cacheBefore, memoBefore)
		c.scanStats.Add(res.ScanCache)
		if c.obs != nil {
			c.met.scanCache.Add(res.ScanCache)
			sc := res.ScanCache
			ev.ScanCache = &sc
		}
	}
	c.emit(ev)
	return nil
}

// incident ends the epoch on a failed audit: outputs discarded, dumps
// captured, the attack pinpointed, the VM left halted. Unwind: if the
// incident-response machinery itself fails, the VM must not resume on a
// best-effort basis with evidence of an attack in hand — it is
// quarantined deliberately.
func (c *Controller) incident(ep *epochState) error {
	res := ep.res
	inc, err := c.respond(ep.findings, ep.scanCounts)
	if err != nil {
		return c.haltDomain(res, fmt.Errorf("core: epoch %d respond: %w", c.epoch, err))
	}
	res.Findings = ep.findings
	res.Incident = inc
	res.VirtualTime = c.virtualNow
	c.halted = true
	c.emit(obs.Event{Phase: obs.PhaseHalt, Action: "incident", Findings: len(ep.findings)})
	return nil
}

// commit checkpoints the audited (or, in async mode, to-be-audited)
// epoch and folds the commit's report and strategy counters into the
// result. Unwind: on a mid-commit failure the backup still holds the
// last clean checkpoint; the primary is rolled back to it and resumed.
func (c *Controller) commit(ep *epochState) error {
	res := ep.res
	var commitStart time.Time
	if c.obs != nil {
		commitStart = time.Now()
	}
	err := c.retryOp(res, func() error {
		var cerr error
		ep.counts, cerr = c.ckpt.CheckpointBitmap(c.dirty)
		return cerr
	})
	rep := c.ckpt.LastReport()
	res.Commit = rep
	res.Recovery.Retries += rep.RemoteRetries
	if rep.RemoteDegraded {
		res.Recovery.Degradations = append(res.Recovery.Degradations, rep.Warnings...)
	}
	if err != nil {
		c.emit(obs.Event{Phase: obs.PhaseCommit, Err: err.Error(), Action: UnwindRollback,
			Retries: res.Recovery.Retries})
		return c.unwindRollback(res, fmt.Errorf("core: epoch %d commit: %w", c.epoch, err))
	}
	c.restored = false
	if c.cfg.CoW {
		// The commit disarmed the previous epoch's set on entry and armed
		// this epoch's dirty pages on exit. ArmedPages is the page count
		// write-protected at this commit, WriteFaults the faults taken
		// during the epoch on the previous commit's armed pages, and the
		// rest of that set is what the priced lazy copy drained.
		now := c.cowSnap()
		res.CoW.ArmedPages = now.ArmedPages - ep.cowBefore.ArmedPages
		res.CoW.WriteFaults = now.WriteFaults - ep.cowBefore.WriteFaults
		res.CoW.DrainPages = max(c.cowPrevArmed-res.CoW.WriteFaults, 0)
		c.cowPrevArmed = res.CoW.ArmedPages
		c.cowStats.Add(res.CoW)
	}
	if c.cfg.Remus != RemusRaw {
		res.Replication = ep.counts.LocalRepl
		res.Replication.Add(ep.counts.RemoteRepl)
		c.replStats.Add(res.Replication)
	}
	if c.obs == nil {
		return nil
	}
	delta := c.Hypercalls().Sub(ep.hcBefore)
	c.met.hypercalls.Add(delta)
	c.met.cow.Add(res.CoW)
	c.met.repl.Add(res.Replication)
	c.emit(obs.Event{Phase: obs.PhaseCommit, DurNs: int64(time.Since(commitStart)),
		Pages: ep.counts.DirtyPages, Retries: res.Recovery.Retries,
		Hypercalls: &delta, CoW: traced(res.CoW), Repl: traced(res.Replication)})
	if rep.RemoteAcked > 0 || rep.RemoteInFlight > 0 || rep.RemoteDegraded || ep.counts.RemotePages > 0 {
		action := ""
		if rep.RemoteDegraded {
			action = "degraded"
		}
		c.emit(obs.Event{Phase: obs.PhaseReplicate, Pages: ep.counts.RemotePages,
			InFlight: rep.RemoteInFlight, Acked: rep.RemoteAcked,
			Retries: rep.RemoteRetries, Action: action})
	}
	return nil
}

// releaseAndResume lets the committed epoch's buffered outputs go,
// retains the checkpoint for forensics, and returns the domain to
// execution. Unwind: the epoch committed, so a domain that cannot
// resume is quarantined deliberately.
func (c *Controller) releaseAndResume(ep *epochState) error {
	res := ep.res
	c.buf.Release()
	c.lastState = c.guest.CloneState()
	if c.cfg.HistoryDepth > 0 {
		if err := c.retainHistory(); err != nil {
			// History is a forensic nicety, not the safety invariant:
			// degrade with a warning instead of stranding the domain.
			res.Recovery.Warnings = append(res.Recovery.Warnings,
				fmt.Sprintf("checkpoint history not retained: %v", err))
		}
	}
	if err := c.retryOp(res, c.dom.Resume); err != nil {
		return c.haltDomain(res, fmt.Errorf("core: epoch %d resume: %w", c.epoch, err))
	}
	return nil
}

// auditAsync inspects the checkpoint just committed while the VM
// continues to run. Unwind: the commit stands and the VM is already
// Running, so a failed audit is reported without unwinding; findings
// arrive too late to withhold outputs, but the VM is still paused and
// halted — and quarantined if even that fails.
func (c *Controller) auditAsync(ep *epochState) error {
	res := ep.res
	findings, err := c.detector.Scan(&detect.ScanContext{
		VMI: c.vmiBackup, Counts: ep.scanCounts,
	})
	if err != nil {
		res.VirtualTime = c.virtualNow
		return fmt.Errorf("core: epoch %d async audit: %w", c.epoch, err)
	}
	res.Findings = findings
	if len(findings) > 0 {
		if err := c.retryOp(res, c.dom.Pause); err != nil {
			return c.haltDomain(res, fmt.Errorf("core: epoch %d async pause: %w", c.epoch, err))
		}
		inc, err := c.respondAsync(findings)
		if err != nil {
			return c.haltDomain(res, fmt.Errorf("core: epoch %d async respond: %w", c.epoch, err))
		}
		res.Incident = inc
		c.halted = true
	}
	return nil
}

// price converts the epoch's real operation counts into its virtual
// pause and advances the clocks. All pricing arithmetic lives behind
// cost.Model.Pause; this phase only says what the configuration was.
func (c *Controller) price(ep *epochState) {
	res := ep.res
	// Fold the scan counters in only now: in async mode the deferred
	// audit contributes this epoch's VMI node and canary counts, so
	// capturing them before that scan would lose them.
	ep.counts.VMINodes = ep.scanCounts.NodesWalked
	ep.counts.Canaries = ep.scanCounts.CanariesChecked
	res.Counts = ep.counts
	var guestNs time.Duration
	res.Phases, guestNs = cost.Default().Pause(c.cfg.Opt, ep.counts, cost.PauseCtx{
		Workers:      c.cfg.Workers,
		AuditModules: len(c.cfg.Modules),
		AsyncScan:    c.cfg.Scan == ScanAsync,
		ScanCache:    res.ScanCache,
		CoW:          c.cfg.CoW,
		CoWCounts:    res.CoW,
		Epoch:        res.Interval,
	})
	// CoW write faults were taken while the guest was running, so they
	// advance the virtual clock directly rather than extend the pause.
	c.virtualNow += guestNs
	c.totalPause += res.Phases.Total()
	c.virtualNow += res.Phases.Total()
	res.VirtualTime = c.virtualNow
}

// applySLO folds a clean epoch into the tail-latency controller and
// applies its decision to the next epoch's knobs: the epoch interval,
// the pause-path worker pool (detector + checkpointer), the scan-cache
// page budget, and the host pause gate's K when the gate supports
// Resize. With no controller configured this is a single nil check, so
// the untuned epoch loop is unchanged.
func (c *Controller) applySLO(res *EpochResult) {
	ctl := c.cfg.SLO
	if !ctl.Enabled() {
		return
	}
	tun, changed := ctl.Update(c.epoch, res.Interval, res.Phases.Total())
	if gate, ok := c.cfg.PauseGate.(interface{ Resize(int) }); ok && tun.GateK > 0 {
		gate.Resize(tun.GateK)
	}
	if !changed {
		return
	}
	if tun.Interval > 0 {
		c.cfg.EpochInterval = tun.Interval
	}
	if tun.Workers > 0 && tun.Workers != c.cfg.Workers {
		c.cfg.Workers = tun.Workers
		c.detector.SetWorkers(tun.Workers)
		c.ckpt.SetWorkers(tun.Workers)
	}
	if tun.CachePages > 0 && c.scanCache != nil && tun.CachePages != c.scanCache.Cap() {
		c.scanCache.SetCapacity(tun.CachePages)
		c.cfg.ScanCacheCapacity = tun.CachePages
	}
	c.emit(obs.Event{Phase: obs.PhaseSLO, DurNs: int64(tun.Interval), Action: "retune"})
	if c.met.sloSteps != nil {
		c.met.sloSteps.Inc()
	}
}

// retryBackoff is the virtual-time delay charged before the first retry
// of a transiently failing operation; it doubles on each successive one,
// up to maxRetries retries per operation and epoch.
const retryBackoff, maxRetries = time.Millisecond, 3

// retryOp runs op, retrying transient failures with exponential
// virtual-time backoff up to maxRetries times. Fatal failures and
// exhausted budgets return the last error.
func (c *Controller) retryOp(res *EpochResult, op func() error) error {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if attempt >= maxRetries || !fault.IsTransient(err) {
			return err
		}
		res.Recovery.Retries++
		c.virtualNow += backoff
		backoff *= 2
	}
}

// unwindResume returns a stopped domain to execution after a pre-commit
// failure. Nothing was committed or released, and the domain's dirty log
// still holds the failed epoch's pages for the next checkpoint. If even
// the unwind fails, the domain is deliberately halted.
func (c *Controller) unwindResume(res *EpochResult, cause error) error {
	res.Recovery.Unwind = UnwindResume
	if err := c.retryOp(res, c.dom.Resume); err != nil {
		return c.haltDomain(res, errors.Join(cause, err))
	}
	res.VirtualTime = c.virtualNow
	return cause
}

// unwindRollback responds to a mid-commit failure: the epoch's buffered
// outputs are discarded (their epoch will never commit), the primary is
// rolled back to the last clean checkpoint — which a failed commit
// leaves the backup holding — and the domain resumes from there. If the
// rollback itself fails, the domain is deliberately halted.
func (c *Controller) unwindRollback(res *EpochResult, cause error) error {
	res.Recovery.Unwind = UnwindRollback
	c.buf.Discard()
	if err := c.retryOp(res, c.ckpt.Rollback); err != nil {
		return c.haltDomain(res, errors.Join(cause, err))
	}
	// Rollback disarmed the CoW set: nothing is armed anymore, so the
	// next commit's lazy drain starts from nothing.
	c.cowPrevArmed = 0
	// The restored pages stay in the dirty log: the next audit's
	// invalidation covers them like any page the guest wrote, and the
	// revert diff skips them until the next commit.
	c.restored = true
	c.guest.RestoreState(c.lastState)
	rollbackCost := cost.Default().Rollback(c.dom.MemBytes())
	c.virtualNow += rollbackCost
	c.emit(obs.Event{Phase: obs.PhaseRollback, DurNs: int64(rollbackCost),
		Retries: res.Recovery.Retries})
	if err := c.retryOp(res, c.dom.Resume); err != nil {
		return c.haltDomain(res, errors.Join(cause, err))
	}
	res.VirtualTime = c.virtualNow
	return cause
}

// haltDomain deliberately quarantines the VM after an unrecoverable
// fault: the domain stays stopped where it is, the halt is recorded in
// the result, and all further RunEpoch calls return ErrHalted.
func (c *Controller) haltDomain(res *EpochResult, cause error) error {
	c.halted = true
	res.Recovery.Unwind = UnwindHalt
	c.emit(obs.Event{Phase: obs.PhaseHalt, Action: UnwindHalt, Err: cause.Error()})
	res.Recovery.Warnings = append(res.Recovery.Warnings,
		fmt.Sprintf("VM deliberately halted after unrecoverable fault: %v", cause))
	res.VirtualTime = c.virtualNow
	return fmt.Errorf("core: epoch %d: VM halted after unrecoverable fault: %w", c.epoch, cause)
}

// retainHistory keeps the last commit's image with its guest
// bookkeeping. Committed disarms the CoW set armed by the commit just
// above, so with HistoryDepth > 0 CoW is priced as an eager drain every
// epoch, as taking the image would force it.
func (c *Controller) retainHistory() error {
	snap, err := c.ckpt.Committed()
	if err != nil {
		return fmt.Errorf("core: retain history: %w", err)
	}
	// Drop the oldest entry in place: a full history allocates nothing.
	if len(c.history) == c.cfg.HistoryDepth {
		c.history = append(c.history[:0], c.history[1:]...)
	}
	c.history = append(c.history, HistoryEntry{
		Epoch:    c.epoch,
		Snapshot: snap,
		State:    c.lastState,
	})
	return nil
}

// respond is the synchronous failed-audit path: discard outputs,
// capture dumps, optionally replay to pinpoint, and build the report.
func (c *Controller) respond(findings []detect.Finding, scanCounts *detect.ScanCounts) (*Incident, error) {
	c.buf.Discard()
	dumps, err := analyze.CaptureDumps(c.guest, c.ckpt)
	if err != nil {
		return nil, err
	}

	inc := &Incident{Epoch: c.epoch, Findings: findings, Dumps: dumps}
	ops := c.guest.EpochOps()

	if c.cfg.ReplayOnIncident && hasOverflow(findings) {
		// Pinpointing rolls the VM back to the last clean checkpoint and
		// replays the epoch's operations one at a time.
		c.emit(obs.Event{Phase: obs.PhaseRollback, Action: "incident",
			DurNs: int64(cost.Default().Rollback(c.dom.MemBytes()))})
		pin, err := analyze.ReplayPinpoint(c.guest, c.ckpt, c.lastState, ops, findings)
		if err != nil && !errors.Is(err, analyze.ErrNotPinpointed) {
			c.emit(obs.Event{Phase: obs.PhaseReplay, Err: err.Error()})
			return nil, err
		}
		outcome := "not-pinpointed"
		if pin != nil {
			outcome = "pinpointed"
		}
		c.emit(obs.Event{Phase: obs.PhaseReplay, Action: outcome})
		inc.Pinpoint = pin
		if pin != nil {
			if err := dumps.CaptureAttackDump(c.guest); err != nil {
				return nil, err
			}
		}
	}

	report, err := analyze.Postmortem(dumps, findings, inc.Pinpoint)
	if err != nil {
		return nil, err
	}
	inc.Report = report
	inc.Timeline = c.timeline(inc.Pinpoint, ops, scanCounts)
	return inc, nil
}

// respondAsync handles detection on the committed checkpoint: outputs
// are already released, so the response is forensic only.
func (c *Controller) respondAsync(findings []detect.Finding) (*Incident, error) {
	dumps, err := analyze.CaptureDumps(c.guest, c.ckpt)
	if err != nil {
		return nil, err
	}
	report, err := analyze.Postmortem(dumps, findings, nil)
	if err != nil {
		return nil, err
	}
	report.Notes = append(report.Notes,
		"detected by asynchronous scan: outputs from the attack epoch may have been released")
	return &Incident{Epoch: c.epoch, Findings: findings, Dumps: dumps, Report: report}, nil
}

func hasOverflow(findings []detect.Finding) bool {
	for _, f := range findings {
		if f.Kind == detect.KindBufferOverflow {
			return true
		}
	}
	return false
}

// timeline prices the Figure 8 attack-response sequence.
func (c *Controller) timeline(pin *analyze.Pinpoint, ops []guestos.Op, sc *detect.ScanCounts) Timeline {
	// Position of the attack op within the epoch (fraction of interval).
	frac := 0.5
	if pin != nil && len(ops) > 0 {
		for i, op := range ops {
			if op.Seq == pin.OpSeq {
				frac = float64(i+1) / float64(len(ops))
				break
			}
		}
	}
	tl := Timeline{AttackToEpochEnd: time.Duration((1 - frac) * float64(c.cfg.EpochIntervalAt(c.epoch)))}
	tl.SuspendAndScan, tl.ReplayReady, tl.MemDump, tl.CheckpointsToDisk =
		cost.Default().Response(sc.NodesWalked, sc.CanariesChecked, c.dom.MemBytes())
	return tl
}
