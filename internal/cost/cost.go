// Package cost prices checkpoint and scan operations in virtual time.
//
// Macro experiments (normalized runtimes, pause-time breakdowns, web
// latency sweeps) cannot reproduce the paper's absolute numbers off its
// Xeon X5650 testbed, so they run on a virtual clock: workloads really
// execute against guest memory (producing real dirty-page and byte
// counts), and this package converts those counts into phase durations
// using constants calibrated against the paper's Table 1, Figure 4 and
// Table 3. Shapes (who wins, by what factor, where crossovers fall)
// derive from the real operation counts.
package cost

import "time"

// Model holds the calibrated cost constants. All "...Ns" values are
// nanoseconds; byte costs are fractional nanoseconds per byte. Each
// group after the paper's own (scan cache, CoW, delta replication,
// cluster, parallel pause) is consulted only when Counts or PauseCtx
// turn its feature on, so every feature-off configuration reproduces
// the paper-calibrated numbers bit-for-bit.
type Model struct {
	// Domain pause/unpause transitions (Table 1: suspend ~1 ms,
	// resume ~1.5 ms).
	SuspendNs float64
	ResumeNs  float64

	// VMI memory analysis per checkpoint (Table 3: under 2 ms; the
	// paper's no-op scan measures ~0.34 ms).
	VMIScanBaseNs float64
	VMIPerNodeNs  float64
	// CanaryCheckNs prices one canary validation (§5.5: "our scanner
	// can validate 90,000 canaries per millisecond" — ~11 ns each).
	CanaryCheckNs float64

	// Dirty bitmap scan (Optimization 3). Bit-by-bit cost scales with
	// total VM pages; word scan scales with words plus dirty pages.
	BitScanPerPageNs   float64
	WordScanPerWordNs  float64
	WordScanPerDirtyNs float64

	// Page table mapping (Optimization 2). Per-page map/unmap
	// hypercalls plus PFN-to-MFN conversions.
	MapPageNs   float64
	UnmapPageNs float64

	// Copy path (Optimization 1). The Remus path serializes dirty
	// pages through writev over an ssh-encrypted socket; the CRIMES
	// path memcpys into the premapped backup frames. The socket path
	// saturates: beyond SocketSatBytes per epoch the effective per-byte
	// cost grows linearly (TCP backpressure plus encryption CPU
	// contention with the guest).
	SocketByteNs       float64
	SocketSatBytes     float64
	SocketEpochNs      float64 // fixed per-epoch writev/ssh overhead
	MemcpyByteNs       float64
	DirtyHarvestCallNs float64

	// VMI setup phases (Table 3), paid once, not per checkpoint.
	VMIInitNs       float64
	VMIPreprocessNs float64

	// Volatility phases (§5.3): init ~2.5 s, process scan ~500 ms,
	// process memory dump ~5 s (§5.5).
	VolatilityInitNs   float64
	VolatilityScanNs   float64
	VolatilityDumpNs   float64
	CheckpointToDiskNs float64 // writing full checkpoints to disk, "tens of seconds"

	// AddressSanitizer inline instrumentation: multiplies workload
	// execution time (paper: +40-60 %). Per-workload factors scale this.
	ASanBaseFactor float64

	// Scan-path cache (cached, incremental VMI). A cache miss prices a
	// MapPageNs foreign map and every cache drop (eviction,
	// invalidation, flush) an UnmapPageNs, reusing the mapping constants
	// above; the constants here price the bookkeeping that is unique to
	// the cache.
	ScanCacheHitNs   float64 // LRU lookup + bump for a cached page
	ScanSweepEntryNs float64 // per cached entry examined by an invalidation sweep
	ScanMemoHitNs    float64 // returning one memoized structure walk

	// Copy-on-write commit path. Arming write protection on the dirty
	// set replaces copying it under pause: one batched event-config
	// hypercall (CowArmBaseNs) plus an EPT permission flip per page
	// (CowArmPageNs, ~27x cheaper than memcpying the page). Each write
	// fault the guest then takes on a protected page costs a VM exit
	// plus an eager copy-before-write (CowFaultNs), charged to guest
	// execution time rather than the pause window.
	CowArmBaseNs float64
	CowArmPageNs float64
	CowFaultNs   float64

	// Delta replication (v2 wire protocol). Every page carried by a
	// delta-mode conduit is content-hashed (DeltaHashPageNs) and, when a
	// last-shipped base exists, run through the XOR/run-length encoder
	// (DeltaEncodeByteNs per page byte). The CPU spent is charged
	// against the socket bytes saved, so the tradeoff is visible in
	// virtual time.
	DeltaHashPageNs   float64
	DeltaEncodeByteNs float64

	// Multi-host cluster path. A VM whose Remus replica is anti-affine
	// on another host ships its dirty pages over the inter-host link
	// (CrossHostByteNs per byte, slower than the local socket) and pays
	// one link round trip per epoch for the replica's acknowledgement
	// (CrossHostRTTNs). A host failover pays PromoteBaseNs once per
	// affected VM (detection, replica adoption, controller re-init),
	// and ring-membership churn pays RebalancePageNs per page moved to
	// its new home.
	CrossHostByteNs float64
	CrossHostRTTNs  float64
	PromoteBaseNs   float64
	RebalancePageNs float64

	// Parallel pause path. Sharded copy/scan workers obey Amdahl's law:
	// WorkerSerialFrac is the fraction of each parallelized phase that
	// stays serial (shard dispatch, cache-line and memory-bus
	// contention), and WorkerSpawnNs is the per-worker fork/join cost
	// added to every parallelized phase.
	WorkerSerialFrac float64
	WorkerSpawnNs    float64
}

// Default returns the model calibrated to the paper's reported
// component costs.
func Default() Model {
	return Model{
		SuspendNs: 1.0e6,
		ResumeNs:  1.5e6,

		VMIScanBaseNs: 3.0e5,
		VMIPerNodeNs:  2.0e3,
		CanaryCheckNs: 11,

		BitScanPerPageNs:   10,
		WordScanPerWordNs:  30,
		WordScanPerDirtyNs: 10,

		MapPageNs:   1.0e3,
		UnmapPageNs: 3.0e2,

		SocketByteNs:       2.4,
		SocketSatBytes:     128 << 20,
		SocketEpochNs:      3.0e5,
		MemcpyByteNs:       0.8,
		DirtyHarvestCallNs: 5.0e4,

		VMIInitNs:       67.096e6,
		VMIPreprocessNs: 53.678e6,

		VolatilityInitNs:   2.5e9,
		VolatilityScanNs:   5.0e8,
		VolatilityDumpNs:   5.0e9,
		CheckpointToDiskNs: 30e9,

		ASanBaseFactor: 1.5,

		ScanCacheHitNs:   25,
		ScanSweepEntryNs: 15,
		ScanMemoHitNs:    150,

		CowArmBaseNs: 5.0e4,
		CowArmPageNs: 120,
		CowFaultNs:   8.0e3,

		DeltaHashPageNs:   400,
		DeltaEncodeByteNs: 0.5,

		CrossHostByteNs: 3.2,
		CrossHostRTTNs:  2.0e5,
		PromoteBaseNs:   5.0e7,
		RebalancePageNs: 1.31e4,

		WorkerSerialFrac: 0.05,
		WorkerSpawnNs:    2.0e4,
	}
}

// Optimization selects which of CRIMES' checkpointing optimizations are
// active, matching the paper's evaluation variants.
type Optimization int

// Optimization levels, cumulative as in §5.2.
const (
	// NoOpt is Remus modified to run a VMI scan: socket copy, per-epoch
	// mapping, bit-by-bit scan.
	NoOpt Optimization = iota + 1
	// Memcpy adds the local in-memory copy (Optimization 1).
	Memcpy
	// Premap adds the global one-time PFN-to-MFN mapping (Optimization 2).
	Premap
	// Full adds the word-granularity dirty scan (Optimization 3).
	Full
)

// String renders the optimization level.
func (o Optimization) String() string {
	switch o {
	case NoOpt:
		return "No-opt"
	case Memcpy:
		return "Memcpy"
	case Premap:
		return "Pre-map"
	case Full:
		return "Full"
	default:
		return "unknown"
	}
}

// Counts are the real operation counts one checkpoint produced.
type Counts struct {
	TotalPages  int
	DirtyPages  int
	BytesCopied int
	VMINodes    int // kernel list nodes the audit walked
	Canaries    int // canaries validated by the audit
	DiskBlocks  int // dirty disk blocks replicated (disk extension)
	RemotePages int // pages also shipped to a remote backup (HA extension)

	// LocalRepl and RemoteRepl carry the v2 replication wire protocol's
	// per-epoch traffic for the local conduit and the remote HA conduit
	// respectively. Both stay zero in raw mode, in which case the
	// classic socket pricing above applies unchanged.
	LocalRepl  ReplicationCounts
	RemoteRepl ReplicationCounts
}

// ReplicateDelta prices one epoch's delta-mode replication: the socket
// path over the bytes actually on the wire (same saturating formula as
// the raw path) plus the protocol's CPU — a content hash per carried
// page and the XOR encoder over every page that had a base. Small-write
// workloads trade a few hundred ns/page of hashing for thousands of
// ns/page of socket and encryption time.
func (m Model) ReplicateDelta(r ReplicationCounts) time.Duration {
	bytes := float64(r.WireBytes)
	factor := 1 + bytes/m.SocketSatBytes
	return ns(m.SocketEpochNs*float64(r.Batches) +
		m.SocketByteNs*bytes*factor +
		m.DeltaHashPageNs*float64(r.Pages) +
		m.DeltaEncodeByteNs*4096*float64(r.EncodedPages))
}

// Phases is the virtual-time breakdown of one checkpoint's paused
// interval, mirroring the paper's suspend/vmi/bitscan/map/copy/resume
// rows (Table 1, Figure 4).
type Phases struct {
	Suspend time.Duration
	VMI     time.Duration
	Bitscan time.Duration
	Map     time.Duration
	Copy    time.Duration
	Resume  time.Duration
}

// Total is the full paused time.
func (p Phases) Total() time.Duration {
	return p.Suspend + p.VMI + p.Bitscan + p.Map + p.Copy + p.Resume
}

// PauseCtx is everything besides the optimization level and the real
// operation counts that decides what one pause costs. The zero value is
// the paper's configuration (one VM, one host, serial pause path,
// synchronous single-module audit, no scan cache, eager commit), and a
// field left at zero contributes nothing: each degenerate argument
// reproduces the simpler configuration's numbers bit-for-bit.
type PauseCtx struct {
	// Workers is the host's pause-path worker pool; <= 1 is the exact
	// serial path of Table 1 / Figure 3 / Figure 4.
	Workers int
	// Concurrent is the number of co-located VMs inside overlapping
	// pause windows: the fleet scheduler's K bound when staggered, the
	// whole fleet when epoch boundaries are synchronized.
	Concurrent int
	// Hosts is the cluster size; with more than one the replica is
	// anti-affine on another host.
	Hosts int
	// AuditModules is the number of detector modules a synchronous audit
	// scans concurrently on the worker pool.
	AuditModules int
	// AsyncScan audits the committed checkpoint while the guest runs.
	AsyncScan bool
	// ScanCache is the audit's real scan-path cache traffic.
	ScanCache ScanCacheCounts
	// CoW selects the copy-on-write commit, CoWCounts its real counts,
	// and Epoch the interval the lazy copies may overlap.
	CoW       bool
	CoWCounts CoWCounts
	Epoch     time.Duration
}

// Pause prices one checkpoint's paused interval — the only place a
// pause is priced — plus the guest-visible overhead (CoW write faults)
// the caller charges to epoch execution time rather than the pause. The
// configuration's layers compose in the fixed order of the steps below.
func (m Model) Pause(opt Optimization, c Counts, ctx PauseCtx) (p Phases, guestOverhead time.Duration) {
	// 1. CoW byte strip: armed pages are not copied while the guest is
	// frozen; eagerly committed disk blocks keep their bytes.
	cw := ctx.CoWCounts
	if ctx.CoW {
		if c.BytesCopied -= cw.ArmedPages * 4096; c.BytesCopied < 0 {
			c.BytesCopied = 0
		}
	}
	// 2. Worker split: concurrent VMs divide the pool evenly, at least
	// one worker each. With more than one worker the remote HA ship is
	// pipelined behind the resumed guest, so it leaves the pause.
	workers, queue := ctx.Workers, 0.0
	if ctx.Concurrent > 1 {
		pool := max(workers, 1)
		workers = max(pool/ctx.Concurrent, 1)
		if ctx.Concurrent > pool {
			queue = float64(ctx.Concurrent) / float64(pool)
		}
	}
	if workers > 1 {
		c.RemotePages = 0
	}

	p.Suspend = ns(m.SuspendNs)
	p.Resume = ns(m.ResumeNs)
	p.VMI = ns(m.auditNs(c.VMINodes, c.Canaries))
	p.Bitscan = m.BitmapScan(c.TotalPages, c.DirtyPages, opt >= Full)
	perPage := m.MapPageNs + m.UnmapPageNs
	switch {
	case opt >= Premap:
		// Global mapping established once at startup; per-epoch map
		// cost is only the dirty-bitmap harvest hypercall.
		p.Map = ns(m.DirtyHarvestCallNs)
	case opt == Memcpy:
		// Maps both the primary and the backup VM's pages each epoch.
		p.Map = ns(2*perPage*float64(c.DirtyPages) + m.DirtyHarvestCallNs)
	default:
		p.Map = ns(perPage*float64(c.DirtyPages) + m.DirtyHarvestCallNs)
	}
	switch {
	case opt >= Memcpy:
		p.Copy = ns(m.MemcpyByteNs * float64(c.BytesCopied))
	case c.LocalRepl.Batches > 0:
		// Delta-mode socket path: priced by the bytes actually shipped
		// plus the hash/encode CPU. Disk bytes still travel raw (the
		// conduit only carries memory pages), so any byte count beyond
		// the dirty pages keeps the classic socket cost.
		p.Copy = m.ReplicateDelta(c.LocalRepl)
		if extra := c.BytesCopied - c.DirtyPages*4096; extra > 0 {
			b := float64(extra)
			p.Copy += ns(m.SocketByteNs * b * (1 + b/m.SocketSatBytes))
		}
	default:
		p.Copy = m.socket(float64(c.BytesCopied))
	}
	switch {
	case c.RemotePages <= 0:
	case c.RemoteRepl.Batches > 0:
		// Delta-mode remote ship: pay for the wire bytes it used.
		p.Copy += m.ReplicateDelta(c.RemoteRepl)
	default:
		// Remote HA replication always pays the socket path, whatever
		// the local optimization level.
		p.Copy += m.socket(float64(c.RemotePages) * 4096)
	}

	// The sharded phases — the Full level's word scan and the memcpy copy
	// — obey Amdahl's law; the socket path is inherently serial and
	// suspend, resume and per-epoch mapping are hypercall paths.
	if workers > 1 {
		speedup := m.Speedup(workers)
		spawn := ns(m.WorkerSpawnNs * float64(workers))
		if opt >= Full {
			p.Bitscan = time.Duration(float64(p.Bitscan)/speedup) + spawn
		}
		if opt >= Memcpy {
			p.Copy = time.Duration(float64(p.Copy)/speedup) + spawn
		}
	}
	// 3. Contention queue: with more VMs contending than workers the
	// excess pause windows serialize on the pool-sharded phases.
	if queue > 0 {
		p.Bitscan = time.Duration(float64(p.Bitscan) * queue)
		p.Copy = time.Duration(float64(p.Copy) * queue)
	}
	// 4. CoW arm and lazy excess: the previous commit's lazy copies
	// overlap the epoch and only their excess extends the pause (the
	// next commit waits for convergence); faults are guest time.
	if ctx.CoW {
		p.Copy += ns(m.CowArmBaseNs + m.CowArmPageNs*float64(cw.ArmedPages))
		if lazy := ns(m.MemcpyByteNs * float64(cw.DrainPages) * 4096); lazy > ctx.Epoch {
			p.Copy += lazy - ctx.Epoch
		}
		guestOverhead = ns(m.CowFaultNs * float64(cw.WriteFaults))
	}
	// 5. Cross-host ack: the pause holds until the anti-affine replica
	// acknowledges the epoch's dirty pages.
	p.Copy += m.ReplicateCrossHost(c.DirtyPages, ctx.Hosts)
	// 6. VMI adjustments: an async audit leaves the pause; a synchronous
	// one scans its modules concurrently, then pays its scan-cache traffic.
	switch {
	case ctx.AsyncScan:
		p.VMI = 0
	case workers > 1 && ctx.AuditModules > 1:
		p.VMI = time.Duration(float64(p.VMI) / m.Speedup(min(workers, ctx.AuditModules)))
	}
	p.VMI += m.ScanCacheOverhead(ctx.ScanCache)
	return p, guestOverhead
}

// auditNs is one VMI audit: the fixed scan base plus the kernel list
// nodes walked and the canaries validated.
func (m Model) auditNs(nodes, canaries int) float64 {
	return m.VMIScanBaseNs + m.VMIPerNodeNs*float64(nodes) + m.CanaryCheckNs*float64(canaries)
}

// socket prices one epoch's raw ship through the encrypted socket path.
func (m Model) socket(bytes float64) time.Duration {
	factor := 1 + bytes/m.SocketSatBytes
	return ns(m.SocketEpochNs + m.SocketByteNs*bytes*factor)
}

// Speedup is the Amdahl-law speedup the model predicts for a
// parallelized phase at the given worker count.
func (m Model) Speedup(workers int) float64 {
	if workers <= 1 {
		return 1
	}
	return 1 / (m.WorkerSerialFrac + (1-m.WorkerSerialFrac)/float64(workers))
}

// ReplicateCrossHost prices shipping one epoch's dirty pages to an
// anti-affine replica on another host: the inter-host link's per-byte
// cost plus one round trip for the replica's acknowledgement. With
// hosts <= 1 there is no other host to ship to and the cost is zero.
func (m Model) ReplicateCrossHost(pages, hosts int) time.Duration {
	if hosts <= 1 || pages <= 0 {
		return 0
	}
	return ns(m.CrossHostRTTNs + m.CrossHostByteNs*float64(pages)*4096)
}

// Promote prices one VM's failover after its host dies: the fixed
// promotion cost (failure detection amortized per VM, replica adoption,
// controller re-initialization) plus a full cross-host resync to re-arm
// a fresh anti-affine replica elsewhere.
func (m Model) Promote(guestPages, hosts int) time.Duration {
	return ns(m.PromoteBaseNs) + m.ReplicateCrossHost(guestPages, hosts)
}

// RebalanceChurn prices ring-membership churn: every page whose VM
// moved to a new home host when a host joined or left must cross the
// inter-host link once.
func (m Model) RebalanceChurn(pagesMoved int) time.Duration {
	if pagesMoved <= 0 {
		return 0
	}
	return ns(m.RebalancePageNs * float64(pagesMoved))
}

// ScanCacheOverhead prices one epoch's scan-path cache traffic: the
// map/unmap hypercalls the cache actually performed plus its lookup,
// sweep, and memo bookkeeping. The base VMI term already shrinks on memo
// hits because memoized walks report zero nodes walked. The uncached
// configuration — every touched page mapped and unmapped again each
// epoch — is priced by the same formula, since there every read is a
// miss and every mapping is flushed.
func (m Model) ScanCacheOverhead(s ScanCacheCounts) time.Duration {
	return ns(m.MapPageNs*float64(s.CacheMisses) +
		m.UnmapPageNs*float64(s.CacheUnmaps) +
		m.ScanCacheHitNs*float64(s.CacheHits) +
		m.ScanSweepEntryNs*float64(s.CacheSwept) +
		m.ScanMemoHitNs*float64(s.MemoHits))
}

// Setup prices the one-time initialization: VMI init and preprocessing
// (Table 3) plus, at Premap and above, the global mapping of both the
// primary's and the backup's guestPages.
func (m Model) Setup(opt Optimization, guestPages int) time.Duration {
	d := ns(m.VMIInitNs + m.VMIPreprocessNs)
	if opt >= Premap {
		d += ns((m.MapPageNs + m.UnmapPageNs) * float64(2*guestPages))
	}
	return d
}

// Rollback prices restoring the full VM from the local backup: a memcpy
// of guest memory.
func (m Model) Rollback(memBytes uint64) time.Duration {
	return ns(m.MemcpyByteNs * float64(memBytes))
}

// Response prices the fixed steps of Figure 8's incident response: the
// pause plus audit at detection, the point the rolled-back VM has
// resumed for replay (detection + full-VM rollback + resume), the
// Volatility process-dump extraction, and persisting the full system
// checkpoints for later analysis.
func (m Model) Response(nodes, canaries int, memBytes uint64) (suspendAndScan, replayReady, memDump, toDisk time.Duration) {
	suspendAndScan = ns(m.SuspendNs + m.auditNs(nodes, canaries))
	replayReady = suspendAndScan + ns(m.MemcpyByteNs*float64(memBytes)+m.ResumeNs)
	return suspendAndScan, replayReady, ns(m.VolatilityDumpNs), ns(m.CheckpointToDiskNs)
}

// BitmapScan prices a standalone dirty-bitmap scan (Figure 6b's
// simulated scan cost versus VM size).
func (m Model) BitmapScan(totalPages, dirtyPages int, optimized bool) time.Duration {
	if optimized {
		words := (totalPages + 63) / 64
		return ns(m.WordScanPerWordNs*float64(words) + m.WordScanPerDirtyNs*float64(dirtyPages))
	}
	return ns(m.BitScanPerPageNs * float64(totalPages))
}

func ns(v float64) time.Duration { return time.Duration(v) }
