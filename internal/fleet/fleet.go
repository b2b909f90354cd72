// Package fleet runs and schedules many CRIMES-protected VMs on one
// host (the paper's §6 scalability setting): N per-VM controllers share
// one hypervisor and its pause-path worker pool, and a scheduler
// staggers epoch boundaries so at most K VMs are inside the pause
// window (paused or committing) at once — bounding both the host's
// aggregate pause time and contention on the shared Config.Workers
// pool. Failures are isolated per VM: one guest halting on an incident,
// unwinding a failed epoch, or degrading to local-only replication
// never stalls its neighbors' epoch loops.
package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/slo"
)

// Config configures a fleet of co-located CRIMES-protected VMs.
type Config struct {
	// VMs is the number of protected guests (default 1).
	VMs int
	// GuestPages is each guest's memory size in 4 KiB pages (default
	// 1024). The host is sized automatically: every guest needs its own
	// frames plus a same-sized checkpoint backup domain.
	GuestPages int
	// MaxPaused bounds how many VMs may be inside the pause window at
	// once — the scheduler's K. 0 means unbounded unless Stagger is
	// set: every VM may hit its epoch boundary simultaneously
	// (synchronized scheduling, the worst case for pool contention).
	MaxPaused int
	// Stagger staggers epoch boundaries across the fleet. When set and
	// MaxPaused is 0, the bound defaults to 1 (fully staggered: one VM
	// in its pause window at a time).
	Stagger bool
	// Windows boots Windows guest profiles instead of Linux.
	Windows bool
	// Seed is the base boot entropy; VM i boots with Seed+i so runs are
	// deterministic but canary secrets differ per guest.
	Seed int64
	// Names optionally names the VMs; unnamed VMs default to vmN.
	Names []string
	// ScanCacheBudgetPages is the host-wide memory budget for scan-path
	// page-mapping caches, in pages, divided evenly across the VMs (each
	// gets at least one page). 0 leaves Core.ScanCacheCapacity as
	// configured. Only meaningful when Core.ScanCache is enabled.
	ScanCacheBudgetPages int
	// SLO, when enabled (TargetP99 > 0), gives every VM its own
	// tail-latency controller steering its epoch interval, pause-path
	// workers, and scan-cache budget — and, through the shared gate's
	// Resize, the host's concurrent-pause bound K. The config's VMs
	// field is filled in from the fleet size. The zero value changes
	// nothing.
	SLO slo.Config
	// Core is the per-VM controller configuration, copied to every VM.
	// Its PauseGate is overwritten with the fleet's shared gate.
	Core core.Config
}

func (cfg *Config) setDefaults() {
	if cfg.VMs <= 0 {
		cfg.VMs = 1
	}
	if cfg.GuestPages <= 0 {
		cfg.GuestPages = 1024
	}
	if cfg.Stagger && cfg.MaxPaused <= 0 {
		cfg.MaxPaused = 1
	}
	if cfg.MaxPaused <= 0 || cfg.MaxPaused > cfg.VMs {
		cfg.MaxPaused = cfg.VMs
	}
	if cfg.Core.Modules == nil {
		cfg.Core.Modules = detect.DefaultModules()
	}
}

// VM is one protected guest in the fleet.
type VM struct {
	Index      int
	Name       string
	Guest      *guestos.Guest
	Controller *core.Controller

	mu    sync.Mutex
	stats Stats
}

// Stats reports one VM's accounting after (or during) a fleet run. All
// durations are virtual time from the VM's own controller, so they are
// deterministic for a fixed seed regardless of goroutine scheduling.
type Stats struct {
	Name string
	// Host labels which host currently runs the VM. Empty for a
	// single-host fleet; the cluster control plane sets it so its
	// roll-ups reuse this table instead of keeping a parallel one.
	Host string
	// Epochs counts RunEpoch attempts; CleanEpochs those that completed
	// with no incident, error, or unwind.
	Epochs      int
	CleanEpochs int
	// DirtyPages is the total dirty pages checkpointed across epochs.
	DirtyPages int
	// Findings and Incidents count detector evidence and failed audits.
	Findings  int
	Incidents int
	// Halted reports whether the VM was quarantined (incident or
	// unrecoverable fault).
	Halted bool
	// Recovery roll-ups across the run.
	Retries      int
	Unwinds      int
	Degradations int
	// PauseTotal and VirtualTime are the controller's virtual clocks.
	PauseTotal  time.Duration
	VirtualTime time.Duration
	// StaggerOffset is the VM's scheduled epoch-boundary offset under
	// staggered scheduling (informational; zero when synchronized).
	StaggerOffset time.Duration
	// Hypercalls is the VM's per-domain attributed hypercall footprint,
	// summed over its primary and checkpoint backup domains.
	Hypercalls hv.Hypercalls
	// ScanCache is the VM's cumulative scan-path cache activity;
	// ScanCachePages / ScanCacheCapacity its live mapping footprint and
	// budget share. All zero when the scan cache is off.
	ScanCache         cost.ScanCacheCounts
	ScanCachePages    int
	ScanCacheCapacity int
	// CoW is the VM's cumulative copy-on-write commit activity. All
	// zero when CoW checkpointing is off.
	CoW cost.CoWCounts
	// Replication is the VM's cumulative delta-replication wire
	// activity across its local and remote conduits. All zero when the
	// raw wire protocol is in use.
	Replication cost.ReplicationCounts
	// Err records the error that stopped the VM's loop, if any.
	Err string
}

// Fleet owns N protected VMs on one shared hypervisor.
type Fleet struct {
	cfg  Config
	hv   *hv.Hypervisor
	gate *PauseGate

	// closeMu serializes Close against itself so concurrent teardowns
	// (e.g. a test's deferred cleanup racing an explicit shutdown) see
	// the second call as a no-op rather than double-destroying domains.
	closeMu sync.Mutex
	vms     []*VM
}

// New boots a fleet: one shared hypervisor sized for every guest and
// its backup, N guests with per-VM seeds, and N controllers sharing one
// pause gate. On any boot failure everything already created is torn
// down before returning.
func New(cfg Config) (*Fleet, error) {
	cfg.setDefaults()
	// Per VM: guest frames + same-sized checkpoint backup + slack for
	// kernel structures; plus host slack.
	frames := cfg.VMs*(2*cfg.GuestPages+32) + 64
	f := &Fleet{
		cfg:  cfg,
		hv:   hv.New(frames),
		gate: NewPauseGate(cfg.MaxPaused),
	}
	prof := guestos.LinuxProfile()
	if cfg.Windows {
		prof = guestos.WindowsProfile()
	}
	interval := cfg.Core.EpochInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	for i := 0; i < cfg.VMs; i++ {
		name := fmt.Sprintf("vm%d", i)
		if i < len(cfg.Names) && cfg.Names[i] != "" {
			name = cfg.Names[i]
		}
		ccfg := cfg.Core
		ccfg.PauseGate = f.gate
		if cfg.ScanCacheBudgetPages > 0 && ccfg.ScanCache != core.ScanCacheOff {
			// Split the budget without dropping the integer-division
			// remainder: the first budget%VMs VMs take one extra page.
			// A nonzero budget always grants at least one page — the
			// plain quotient goes to zero once budget < VMs, and a zero
			// capacity means "cache the whole domain", silently blowing
			// the budget instead of shrinking under it.
			per := cfg.ScanCacheBudgetPages / cfg.VMs
			if i < cfg.ScanCacheBudgetPages%cfg.VMs {
				per++
			}
			if per < 1 {
				per = 1
			}
			ccfg.ScanCacheCapacity = per
		}
		if cfg.SLO.TargetP99 > 0 {
			// One controller per VM: the loop state is per-VM, only the
			// gate K recommendation is host-scoped (any VM may apply it
			// to the shared, resizable gate).
			scfg := cfg.SLO
			scfg.VMs = cfg.VMs
			ccfg.SLO = slo.New(scfg)
		}
		ctl, err := core.Launch(f.hv, core.GuestSpec{
			Name: name, Pages: cfg.GuestPages,
			Boot: guestos.BootConfig{Profile: prof, Seed: cfg.Seed + int64(i)},
		}, ccfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: %w", err)
		}
		vm := NewVM(i, name, "", ctl.Guest(), ctl)
		if cfg.Stagger {
			vm.stats.StaggerOffset = interval * time.Duration(i) / time.Duration(cfg.VMs)
		}
		f.vms = append(f.vms, vm)
	}
	return f, nil
}

// NewVM wraps an already-booted guest and its controller as a fleet VM
// so schedulers other than Fleet (the cluster control plane, tests) can
// reuse the per-VM epoch loop and stats accounting. host labels the
// VM's current host for Stats/Render attribution; empty means
// single-host.
func NewVM(index int, name, host string, g *guestos.Guest, ctl *core.Controller) *VM {
	vm := &VM{Index: index, Name: name, Guest: g, Controller: ctl}
	vm.stats.Name = name
	vm.stats.Host = host
	return vm
}

// SetHost relabels the VM's host attribution (e.g. after a cluster
// failover promotes its replica on another host).
func (vm *VM) SetHost(host string) {
	vm.mu.Lock()
	vm.stats.Host = host
	vm.mu.Unlock()
}

// SetStaggerOffset records the VM's scheduled epoch-boundary offset
// (informational, surfaced in Stats).
func (vm *VM) SetStaggerOffset(off time.Duration) {
	vm.mu.Lock()
	vm.stats.StaggerOffset = off
	vm.mu.Unlock()
}

// HV returns the shared hypervisor.
func (f *Fleet) HV() *hv.Hypervisor { return f.hv }

// VMs returns the fleet's VMs in index order.
func (f *Fleet) VMs() []*VM { return f.vms }

// MaxPaused returns the scheduler's configured K bound.
func (f *Fleet) MaxPaused() int { return f.cfg.MaxPaused }

// Work produces the guest work for one VM's epoch (1-based). Returning
// a nil function runs an idle epoch for that VM.
type Work func(vm *VM, epoch int) func(*guestos.Guest) error

// Run drives every VM through up to `epochs` epochs concurrently, one
// goroutine per VM, with the shared pause gate staggering their epoch
// boundaries. A VM that halts on an incident or fails with an error
// stops early and releases its pause slot; the others keep running
// their full schedule. Run may be called again to continue a fleet
// whose VMs have not halted.
func (f *Fleet) Run(epochs int, work Work) *Report {
	var wg sync.WaitGroup
	for _, vm := range f.vms {
		wg.Add(1)
		go func(vm *VM) {
			defer wg.Done()
			vm.RunEpochs(epochs, work)
		}(vm)
	}
	wg.Wait()
	return f.Report()
}

// RunEpochs drives this VM through up to `epochs` epochs, accumulating
// its stats. It is the per-VM half of Fleet.Run, exported so other
// schedulers (the cluster control plane) can drive one epoch — or one
// incarnation's worth — at a time. A halted VM returns immediately;
// an error or incident stops the loop early.
func (vm *VM) RunEpochs(epochs int, work Work) {
	for e := 1; e <= epochs; e++ {
		if vm.Controller.Halted() {
			return
		}
		var fn func(*guestos.Guest) error
		if work != nil {
			fn = work(vm, e)
		}
		res, err := vm.Controller.RunEpoch(fn)
		vm.mu.Lock()
		vm.stats.Epochs++
		if res != nil {
			vm.stats.Findings += len(res.Findings)
			vm.stats.DirtyPages += res.Counts.DirtyPages
			vm.stats.Retries += res.Recovery.Retries
			if res.Recovery.Unwind != core.UnwindNone {
				vm.stats.Unwinds++
			}
			vm.stats.Degradations += len(res.Recovery.Degradations)
			if res.Incident != nil {
				vm.stats.Incidents++
			}
			if err == nil && res.Incident == nil && res.Recovery.Unwind == core.UnwindNone {
				vm.stats.CleanEpochs++
			}
		}
		if err != nil {
			vm.stats.Err = err.Error()
		}
		vm.mu.Unlock()
		if err != nil || vm.Controller.Halted() {
			return
		}
	}
}

// Stats snapshots the VM's accounting, folding in the controller's
// current clocks and the per-domain hypercall attribution.
func (vm *VM) Stats() Stats {
	vm.mu.Lock()
	s := vm.stats
	vm.mu.Unlock()
	s.Halted = vm.Controller.Halted()
	s.PauseTotal = vm.Controller.TotalPause()
	s.VirtualTime = vm.Controller.VirtualTime()
	s.Hypercalls = vm.Controller.Hypercalls()
	s.ScanCache = vm.Controller.ScanCacheTotals()
	s.ScanCachePages, s.ScanCacheCapacity = vm.Controller.ScanCacheLive()
	s.CoW = vm.Controller.CoWTotals()
	s.Replication = vm.Controller.ReplicationTotals()
	return s
}

// Report is the fleet-wide accounting snapshot.
type Report struct {
	// VMs holds per-VM stats in index order.
	VMs []Stats
	// MaxPaused is the configured K; MaxPausedObserved the peak number
	// of VMs actually inside the pause window simultaneously.
	MaxPaused         int
	MaxPausedObserved int
	// Stagger reports the scheduling mode.
	Stagger bool
	// AggregatePause sums every VM's virtual paused time — the fleet's
	// total lost guest time. WorstPause is the worst single VM's.
	AggregatePause time.Duration
	WorstPause     time.Duration
	// Roll-ups across the fleet.
	TotalEpochs    int
	TotalFindings  int
	TotalIncidents int
	HaltedVMs      int
	// Hypercalls is the host-wide aggregate across all domains.
	Hypercalls hv.Hypercalls
	// ScanCache aggregates every VM's scan-path cache counters;
	// ScanCachePages the live mappings currently held fleet-wide. Both
	// zero when the scan cache is off.
	ScanCache      cost.ScanCacheCounts
	ScanCachePages int
	// CoW aggregates every VM's copy-on-write commit counters; zero
	// when CoW checkpointing is off.
	CoW cost.CoWCounts
	// Replication aggregates every VM's delta-replication wire
	// counters; zero when the raw wire protocol is in use.
	Replication cost.ReplicationCounts
}

// Report snapshots the fleet's current accounting.
func (f *Fleet) Report() *Report {
	r := &Report{
		// The live gate width, not the configured bound: an SLO
		// controller may have resized the gate mid-run.
		MaxPaused:         f.gate.K(),
		MaxPausedObserved: f.gate.Peak(),
		Stagger:           f.cfg.Stagger,
		Hypercalls:        f.hv.Calls(),
	}
	for _, vm := range f.vms {
		r.Fold(vm.Stats())
	}
	if f.cfg.Core.Obs.Enabled() {
		reg := f.cfg.Core.Obs.Registry()
		reg.Gauge("crimes_fleet_vms").Set(int64(len(r.VMs)))
		reg.Gauge("crimes_fleet_halted_vms").Set(int64(r.HaltedVMs))
		reg.Gauge("crimes_fleet_max_paused").Set(int64(r.MaxPaused))
		reg.Gauge("crimes_fleet_peak_paused").Set(int64(r.MaxPausedObserved))
	}
	return r
}

// Fold appends one VM's stats to the table and adds them to the
// roll-ups. Fleet.Report and the cluster control plane's report both
// build their aggregates through it.
func (r *Report) Fold(s Stats) {
	r.VMs = append(r.VMs, s)
	r.AggregatePause += s.PauseTotal
	if s.PauseTotal > r.WorstPause {
		r.WorstPause = s.PauseTotal
	}
	r.TotalEpochs += s.Epochs
	r.TotalFindings += s.Findings
	r.TotalIncidents += s.Incidents
	if s.Halted {
		r.HaltedVMs++
	}
	r.ScanCache.Add(s.ScanCache)
	r.ScanCachePages += s.ScanCachePages
	r.CoW.Add(s.CoW)
	r.Replication.Add(s.Replication)
}

// Render formats the per-VM fleet table and the aggregate summary.
func (r *Report) Render() string {
	var b strings.Builder
	mode := "synchronized"
	if r.Stagger {
		mode = "staggered"
	}
	fmt.Fprintf(&b, "fleet: %d VMs, %s scheduling, K=%d (peak paused observed: %d)\n",
		len(r.VMs), mode, r.MaxPaused, r.MaxPausedObserved)
	// The host column appears only when some VM carries a host label, so
	// single-host fleet output is unchanged.
	host := func(string) string { return "" }
	for _, s := range r.VMs {
		if s.Host != "" {
			host = func(h string) string { return fmt.Sprintf("%-10s ", h) }
			break
		}
	}
	fmt.Fprintf(&b, "%-10s %s%6s %6s %8s %9s %7s %12s %12s %10s %s\n",
		"vm", host("host"), "epochs", "clean", "findings", "incidents", "dirty", "pause", "vtime", "hcalls", "status")
	for _, s := range r.VMs {
		status := "ok"
		switch {
		case s.Halted:
			status = "halted"
		case s.Err != "":
			status = "error"
		}
		fmt.Fprintf(&b, "%-10s %s%6d %6d %8d %9d %7d %12v %12v %10d %s\n",
			s.Name, host(s.Host), s.Epochs, s.CleanEpochs, s.Findings, s.Incidents, s.DirtyPages,
			s.PauseTotal.Round(time.Microsecond), s.VirtualTime.Round(time.Millisecond),
			s.Hypercalls.Total(), status)
	}
	fmt.Fprintf(&b, "aggregate: pause=%v worst=%v epochs=%d findings=%d incidents=%d halted=%d\n",
		r.AggregatePause.Round(time.Microsecond), r.WorstPause.Round(time.Microsecond),
		r.TotalEpochs, r.TotalFindings, r.TotalIncidents, r.HaltedVMs)
	// Each mode's line appears only when the mode did work (Summary is
	// "" otherwise), so the default report is unchanged.
	b.WriteString(r.ScanCache.Summary(fmt.Sprint(r.ScanCachePages)))
	b.WriteString(r.CoW.Summary())
	b.WriteString(r.Replication.Summary())
	return b.String()
}

// Close tears the fleet down: every controller is closed and every
// domain it touched (primary, backup, remote) is destroyed, returning
// all machine frames to the host pool. Close is idempotent and safe to
// call concurrently — a second close, including one racing the first,
// is a no-op, and a domain some other path already destroyed (a halted
// VM torn down individually, a degraded remote) is skipped rather than
// reported as an error.
func (f *Fleet) Close() error {
	f.closeMu.Lock()
	defer f.closeMu.Unlock()
	var first error
	for _, vm := range f.vms {
		if err := vm.Controller.Close(); err != nil && first == nil {
			first = err
		}
		for _, d := range vm.Controller.Checkpointer().Domains() {
			err := f.hv.DestroyDomain(d.ID())
			if err != nil && !errors.Is(err, hv.ErrNoDomain) && first == nil {
				first = err
			}
		}
	}
	f.vms = nil
	return first
}

// PauseGate is a counting semaphore implementing core.Gate: at most K
// holders at once, tracking the observed peak for verification. It is
// exported so per-host schedulers outside this package (the cluster
// control plane) can bound their own pause windows with the same gate
// the fleet uses. K is resizable at runtime (an SLO controller retunes
// it as pause lengths change), so the gate is a mutex+condvar semaphore
// rather than a fixed-capacity channel.
type PauseGate struct {
	mu   sync.Mutex
	cond *sync.Cond
	k    int
	cur  int
	peak int
}

// NewPauseGate builds a gate admitting at most k concurrent holders
// (minimum 1).
func NewPauseGate(k int) *PauseGate {
	if k < 1 {
		k = 1
	}
	g := &PauseGate{k: k}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Acquire blocks until a pause slot is free.
func (g *PauseGate) Acquire() {
	g.mu.Lock()
	for g.cur >= g.k {
		g.cond.Wait()
	}
	g.cur++
	if g.cur > g.peak {
		g.peak = g.cur
	}
	g.mu.Unlock()
}

// Release returns the slot.
func (g *PauseGate) Release() {
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
	g.cond.Signal()
}

// Resize rebounds the gate at k concurrent holders (minimum 1). A
// shrink never evicts current holders — it only stops admitting new
// ones until the count drains below the new bound; a grow wakes any
// waiters the freed slots can now admit.
func (g *PauseGate) Resize(k int) {
	if k < 1 {
		k = 1
	}
	g.mu.Lock()
	grew := k > g.k
	g.k = k
	g.mu.Unlock()
	if grew {
		g.cond.Broadcast()
	}
}

// K reports the gate's current slot bound.
func (g *PauseGate) K() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.k
}

// Peak reports the most holders ever concurrent.
func (g *PauseGate) Peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}
