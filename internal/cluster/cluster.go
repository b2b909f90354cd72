package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/obs"
	"repro/internal/slo"
)

// FaultHostAlive is the control plane's per-host heartbeat site. Each
// scheduling round checks "cluster.hostalive.<host>" once for every
// live host, so a fatal failure scheduled at occurrence N kills that
// host at round N (see Cluster.KillHostAt).
const FaultHostAlive = "cluster.hostalive"

// Config configures a multi-host cluster of CRIMES-protected VMs.
type Config struct {
	// Hosts is the number of simulated hosts (default 1). With a single
	// host there is nowhere anti-affine to place replicas, so the
	// cluster degenerates to exactly the fleet's single-host behavior.
	Hosts int
	// VMs is the total number of protected guests (default 1), placed
	// onto hosts by the consistent-hash ring.
	VMs int
	// GuestPages is each guest's memory size in 4 KiB pages (default
	// 1024).
	GuestPages int
	// MaxPausedPerHost bounds how many of a host's VMs may be inside
	// the pause window at once — each host's scheduler K. 0 means
	// unbounded unless Stagger is set (then 1), mirroring fleet.Config.
	MaxPausedPerHost int
	// Stagger staggers epoch boundaries within each host.
	Stagger bool
	// Windows boots Windows guest profiles instead of Linux.
	Windows bool
	// Vnodes is the ring's virtual-node count per host (default
	// DefaultVnodes).
	Vnodes int
	// Seed is the base boot entropy; VM i boots with Seed+i.
	Seed int64
	// HostNames optionally names the hosts; unnamed hosts default to
	// hostN.
	HostNames []string
	// ReplicationKey is the AES key for the cross-host replication
	// conduits. Empty derives a deterministic 32-byte key from Seed.
	ReplicationKey []byte
	// Faults is the control plane's injector, consulted for host
	// heartbeats. Nil allocates a private injector (so KillHostAt
	// always works).
	Faults *fault.Injector
	// SLO, when enabled (TargetP99 > 0), gives every VM incarnation its
	// own tail-latency controller (see fleet.Config.SLO). A promoted
	// replica gets a fresh controller seeded from the shared config, so
	// failover restarts the feedback loop rather than inheriting the
	// dead incarnation's state. The zero value changes nothing.
	SLO slo.Config
	// Core is the per-VM controller configuration, copied to every VM.
	// Its PauseGate is overwritten with the VM's host gate.
	Core core.Config
}

func (cfg *Config) setDefaults() {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 1
	}
	if cfg.VMs <= 0 {
		cfg.VMs = 1
	}
	if cfg.GuestPages <= 0 {
		cfg.GuestPages = 1024
	}
	if cfg.Stagger && cfg.MaxPausedPerHost <= 0 {
		cfg.MaxPausedPerHost = 1
	}
	if cfg.MaxPausedPerHost <= 0 || cfg.MaxPausedPerHost > cfg.VMs {
		cfg.MaxPausedPerHost = cfg.VMs
	}
	if len(cfg.ReplicationKey) == 0 {
		key := make([]byte, 32)
		binary.LittleEndian.PutUint64(key, uint64(cfg.Seed)^0xc21e5d4f09a7b836)
		for i := 8; i < len(key); i++ {
			key[i] = byte(0x5a + i)
		}
		cfg.ReplicationKey = key
	}
	if cfg.Faults == nil {
		cfg.Faults = fault.NewInjector()
	}
	if cfg.Core.Modules == nil {
		cfg.Core.Modules = detect.DefaultModules()
	}
}

// Host is one simulated machine: its own hypervisor, machine-frame
// pool, and pause gate bounding its local pause windows.
type Host struct {
	Name string
	hv   *hv.Hypervisor
	gate *fleet.PauseGate
	dead bool
}

// HV returns the host's hypervisor.
func (h *Host) HV() *hv.Hypervisor { return h.hv }

// Dead reports whether the control plane has declared the host failed.
func (h *Host) Dead() bool { return h.dead }

// VM is one protected guest from the cluster's point of view: the
// current fleet incarnation (guest + controller on some host), where
// its replica lives, and stats folded across incarnations so failover
// does not reset the VM's history. It keeps no copy of the committed
// state: promotion adopts the replica — the committed memory the Remus
// conduit carried — together with the controller's committed kernel
// bookkeeping (core.Controller.CommittedState), both from the same
// last commit.
type VM struct {
	Index int
	Name  string
	Seed  int64

	cur         *fleet.VM
	host        *Host
	replicaHost *Host

	// prior accumulates the stats of dead incarnations (hosts that
	// failed under this VM); Stats() folds the live incarnation in.
	prior fleet.Stats

	// Promotions counts how many times this VM failed over. Lost marks
	// a VM whose host died with no promotable replica — its evidence is
	// gone. Retired marks a quarantined (halted) VM whose host died:
	// nothing resumes, but its last clean snapshot survives as the
	// detached replica domain held in evidence/evidenceHV.
	Promotions int
	Lost       bool
	Retired    bool

	evidence   *hv.Domain
	evidenceHV *hv.Hypervisor
}

// Evidence returns the preserved replica snapshot of a retired VM, or
// nil.
func (vm *VM) Evidence() *hv.Domain { return vm.evidence }

// Current returns the VM's live fleet incarnation.
func (vm *VM) Current() *fleet.VM { return vm.cur }

// HostName returns the VM's current primary host.
func (vm *VM) HostName() string { return vm.host.Name }

// ReplicaHostName returns the host holding the VM's replica, or ""
// when the VM runs unreplicated (single host, or degraded after
// failures exhausted the candidates).
func (vm *VM) ReplicaHostName() string {
	if vm.replicaHost == nil {
		return ""
	}
	return vm.replicaHost.Name
}

// Stats folds the VM's full history: every dead incarnation plus the
// live one, labeled with the current host.
func (vm *VM) Stats() fleet.Stats {
	s := addStats(vm.prior, vm.cur.Stats())
	s.Name = vm.Name
	s.Host = vm.host.Name
	return s
}

// Work produces the guest work for one VM's round (1-based, global
// across the cluster). Returning a nil function runs an idle epoch.
type Work func(vm *VM, round int) func(*guestos.Guest) error

// Cluster is the control plane owning H hosts and the VMs placed on
// them.
type Cluster struct {
	cfg    Config
	ring   *Ring
	hosts  map[string]*Host
	order  []string // host names in creation order
	vms    []*VM
	faults *fault.Injector

	// mu guards the kill-request set, which KillHost may add to
	// concurrently with a running round; requests are honored at the
	// next round boundary.
	mu     sync.Mutex
	killed map[string]bool

	closeMu sync.Mutex
	closed  bool

	round int
	// Failover roll-ups.
	promotions   int
	rearms       int
	lostVMs      int
	deadHosts    int
	failoverTime time.Duration
}

// New builds the cluster: H hosts each with its own hypervisor and
// pause gate, a consistent-hash ring over them, and every VM booted on
// its ring-assigned primary host with (hosts > 1) its Remus replica
// armed anti-affine on the next distinct ring host.
func New(cfg Config) (*Cluster, error) {
	cfg.setDefaults()
	cl := &Cluster{
		cfg:    cfg,
		ring:   NewRing(cfg.Vnodes),
		hosts:  make(map[string]*Host),
		faults: cfg.Faults,
		killed: make(map[string]bool),
	}
	// Size every host for the worst post-failover case: all VMs, each
	// with primary + local backup + a hosted replica, plus kernel and
	// host slack. Machine frames are lazily backed, so the headroom is
	// cheap.
	frames := cfg.VMs*(3*cfg.GuestPages+64) + 64
	for i := 0; i < cfg.Hosts; i++ {
		name := fmt.Sprintf("host%d", i)
		if i < len(cfg.HostNames) && cfg.HostNames[i] != "" {
			name = cfg.HostNames[i]
		}
		h := &Host{Name: name, hv: hv.New(frames), gate: fleet.NewPauseGate(cfg.MaxPausedPerHost)}
		cl.hosts[name] = h
		cl.order = append(cl.order, name)
		cl.ring.Add(name)
	}
	prof := guestos.LinuxProfile()
	if cfg.Windows {
		prof = guestos.WindowsProfile()
	}
	interval := cfg.Core.EpochInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	perHost := make(map[string]int)
	for i := 0; i < cfg.VMs; i++ {
		name := fmt.Sprintf("vm%d", i)
		placement := cl.ring.LookupN(name, 2)
		host := cl.hosts[placement[0]]
		seed := cfg.Seed + int64(i)
		ctl, err := core.Launch(host.hv, core.GuestSpec{
			Name: name, Pages: cfg.GuestPages,
			Boot: guestos.BootConfig{Profile: prof, Seed: seed},
		}, cl.coreCfg(host))
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("cluster: on %s: %w", host.Name, err)
		}
		vm := &VM{Index: i, Name: name, Seed: seed, host: host}
		vm.cur = fleet.NewVM(i, name, host.Name, ctl.Guest(), ctl)
		if cfg.Stagger {
			off := interval * time.Duration(perHost[host.Name]) / time.Duration(cfg.VMs)
			vm.cur.SetStaggerOffset(off)
		}
		perHost[host.Name]++
		if len(placement) > 1 {
			replica := cl.hosts[placement[1]]
			if err := ctl.Checkpointer().EnableRemoteReplicationOn(replica.hv, name, cfg.ReplicationKey); err != nil {
				cl.vms = append(cl.vms, vm)
				cl.Close()
				return nil, fmt.Errorf("cluster: arm replica for %s on %s: %w", name, replica.Name, err)
			}
			vm.replicaHost = replica
		}
		cl.vms = append(cl.vms, vm)
	}
	return cl, nil
}

// coreCfg copies the shared controller config, points its pause gate at
// the given host's, and — when SLO steering is on — builds the
// incarnation's own controller instance (per-VM loop state; the gate K
// recommendation is scoped to the host's VM count).
func (cl *Cluster) coreCfg(h *Host) core.Config {
	ccfg := cl.cfg.Core
	ccfg.PauseGate = h.gate
	if cl.cfg.SLO.TargetP99 > 0 {
		scfg := cl.cfg.SLO
		if scfg.VMs <= 0 {
			scfg.VMs = cl.hostVMs(h)
		}
		ccfg.SLO = slo.New(scfg)
	}
	return ccfg
}

// hostVMs counts live VMs currently placed on h.
func (cl *Cluster) hostVMs(h *Host) int {
	n := 0
	for _, vm := range cl.vms {
		if vm.host == h {
			n++
		}
	}
	return n
}

// Hosts returns the cluster's hosts in creation order.
func (cl *Cluster) Hosts() []*Host {
	hs := make([]*Host, 0, len(cl.order))
	for _, name := range cl.order {
		hs = append(hs, cl.hosts[name])
	}
	return hs
}

// VMs returns the cluster's VMs in index order.
func (cl *Cluster) VMs() []*VM { return cl.vms }

// Ring returns the placement ring (alive hosts only).
func (cl *Cluster) Ring() *Ring { return cl.ring }

// KillHostAt schedules the named host's heartbeat to fail fatally at
// the given round (1-based): the control plane declares it dead before
// that round's epochs run.
func (cl *Cluster) KillHostAt(name string, round int) {
	cl.faults.FailNth(FaultHostAlive+"."+name, round)
}

// KillHost requests the named host die at the next round boundary. It
// is safe to call concurrently with Run — the request is only honored
// between rounds, where the control plane can fail the host over
// consistently.
func (cl *Cluster) KillHost(name string) {
	cl.mu.Lock()
	cl.killed[name] = true
	cl.mu.Unlock()
}

// Run drives every live VM through `epochs` more rounds. Rounds are
// cluster-global: before each round the control plane checks every
// host's heartbeat (failing dead hosts over), then runs one epoch on
// every live, unhalted VM concurrently, each VM contending on its own
// host's pause gate. Run may be called again to continue.
func (cl *Cluster) Run(epochs int, work Work) *Report {
	for i := 0; i < epochs; i++ {
		cl.round++
		cl.checkHeartbeats(cl.round)
		var wg sync.WaitGroup
		for _, vm := range cl.vms {
			if vm.Lost || vm.Retired || vm.cur.Controller.Halted() {
				continue
			}
			wg.Add(1)
			go func(vm *VM, r int) {
				defer wg.Done()
				var w fleet.Work
				if work != nil {
					w = func(*fleet.VM, int) func(*guestos.Guest) error { return work(vm, r) }
				}
				vm.cur.RunEpochs(1, w)
			}(vm, cl.round)
		}
		wg.Wait()
	}
	return cl.Report()
}

// checkHeartbeats consults the injector once per live host (occurrence
// N == round N) plus any KillHost requests, and fails dead hosts over.
func (cl *Cluster) checkHeartbeats(round int) {
	cl.mu.Lock()
	requested := cl.killed
	cl.killed = make(map[string]bool)
	cl.mu.Unlock()
	for _, name := range cl.order {
		h := cl.hosts[name]
		if h.dead {
			continue
		}
		if err := cl.faults.Check(FaultHostAlive + "." + name); err != nil {
			cl.failHost(h, round, err)
		} else if requested[name] {
			cl.failHost(h, round, errors.New("host kill requested"))
		}
	}
}

// failHost declares a host dead and fails its VMs over: every VM whose
// primary ran there is promoted onto its replica host, and every VM
// whose replica lived there re-arms a fresh one elsewhere. The dead
// host's hypervisor and domains are abandoned — lost hardware.
func (cl *Cluster) failHost(h *Host, round int, cause error) {
	h.dead = true
	cl.deadHosts++
	cl.ring.Remove(h.Name)
	alive := cl.ring.Size()
	cl.emit(obs.Event{Phase: obs.PhaseHostDown, Host: h.Name, Epoch: round, Err: cause.Error()})
	for _, vm := range cl.vms {
		switch {
		case vm.Lost || vm.Retired:
		case vm.host == h:
			cl.promote(vm, round, alive)
		case vm.replicaHost == h:
			cl.rearmReplica(vm, alive)
		}
	}
}

// promote fails one VM over: settle and detach its remote replica,
// adopt the replica domain as the new primary (the last commit's memory
// plus the controller's kernel bookkeeping from that same commit),
// attach a fresh controller on the backup host, re-arm a new
// anti-affine replica, and resume the epoch schedule there. A VM that cannot be promoted (no replica, or
// the session cannot settle cleanly) is lost.
func (cl *Cluster) promote(vm *VM, round int, alive int) {
	halted := vm.cur.Controller.Halted()
	// Fold, don't overwrite: a VM promoted before already carries the
	// epochs of its earlier incarnations in prior.
	history := addStats(vm.prior, vm.cur.Stats())
	ckpt := vm.cur.Controller.Checkpointer()
	remoteHV := ckpt.RemoteHV()
	state := vm.cur.Controller.CommittedState()
	dom, err := ckpt.DetachRemote()
	_ = vm.cur.Controller.Close() // dead host's Go-side goroutines are bookkeeping
	if err != nil || alive < 1 {
		vm.Lost = true
		cl.lostVMs++
		return
	}
	// A halted VM stays quarantined: the detached replica preserves its
	// last clean snapshot as evidence, but nothing resumes. Its stats
	// keep reporting the halt.
	if halted {
		vm.prior = history
		vm.Retired = true
		vm.evidence, vm.evidenceHV = dom, remoteHV
		return
	}
	newHost := cl.hosts[cl.ring.Lookup(vm.Name)]
	prof := guestos.LinuxProfile()
	if cl.cfg.Windows {
		prof = guestos.WindowsProfile()
	}
	// Launch owns the detached replica from here: a failed adoption or a
	// failed controller attach destroys it rather than leaving it behind
	// on a live host where Close, skipping a lost VM, would never find it.
	ctl, err := core.Launch(newHost.hv, core.GuestSpec{
		Boot:    guestos.BootConfig{Profile: prof, Seed: vm.Seed},
		Replica: dom, State: state,
	}, cl.coreCfg(newHost))
	if err != nil {
		vm.Lost = true
		cl.lostVMs++
		return
	}
	vm.prior = history
	vm.host = newHost
	vm.replicaHost = nil
	vm.cur = fleet.NewVM(vm.Index, vm.Name, newHost.Name, ctl.Guest(), ctl)
	vm.Promotions++
	cl.promotions++
	cl.failoverTime += cost.Default().Promote(cl.cfg.GuestPages, alive)
	cl.emit(obs.Event{Phase: obs.PhasePromote, VM: vm.Name, Host: newHost.Name, Epoch: round})
	cl.rearmReplica(vm, alive)
}

// rearmReplica points the VM's replication at a fresh anti-affine host
// chosen by the ring. With no second live host the VM runs unreplicated
// (degraded) until membership recovers.
func (cl *Cluster) rearmReplica(vm *VM, alive int) {
	ckpt := vm.cur.Controller.Checkpointer()
	_ = ckpt.DisableRemoteReplication()
	vm.replicaHost = nil
	if alive < 2 {
		return
	}
	placement := cl.ring.LookupN(vm.Name, 2)
	if len(placement) < 2 {
		return
	}
	replica := cl.hosts[placement[1]]
	if err := ckpt.EnableRemoteReplicationOn(replica.hv, vm.Name, cl.cfg.ReplicationKey); err != nil {
		return
	}
	vm.replicaHost = replica
	cl.rearms++
	// Re-arming ships a full resync across the inter-host link.
	cl.failoverTime += cost.Default().ReplicateCrossHost(cl.cfg.GuestPages, alive)
}

// emit forwards a control-plane event to the observer, if any.
func (cl *Cluster) emit(ev obs.Event) {
	if cl.cfg.Core.Obs.Enabled() {
		cl.cfg.Core.Obs.Emit(ev)
	}
}

// Report is the cluster-wide accounting snapshot: the fleet table
// (with per-host attribution) plus the control plane's failover
// roll-ups.
type Report struct {
	fleet.Report
	// Hosts and DeadHosts count cluster membership; AliveHosts is the
	// ring's current size.
	Hosts     int
	DeadHosts int
	// Promotions, Rearms, and LostVMs are failover outcomes: replicas
	// promoted to primaries, fresh replicas armed after membership
	// changes, and VMs that could not be saved.
	Promotions int
	Rearms     int
	LostVMs    int
	// FailoverTime is the modeled virtual time spent promoting and
	// resyncing across the run.
	FailoverTime time.Duration
}

// Report snapshots the cluster's current accounting.
func (cl *Cluster) Report() *Report {
	r := &Report{
		Hosts:        cl.cfg.Hosts,
		DeadHosts:    cl.deadHosts,
		Promotions:   cl.promotions,
		Rearms:       cl.rearms,
		LostVMs:      cl.lostVMs,
		FailoverTime: cl.failoverTime,
	}
	r.MaxPaused = cl.cfg.MaxPausedPerHost
	r.Stagger = cl.cfg.Stagger
	for _, name := range cl.order {
		h := cl.hosts[name]
		if p := h.gate.Peak(); p > r.MaxPausedObserved {
			r.MaxPausedObserved = p
		}
		r.Hypercalls.Add(h.hv.Calls())
	}
	for _, vm := range cl.vms {
		r.Fold(vm.Stats())
	}
	if cl.cfg.Core.Obs.Enabled() {
		reg := cl.cfg.Core.Obs.Registry()
		reg.Gauge("crimes_cluster_hosts").Set(int64(cl.cfg.Hosts))
		reg.Gauge("crimes_cluster_dead_hosts").Set(int64(cl.deadHosts))
		reg.Gauge("crimes_cluster_promotions").Set(int64(cl.promotions))
		reg.Gauge("crimes_cluster_replica_rearms").Set(int64(cl.rearms))
		reg.Gauge("crimes_cluster_lost_vms").Set(int64(cl.lostVMs))
		perHost := make(map[string]int)
		for _, vm := range cl.vms {
			if !vm.Lost {
				perHost[vm.host.Name]++
			}
		}
		for _, name := range cl.order {
			reg.Gauge("crimes_cluster_host_vms", "host", name).Set(int64(perHost[name]))
		}
	}
	return r
}

// Render formats the cluster summary, the per-VM table with host
// attribution, and the failover roll-up.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d hosts (%d dead), %d VMs\n",
		r.Hosts, r.DeadHosts, len(r.VMs))
	b.WriteString(r.Report.Render())
	fmt.Fprintf(&b, "failover: promotions=%d rearms=%d lost=%d downtime=%v\n",
		r.Promotions, r.Rearms, r.LostVMs, r.FailoverTime.Round(time.Microsecond))
	return b.String()
}

// Close tears the cluster down: every live VM's controller is closed
// and its domains destroyed on whichever live host holds them. Dead
// hosts are abandoned wholesale — their hypervisors simulate lost
// hardware. Close is idempotent.
func (cl *Cluster) Close() error {
	cl.closeMu.Lock()
	defer cl.closeMu.Unlock()
	if cl.closed {
		return nil
	}
	cl.closed = true
	var first error
	for _, vm := range cl.vms {
		if vm.cur == nil {
			continue
		}
		ckpt := vm.cur.Controller.Checkpointer()
		remote, remoteHV := ckpt.Remote(), ckpt.RemoteHV()
		if err := vm.cur.Controller.Close(); err != nil && first == nil {
			first = err
		}
		if !vm.host.dead && !vm.Lost {
			for _, d := range []*hv.Domain{ckpt.Primary(), ckpt.Backup()} {
				err := vm.host.hv.DestroyDomain(d.ID())
				if err != nil && !errors.Is(err, hv.ErrNoDomain) && first == nil {
					first = err
				}
			}
		}
		if remote != nil && remoteHV != nil && vm.replicaHost != nil && !vm.replicaHost.dead {
			err := remoteHV.DestroyDomain(remote.ID())
			if err != nil && !errors.Is(err, hv.ErrNoDomain) && first == nil {
				first = err
			}
		}
		if vm.evidence != nil && vm.evidenceHV != nil {
			for _, h := range cl.hosts {
				if h.hv == vm.evidenceHV && !h.dead {
					err := h.hv.DestroyDomain(vm.evidence.ID())
					if err != nil && !errors.Is(err, hv.ErrNoDomain) && first == nil {
						first = err
					}
				}
			}
		}
	}
	cl.vms = nil
	return first
}

// PlacementCounts tallies, for a hypothetical ring with the given
// hosts and VM count, how many VMs land on each host. The bench uses
// it to report placement balance without booting anything.
func PlacementCounts(hosts []string, vms, vnodes int) map[string]int {
	r := NewRing(vnodes)
	for _, h := range hosts {
		r.Add(h)
	}
	counts := make(map[string]int, len(hosts))
	for i := 0; i < vms; i++ {
		counts[r.Lookup(fmt.Sprintf("vm%d", i))]++
	}
	return counts
}

// MovedKeys reports how many of vms keys change primary host when
// mutate is applied to a copy of the ring's membership — the
// rebalance-churn measurement for host join/leave.
func MovedKeys(hosts []string, vms, vnodes int, mutate func(*Ring)) int {
	before := NewRing(vnodes)
	after := NewRing(vnodes)
	for _, h := range hosts {
		before.Add(h)
		after.Add(h)
	}
	mutate(after)
	moved := 0
	for i := 0; i < vms; i++ {
		key := fmt.Sprintf("vm%d", i)
		if before.Lookup(key) != after.Lookup(key) {
			moved++
		}
	}
	return moved
}

// addStats folds b's accounting into a and returns the sum. Snapshot
// fields (live cache footprint, halt/error status, host label) take
// b's value — they describe the present, not history.
func addStats(a, b fleet.Stats) fleet.Stats {
	a.Name = b.Name
	a.Host = b.Host
	a.Epochs += b.Epochs
	a.CleanEpochs += b.CleanEpochs
	a.DirtyPages += b.DirtyPages
	a.Findings += b.Findings
	a.Incidents += b.Incidents
	a.Retries += b.Retries
	a.Unwinds += b.Unwinds
	a.Degradations += b.Degradations
	a.PauseTotal += b.PauseTotal
	a.VirtualTime += b.VirtualTime
	a.Hypercalls.Add(b.Hypercalls)
	a.ScanCache.Add(b.ScanCache)
	a.ScanCachePages = b.ScanCachePages
	a.ScanCacheCapacity = b.ScanCacheCapacity
	a.CoW.Add(b.CoW)
	a.Replication.Add(b.Replication)
	a.Halted = b.Halted
	a.StaggerOffset = b.StaggerOffset
	if b.Err != "" {
		a.Err = b.Err
	}
	return a
}
