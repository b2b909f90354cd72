package cluster

import (
	"crypto/sha256"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/obs"
	"repro/internal/vmi"
	"repro/internal/workload"
)

// testWork returns a Work running the swaptions workload in every VM,
// one independent runner per VM. Runner state (pid, arena addresses,
// write cursor) persists across promotion — the restored kernel state
// keeps them valid, which is exactly the continuity failover promises.
func testWork(t *testing.T, vms int, epoch time.Duration) (Work, []*workload.Runner) {
	t.Helper()
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	runners := make([]*workload.Runner, vms)
	for i := range runners {
		runners[i] = workload.NewRunner(spec, 64)
	}
	work := func(vm *VM, _ int) func(*guestos.Guest) error {
		r := runners[vm.Index]
		return func(g *guestos.Guest) error {
			return r.RunEpoch(g, epoch)
		}
	}
	return work, runners
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cl, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() {
		if err := cl.Close(); err != nil {
			t.Errorf("cluster.Close: %v", err)
		}
	})
	return cl
}

// Every VM's primary and replica land on distinct hosts, exactly where
// the ring says they should.
func TestClusterPlacementAntiAffinity(t *testing.T) {
	cl := newTestCluster(t, Config{Hosts: 4, VMs: 8, GuestPages: 64, Seed: 7})
	for _, vm := range cl.VMs() {
		want := cl.Ring().LookupN(vm.Name, 2)
		if vm.HostName() != want[0] {
			t.Errorf("%s primary on %s, ring says %s", vm.Name, vm.HostName(), want[0])
		}
		if vm.ReplicaHostName() == "" {
			t.Errorf("%s has no replica with 4 hosts up", vm.Name)
		} else if vm.ReplicaHostName() == vm.HostName() {
			t.Errorf("%s replica co-located on %s", vm.Name, vm.HostName())
		} else if vm.ReplicaHostName() != want[1] {
			t.Errorf("%s replica on %s, ring says %s", vm.Name, vm.ReplicaHostName(), want[1])
		}
	}
}

// A single-host cluster has nowhere anti-affine to replicate: VMs run
// unreplicated and the run completes cleanly.
func TestClusterSingleHostDegenerate(t *testing.T) {
	const vms, epochs = 3, 2
	cl := newTestCluster(t, Config{Hosts: 1, VMs: vms, Seed: 3})
	for _, vm := range cl.VMs() {
		if vm.ReplicaHostName() != "" {
			t.Errorf("%s replicated on a single-host cluster", vm.Name)
		}
	}
	work, _ := testWork(t, vms, 10*time.Millisecond)
	rep := cl.Run(epochs, work)
	if rep.TotalEpochs != vms*epochs || rep.HaltedVMs != 0 || rep.LostVMs != 0 {
		t.Fatalf("epochs=%d halted=%d lost=%d\n%s",
			rep.TotalEpochs, rep.HaltedVMs, rep.LostVMs, rep.Render())
	}
}

// A multi-host clean run: every VM completes its epochs on its placed
// host, stats carry host labels, and closing the cluster returns every
// live host's machine frames.
func TestClusterCleanRun(t *testing.T) {
	const hosts, vms, epochs = 3, 6, 3
	cl := newTestCluster(t, Config{
		Hosts: hosts, VMs: vms, Stagger: true, Seed: 11,
	})
	work, _ := testWork(t, vms, 10*time.Millisecond)
	rep := cl.Run(epochs, work)
	if rep.TotalEpochs != vms*epochs {
		t.Fatalf("TotalEpochs = %d, want %d\n%s", rep.TotalEpochs, vms*epochs, rep.Render())
	}
	for _, s := range rep.VMs {
		if s.Epochs != epochs || s.CleanEpochs != epochs || s.Err != "" {
			t.Errorf("%s: epochs=%d clean=%d err=%q", s.Name, s.Epochs, s.CleanEpochs, s.Err)
		}
		if s.Host == "" {
			t.Errorf("%s: stats carry no host label", s.Name)
		}
	}
	if rep.DeadHosts != 0 || rep.Promotions != 0 || rep.LostVMs != 0 {
		t.Errorf("failover activity on a clean run: %+v", rep)
	}
	if rep.MaxPausedObserved > 1 {
		t.Errorf("stagger bound violated: peak %d paused on one host", rep.MaxPausedObserved)
	}
	hs := cl.Hosts()
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, h := range hs {
		m := h.HV().Machine()
		if free, total := m.FreeFrames(), m.TotalFrames(); free != total {
			t.Errorf("host %s leaked frames: %d free of %d", h.Name, free, total)
		}
	}
}

// Killing a host mid-run promotes every VM it hosted onto the replica
// host, re-arms fresh anti-affine replicas, keeps every VM's epoch
// schedule whole, and loses nothing. The trace records the host death
// and each promotion.
func TestClusterFailover(t *testing.T) {
	const hosts, vms, epochs, killRound = 3, 6, 6, 4
	sink := &obs.CollectSink{}
	cfg := Config{Hosts: hosts, VMs: vms, Seed: 5}
	cfg.Core.Obs = &obs.Observer{Trace: obs.NewTracer(sink), Metrics: obs.NewRegistry()}
	cl := newTestCluster(t, cfg)

	victim := cl.VMs()[0].HostName()
	var onVictim, replicaOnVictim []string
	for _, vm := range cl.VMs() {
		if vm.HostName() == victim {
			onVictim = append(onVictim, vm.Name)
		} else if vm.ReplicaHostName() == victim {
			replicaOnVictim = append(replicaOnVictim, vm.Name)
		}
	}
	if len(onVictim) == 0 {
		t.Fatal("victim host hosts no VMs")
	}
	cl.KillHostAt(victim, killRound)

	work, _ := testWork(t, vms, 10*time.Millisecond)
	rep := cl.Run(epochs, work)

	if rep.DeadHosts != 1 || rep.LostVMs != 0 {
		t.Fatalf("dead=%d lost=%d, want 1 dead and nothing lost\n%s",
			rep.DeadHosts, rep.LostVMs, rep.Render())
	}
	if rep.Promotions != len(onVictim) {
		t.Errorf("promotions=%d, want %d (VMs on %s)", rep.Promotions, len(onVictim), victim)
	}
	if rep.TotalEpochs != vms*epochs {
		t.Errorf("TotalEpochs=%d, want %d: failover broke the schedule", rep.TotalEpochs, vms*epochs)
	}
	if rep.FailoverTime <= 0 {
		t.Error("failover spent no modeled time")
	}
	promoted := make(map[string]bool)
	for _, vm := range cl.VMs() {
		if vm.HostName() == victim || vm.ReplicaHostName() == victim {
			t.Errorf("%s still placed on dead host %s", vm.Name, victim)
		}
		if vm.ReplicaHostName() == "" {
			t.Errorf("%s left unreplicated with 2 hosts alive", vm.Name)
		} else if vm.ReplicaHostName() == vm.HostName() {
			t.Errorf("%s re-armed replica co-located on %s", vm.Name, vm.HostName())
		}
		if vm.Promotions > 0 {
			promoted[vm.Name] = true
		}
		s := vm.Stats()
		if s.Epochs != epochs {
			t.Errorf("%s: epochs=%d across incarnations, want %d", vm.Name, s.Epochs, epochs)
		}
	}
	for _, name := range onVictim {
		if !promoted[name] {
			t.Errorf("%s was on %s but never promoted", name, victim)
		}
	}
	var sawDown bool
	promoteEvents := make(map[string]bool)
	for _, ev := range sink.Events() {
		switch ev.Phase {
		case obs.PhaseHostDown:
			sawDown = true
			if ev.Host != victim || ev.Epoch != killRound {
				t.Errorf("hostdown event %+v, want host=%s round=%d", ev, victim, killRound)
			}
		case obs.PhasePromote:
			promoteEvents[ev.VM] = true
			if ev.Host == victim {
				t.Errorf("promotion onto the dead host: %+v", ev)
			}
		}
	}
	if !sawDown {
		t.Error("no hostdown trace event")
	}
	for _, name := range onVictim {
		if !promoteEvents[name] {
			t.Errorf("no promote trace event for %s", name)
		}
	}
	_ = replicaOnVictim // re-arm checked above via ReplicaHostName != victim
}

// Failover-transparency property: a run with a mid-run host kill
// produces identical findings, incidents, epoch counts, and final
// memory digests to the same run without the kill — including an attack
// injected after the failover, which the promoted incarnation must
// catch exactly as the original would have.
func TestClusterFailoverEquivalence(t *testing.T) {
	const hosts, vms, epochs, killRound, attackRound = 3, 6, 8, 4, 5

	type arm struct {
		stats   []map[string]interface{}
		digests [][2][32]byte
	}
	run := func(kill bool) arm {
		cfg := Config{Hosts: hosts, VMs: vms, Seed: 99}
		cfg.Core.Workers = 1
		cl := newTestCluster(t, cfg)
		attackVM := -1
		victim := cl.VMs()[0].HostName()
		for _, vm := range cl.VMs() {
			if vm.HostName() == victim {
				attackVM = vm.Index
				break
			}
		}
		if kill {
			cl.KillHostAt(victim, killRound)
		}
		base, runners := testWork(t, vms, 10*time.Millisecond)
		work := func(vm *VM, round int) func(*guestos.Guest) error {
			inner := base(vm, round)
			return func(g *guestos.Guest) error {
				if err := inner(g); err != nil {
					return err
				}
				if vm.Index == attackVM && round == attackRound {
					_, err := workload.InjectOverflow(g, runners[vm.Index].PID(), 64, 16)
					return err
				}
				return nil
			}
		}
		cl.Run(epochs, work)
		var a arm
		for _, vm := range cl.VMs() {
			s := vm.Stats()
			a.stats = append(a.stats, map[string]interface{}{
				"epochs": s.Epochs, "clean": s.CleanEpochs,
				"findings": s.Findings, "incidents": s.Incidents,
				"halted": s.Halted, "dirty": s.DirtyPages,
			})
			ckpt := vm.Current().Controller.Checkpointer()
			var d [2][32]byte
			prim, err := ckpt.Primary().DumpMemory()
			if err != nil {
				t.Fatalf("dump primary %s: %v", vm.Name, err)
			}
			back, err := ckpt.Backup().DumpMemory()
			if err != nil {
				t.Fatalf("dump backup %s: %v", vm.Name, err)
			}
			d[0], d[1] = sha256.Sum256(prim.Bytes()), sha256.Sum256(back.Bytes())
			a.digests = append(a.digests, d)
		}
		return a
	}

	plain := run(false)
	failed := run(true)
	for i := 0; i < vms; i++ {
		for k, v := range plain.stats[i] {
			if failed.stats[i][k] != v {
				t.Errorf("vm%d %s: no-kill=%v kill=%v", i, k, v, failed.stats[i][k])
			}
		}
		if plain.digests[i] != failed.digests[i] {
			t.Errorf("vm%d: memory digests diverge after failover", i)
		}
	}
}

// Concurrent host kills racing with epoch commits: KillHost called from
// inside a VM's epoch (while the other VMs' epochs run concurrently)
// must be honored safely at the next round boundary with nothing lost.
// Run under -race.
func TestClusterKillHostConcurrent(t *testing.T) {
	const hosts, vms, epochs = 4, 8, 8
	cl := newTestCluster(t, Config{Hosts: hosts, VMs: vms, Seed: 42})
	base, _ := testWork(t, vms, 10*time.Millisecond)
	var victim string
	for _, h := range cl.Hosts() {
		if h.Name != cl.VMs()[0].HostName() {
			victim = h.Name
			break
		}
	}
	work := func(vm *VM, round int) func(*guestos.Guest) error {
		inner := base(vm, round)
		return func(g *guestos.Guest) error {
			if vm.Index == 0 && round == 3 {
				go cl.KillHost(victim)
			}
			return inner(g)
		}
	}
	rep := cl.Run(epochs, work)
	if rep.LostVMs != 0 {
		t.Fatalf("lost %d VMs to a replicated host kill\n%s", rep.LostVMs, rep.Render())
	}
	if rep.DeadHosts != 1 {
		t.Fatalf("dead hosts = %d, want 1", rep.DeadHosts)
	}
	if rep.TotalEpochs != vms*epochs {
		t.Errorf("TotalEpochs=%d, want %d", rep.TotalEpochs, vms*epochs)
	}
}

// A VM promoted twice — its host dies, then the host it was promoted
// onto dies too — keeps the epochs of every dead incarnation: its
// folded stats cover the whole run, and the cluster's epoch total
// matches a run with no kills at all.
func TestClusterDoublePromotionKeepsHistory(t *testing.T) {
	const hosts, vms, rounds = 4, 8, 8
	run := func(kill bool) (*Cluster, *Report) {
		cfg := Config{Hosts: hosts, VMs: vms, Seed: 17}
		cfg.Core.Workers = 1
		cl := newTestCluster(t, cfg)
		if kill {
			vm0 := cl.VMs()[0]
			cl.KillHostAt(vm0.HostName(), 3)
			// vm0 is promoted onto its replica host; kill that one next.
			cl.KillHostAt(vm0.ReplicaHostName(), 6)
		}
		work, _ := testWork(t, vms, 10*time.Millisecond)
		return cl, cl.Run(rounds, work)
	}
	_, control := run(false)
	cl, rep := run(true)

	if rep.DeadHosts != 2 || rep.LostVMs != 0 {
		t.Fatalf("dead=%d lost=%d, want 2 dead and nothing lost\n%s", rep.DeadHosts, rep.LostVMs, rep.Render())
	}
	vm0 := cl.VMs()[0]
	if vm0.Promotions != 2 {
		t.Fatalf("%s promoted %d times, want 2", vm0.Name, vm0.Promotions)
	}
	for _, vm := range cl.VMs() {
		if s := vm.Stats(); s.Epochs != rounds || s.CleanEpochs != rounds {
			t.Errorf("%s (promoted %dx): epochs=%d clean=%d across incarnations, want %d",
				vm.Name, vm.Promotions, s.Epochs, s.CleanEpochs, rounds)
		}
	}
	if rep.TotalEpochs != control.TotalEpochs {
		t.Errorf("TotalEpochs=%d with two kills, %d with none", rep.TotalEpochs, control.TotalEpochs)
	}
}

// A promotion that fails after the replica was detached — here the new
// controller cannot create its backup domain on the promotion target —
// loses the VM but not the target's memory: the detached replica is
// destroyed with the failed attempt, so after Close the surviving host
// has every frame back. It used to stay behind for good: the VM was
// marked lost, and Close skips a lost VM's domains.
func TestClusterFailedPromotionReleasesReplica(t *testing.T) {
	const hosts, vms, rounds = 2, 4, 4
	cfg := Config{Hosts: hosts, VMs: vms, Seed: 23}
	cfg.Core.Workers = 1
	cl := newTestCluster(t, cfg)

	victim := cl.VMs()[0].HostName()
	var survivor *Host
	onVictim := 0
	for _, h := range cl.Hosts() {
		if h.Name != victim {
			survivor = h
		}
	}
	for _, vm := range cl.VMs() {
		if vm.HostName() == victim {
			onVictim++
		}
	}
	// With one host left nothing re-arms, so the only domains created on
	// the survivor are the promoted controllers' backups: fail the first.
	inj := fault.NewInjector()
	survivor.HV().InjectFaults(inj)
	inj.FailNext(hv.FaultCreateDomain, 1, false)
	cl.KillHostAt(victim, 3)

	work, _ := testWork(t, vms, 10*time.Millisecond)
	rep := cl.Run(rounds, work)
	if inj.Tripped(hv.FaultCreateDomain) != 1 {
		t.Fatalf("create-domain fault fired %d times, want once", inj.Tripped(hv.FaultCreateDomain))
	}
	if rep.LostVMs != 1 || rep.Promotions != onVictim-1 {
		t.Fatalf("lost=%d promotions=%d, want 1 lost and %d promoted\n%s",
			rep.LostVMs, rep.Promotions, onVictim-1, rep.Render())
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m := survivor.HV().Machine()
	if free, total := m.FreeFrames(), m.TotalFrames(); free != total {
		t.Errorf("host %s leaked frames: %d free of %d (failed promotion's replica left behind)",
			survivor.Name, free, total)
	}
}

// Promotion adopts the replica's memory together with the kernel
// bookkeeping of the same commit. Round 3's epoch starts a process but
// fails before its commit (a fatal suspend fault, undone by resuming),
// so the replica never receives that process; when the host dies at
// round 4 the promoted guest must not believe it has it.
func TestPromotionStateMatchesReplicaMemory(t *testing.T) {
	cfg := Config{Hosts: 2, VMs: 1, GuestPages: 256, Seed: 29}
	cfg.Core.Workers = 1
	cl := newTestCluster(t, cfg)
	vm := cl.VMs()[0]
	inj := fault.NewInjector()
	cl.hosts[vm.HostName()].HV().InjectFaults(inj)
	inj.FailNth(hv.FaultSuspend, 3)
	cl.KillHostAt(vm.HostName(), 4)

	rep := cl.Run(4, func(_ *VM, round int) func(*guestos.Guest) error {
		if round != 3 {
			return nil
		}
		return func(g *guestos.Guest) error {
			_, err := g.StartProcess("uncommitted", 0, 4)
			return err
		}
	})
	if inj.Tripped(hv.FaultSuspend) != 1 || vm.Promotions != 1 {
		t.Fatalf("suspend faults=%d promotions=%d, want 1 and 1\n%s",
			inj.Tripped(hv.FaultSuspend), vm.Promotions, rep.Render())
	}
	g := vm.Current().Guest
	ctx, err := vmi.NewContext(g.Domain(), g.Profile(), g.SystemMap())
	if err != nil {
		t.Fatalf("vmi.NewContext: %v", err)
	}
	walked, err := ctx.ProcessList()
	if err != nil {
		t.Fatalf("ProcessList: %v", err)
	}
	inMemory := make([]uint32, 0, len(walked))
	for _, p := range walked {
		inMemory = append(inMemory, p.PID)
	}
	booked := g.Processes()
	slices.Sort(inMemory)
	slices.Sort(booked)
	if !slices.Equal(booked, inMemory) {
		t.Fatalf("promoted guest's bookkeeping has processes %v, its memory %v", booked, inMemory)
	}
}
