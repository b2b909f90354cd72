package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/guestos"
	"repro/internal/obs"
)

// clusterRun is one booted cluster with its per-VM load generators.
type clusterRun struct {
	cl    *cluster.Cluster
	loads []*guestLoad
	sent  *outputTally
	deliv *tallyDeliverer
	newMs float64
}

func launchCluster(w workloadDef, seed int64, o *obs.Observer) (*clusterRun, error) {
	cr := &clusterRun{sent: &outputTally{}, deliv: &tallyDeliverer{}}
	start := time.Now()
	cl, err := cluster.New(cluster.Config{
		Hosts: w.hosts, VMs: w.vms, GuestPages: w.vm.pages, Seed: seed,
		Core: w.vm.coreConfig(cr.deliv, o),
	})
	if err != nil {
		return nil, err
	}
	cr.cl = cl
	cr.newMs = ms(time.Since(start))
	for i := 0; i < w.vms; i++ {
		cr.loads = append(cr.loads, newGuestLoad(w.vm, subSeed(seed, i), cr.sent))
	}
	return cr, nil
}

// work drives every VM's load generator. A VM promoted onto another
// host keeps its generator: the adopted guest holds exactly the state
// the generator last left it in.
func (cr *clusterRun) work(clocks []*boundaryClock) cluster.Work {
	return func(vm *cluster.VM, _ int) func(*guestos.Guest) error {
		return func(g *guestos.Guest) error {
			if clocks != nil {
				c := clocks[vm.Index]
				c.enter()
				defer c.leave()
			}
			return cr.loads[vm.Index].runEpoch(g, tagClean)
		}
	}
}

func setupCluster(w workloadDef, seed int64, o *obs.Observer, out *result) (*clusterRun, error) {
	cr, err := setUp(w.setups, out, func() (*clusterRun, error) {
		cr, err := launchCluster(w, seed, o)
		if err != nil {
			return nil, err
		}
		var warm checker
		warm.vmStats(cr.cl.Run(w.warmup, cr.work(nil)).VMs, w.warmup)
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up failed: %v", warm.msgs)
		}
		return cr, nil
	}, func(cr *clusterRun) error { return cr.cl.Close() })
	if err == nil {
		out.set("cluster.new.ms", cr.newMs, 1)
	}
	return cr, err
}

// runCluster is the measured run of cluster4-failover: one Run(1) per
// round, eight VM goroutines meeting at the round barrier, one host
// killed a third of the way in and another at two thirds.
func runCluster(w workloadDef, seed int64, o *obs.Observer) (*result, error) {
	out := newResult(w.name, false)
	out.print = newFingerprint()
	cr, err := setupCluster(w, seed, o, out)
	if err != nil {
		return nil, err
	}
	cl := cr.cl
	kills := cr.killHosts(w)

	reg := newRegion(w.vms, w.epochs/segments+1)
	work := cr.work(reg.clocks)
	base := cl.Report()
	done := cleanEpochs(base.VMs)
	rounds := make([]int64, 0, w.epochs)
	var failover []float64
	per := w.epochs / segments
	for s := 0; s < segments; s++ {
		reg.begin(s)
		for r := 0; r < per; r++ {
			start := time.Now()
			rep := cl.Run(1, work)
			d := time.Since(start)
			if kills[s*per+r] {
				failover = append(failover, ms(d))
			} else {
				rounds = append(rounds, int64(d))
			}
			now := cleanEpochs(rep.VMs)
			reg.epochs[s] += now - done
			done = now
		}
		reg.end(s)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	out.set("peak_rss_mb", rss, 1)
	reg.report(out)

	rep := cl.Report()
	n := cleanEpochs(rep.VMs) - cleanEpochs(base.VMs)
	if n > 0 {
		out.set("vpause_us_per_epoch", us(rep.AggregatePause-base.AggregatePause)/float64(n), n)
		setHypercalls(out, sumCalls(base.VMs), sumCalls(rep.VMs), n)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	out.set("cluster.round.us_p50", percentile(rounds, 0.50)/1e3, len(rounds))
	out.set("cluster.round.us_p95", percentile(rounds, 0.95)/1e3, len(rounds))
	if len(failover) > 0 {
		out.set("cluster.failover.ms_mean", (failover[0]+failover[len(failover)-1])/2, len(failover))
	}
	out.set("cluster.failover.promotions", float64(rep.Promotions), 1)
	out.set("cluster.failover.rearms", float64(rep.Rearms), 1)
	if err := cr.finish(w.name, w.warmup+w.epochs, &out.checks, &out.print); err != nil {
		return nil, err
	}
	return out, nil
}

// victims are the hosts cluster4-failover kills, in order. The ring
// places VMs by name, so placement (host0: 2 VMs, host1: 3, host2: none,
// host3: 3) and therefore the failover work is the same for every seed.
// The order is chosen so that no VM is promoted twice: cluster.promote
// overwrites a VM's folded stats instead of adding to them, so a second
// promotion would drop the first incarnation's epochs from the
// accounting the checks read.
var victims = []string{"host1", "host0"}

// killHosts schedules the workload's two host failures: one a third of
// the way through the measured rounds and one at two thirds. It returns
// the measured-round indexes (0-based) in which they take effect. The
// heartbeat of round r fails before that round's epochs run.
func (cr *clusterRun) killHosts(w workloadDef) map[int]bool {
	kills := make(map[int]bool)
	for i, name := range victims {
		r := (i + 1) * w.epochs / (len(victims) + 1)
		cr.cl.KillHostAt(name, w.warmup+r+1)
		kills[r] = true
	}
	return kills
}

// finish runs the end-of-run output checks and tears the cluster down:
// every VM committed `want` clean epochs across its incarnations, both
// killed hosts failed over with no VM lost, every surviving copy of
// every VM — the promoted primary, its local backup and the re-armed
// remote replica — holds the same bytes, and exactly the packets of
// committed epochs were delivered.
func (cr *clusterRun) finish(label string, want int, c *checker, print *fingerprint) error {
	rep := cr.cl.Report()
	c.vmStats(rep.VMs, want)
	c.attempted++
	if rep.LostVMs != 0 || rep.DeadHosts != len(victims) || rep.Promotions == 0 {
		c.fail("%s: %d hosts dead, %d promotions, %d VMs lost; want %d dead, some promotions, none lost",
			label, rep.DeadHosts, rep.Promotions, rep.LostVMs, len(victims))
	}
	for i, vm := range cr.cl.VMs() {
		print.epoch(i, rep.VMs[i].DirtyPages, rep.VMs[i].Findings)
		if err := checkpointDigests(vm.Name, vm.Current().Controller.Checkpointer(), c, print); err != nil {
			return err
		}
	}
	for _, l := range cr.loads {
		print.load(l)
	}
	c.outputs(label, cr.sent.snapshot(), cr.deliv.got.snapshot())
	return cr.cl.Close()
}
