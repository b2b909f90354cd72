package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/obs"
)

// fleetRun is one booted fleet with its per-VM load generators.
type fleetRun struct {
	fleet *fleet.Fleet
	loads []*guestLoad
	sent  *outputTally
	deliv *tallyDeliverer
	newMs float64
}

// fleetParams returns VM i's parameters: the shared shape plus the
// PARSEC profile the seed assigned to it.
func fleetParams(w workloadDef, seed int64) []vmParams {
	order := rand.New(rand.NewSource(subSeed(seed, 100))).Perm(len(fleetProfiles))
	out := make([]vmParams, w.vms)
	for i := range out {
		out[i] = w.vm
		out[i].spec = mustSpec(fleetProfiles[order[i%len(order)]])
	}
	return out
}

func launchFleet(w workloadDef, seed int64, o *obs.Observer) (*fleetRun, error) {
	fr := &fleetRun{sent: &outputTally{}, deliv: &tallyDeliverer{}}
	start := time.Now()
	f, err := fleet.New(fleet.Config{
		VMs: w.vms, GuestPages: w.vm.pages, MaxPaused: w.maxPaused, Seed: seed,
		Core: w.vm.coreConfig(fr.deliv, o),
	})
	if err != nil {
		return nil, err
	}
	fr.fleet = f
	fr.newMs = ms(time.Since(start))
	for i, p := range fleetParams(w, seed) {
		fr.loads = append(fr.loads, newGuestLoad(p, subSeed(seed, i), fr.sent))
	}
	return fr, nil
}

// work is the fleet.Work that drives every VM's load generator, timing
// the boundaries from outside when clocks are given.
func (fr *fleetRun) work(clocks []*boundaryClock) fleet.Work {
	return func(vm *fleet.VM, _ int) func(*guestos.Guest) error {
		return func(g *guestos.Guest) error {
			if clocks != nil {
				c := clocks[vm.Index]
				c.enter()
				defer c.leave()
			}
			return fr.loads[vm.Index].runEpoch(g, tagClean)
		}
	}
}

func cleanEpochs(stats []fleet.Stats) int {
	n := 0
	for _, s := range stats {
		n += s.CleanEpochs
	}
	return n
}

func setupFleet(w workloadDef, seed int64, o *obs.Observer, out *result) (*fleetRun, error) {
	fr, err := setUp(w.setups, out, func() (*fleetRun, error) {
		fr, err := launchFleet(w, seed, o)
		if err != nil {
			return nil, err
		}
		var warm checker
		warm.vmStats(fr.fleet.Run(w.warmup, fr.work(nil)).VMs, w.warmup)
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up failed: %v", warm.msgs)
		}
		return fr, nil
	}, func(fr *fleetRun) error { return fr.fleet.Close() })
	if err == nil {
		out.set("fleet.new.ms", fr.newMs, 1)
	}
	return fr, err
}

// runFleet is the measured run of fleet4-mixed: free-running fleet.Run
// in chunks, four driver goroutines (the ones fleet.Run starts) on two
// cores and one K-bounded pause gate.
func runFleet(w workloadDef, seed int64, o *obs.Observer) (*result, error) {
	out := newResult(w.name, false)
	out.print = newFingerprint()
	fr, err := setupFleet(w, seed, o, out)
	if err != nil {
		return nil, err
	}
	f := fr.fleet
	reg := newRegion(w.vms, w.epochs/segments)
	work := fr.work(reg.clocks)
	base := f.Report()
	done := cleanEpochs(base.VMs)
	chunks := w.epochs / segments / w.chunk
	for s := 0; s < segments; s++ {
		reg.begin(s)
		for c := 0; c < chunks; c++ {
			// fleet.Run returns when the slowest VM finishes the chunk;
			// the wait for it is a barrier, not a boundary.
			for _, clk := range reg.clocks {
				clk.reset()
			}
			rep := f.Run(w.chunk, work)
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

	rep := f.Report()
	n := cleanEpochs(rep.VMs) - cleanEpochs(base.VMs)
	if n > 0 {
		out.set("vpause_us_per_epoch", us(rep.AggregatePause-base.AggregatePause)/float64(n), n)
		setHypercalls(out, sumCalls(base.VMs), sumCalls(rep.VMs), n)
	}
	slow, fast := 0.0, 0.0
	for _, c := range reg.clocks {
		if cyc := c.cycleNs(); cyc > 0 {
			slow = max(slow, cyc)
			if fast == 0 || cyc < fast {
				fast = cyc
			}
		}
	}
	if fast > 0 {
		out.set("fleet.vm_skew_ratio", slow/fast, w.vms)
	}
	if err := fr.finish(w.name, w.warmup+w.epochs, &out.checks, &out.print); err != nil {
		return nil, err
	}
	return out, nil
}

// finish runs the end-of-run output checks and tears the fleet down:
// every VM committed `want` clean epochs, primary and backup hold the
// same bytes, and exactly the packets of committed epochs were
// delivered.
func (fr *fleetRun) finish(label string, want int, c *checker, print *fingerprint) error {
	rep := fr.fleet.Report()
	c.vmStats(rep.VMs, want)
	for i, vm := range fr.fleet.VMs() {
		print.epoch(i, rep.VMs[i].DirtyPages, rep.VMs[i].Findings)
		if err := checkpointDigests(vm.Name, vm.Controller.Checkpointer(), c, print); err != nil {
			return err
		}
	}
	for _, l := range fr.loads {
		print.load(l)
	}
	c.outputs(label, fr.sent.snapshot(), fr.deliv.got.snapshot())
	return fr.fleet.Close()
}

func sumCalls(stats []fleet.Stats) hv.Hypercalls {
	var total hv.Hypercalls
	for _, s := range stats {
		total.Add(s.Hypercalls)
	}
	return total
}
