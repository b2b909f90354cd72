package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/guestos"
	"repro/internal/obs"
)

// Traced runs of the fleet and the cluster. The unrolled epoch cannot
// reach inside fleet.Run or Cluster.Run, so here the harness drives the
// real controllers one epoch at a time (fleet.VM.RunEpochs(1) /
// Cluster.Run(1)) with the existing obs.Observer attached — its
// gate-wait histogram is the only view of the pause gate — and a span
// around every epoch and every work callback. The layer breakdown comes
// from a solo pass: one VM of the same configuration run alone through
// the unrolled epoch, so its numbers are the layers' cost without
// contention, to be read against the shared run's boundary.

// soloEpochs is the length of the solo pass.
const soloEpochs = 300

// gateWaitNs sums the observer's per-VM pause-gate wait histograms.
func gateWaitNs(o *obs.Observer, vms []string) (sum float64, count uint64) {
	for _, vm := range vms {
		h := o.Registry().Histogram("crimes_gate_wait_ns", obs.DurationBuckets(), "vm", vm)
		sum += h.Sum()
		count += h.Count()
	}
	return sum, count
}

// soloPass runs one VM of the workload's configuration alone through the
// unrolled epoch and records the per-layer span metrics.
func soloPass(w workloadDef, p vmParams, seed int64, epochs int, out *result) ([]*recorder, error) {
	rec := newRecorder(time.Now(), "solo", (epochs+w.warmup)*24)
	u, err := warmUnrolled(p, seed, w.warmup, rec)
	if err != nil {
		return nil, fmt.Errorf("solo pass: %w", err)
	}
	first := len(rec.spans)
	if _, err := u.timedEpochs(epochs, w.diagEvery, nil); err != nil {
		return nil, fmt.Errorf("solo pass: %w", err)
	}
	tot := u.tot
	if err := u.close(); err != nil {
		return nil, err
	}
	setup := rec.aggregate(0, first)
	out.set("vmi.init_preprocess.ms", ms(time.Duration(setup["vmi.init_preprocess"].total)), 1)
	out.set("checkpoint.new.ms", ms(time.Duration(setup["checkpoint.new"].total)), 1)
	out.set("hv.create_domain.ms", ms(time.Duration(setup["hv.create_domain"].total)), 1)
	out.set("guestos.boot.ms", ms(time.Duration(setup["guestos.boot"].total)), 1)
	layerMetrics(out, p, rec.aggregate(first, len(rec.spans)), tot)
	side, err := sidePass(p, seed, w.warmup, min(sideEpochs, epochs), out)
	if err != nil {
		return nil, err
	}
	return []*recorder{rec, side}, nil
}

// tracedFleet is the traced run of fleet4-mixed.
func tracedFleet(w workloadDef, seed int64) (*result, []*recorder, error) {
	t := third(w)
	out, err := runFleet(t, seed, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("reference pass: %w", err)
	}
	o := discardObserver()
	fr, err := launchFleet(w, seed, o)
	if err != nil {
		return nil, nil, err
	}
	fr.fleet.Run(t.warmup, fr.work(nil))

	var names []string
	for _, vm := range fr.fleet.VMs() {
		names = append(names, vm.Name)
	}
	waitBefore, _ := gateWaitNs(o, names)
	t0 := time.Now()
	recs := make([]*recorder, w.vms)
	var wg sync.WaitGroup
	for i, vm := range fr.fleet.VMs() {
		rec := newRecorder(t0, vm.Name, t.epochs*2)
		recs[i] = rec
		work := func(*fleet.VM, int) func(*guestos.Guest) error {
			return func(g *guestos.Guest) error {
				rec.begin("guestos.work")
				defer rec.end()
				return fr.loads[vm.Index].runEpoch(g, tagClean)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := 0; e < t.epochs; e++ {
				rec.epoch++
				rec.begin("core.run_epoch")
				vm.RunEpochs(1, work)
				rec.end()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	waitAfter, _ := gateWaitNs(o, names)

	print := newFingerprint()
	if err := fr.finish(w.name+" (traced)", t.warmup+t.epochs, &out.checks, &print); err != nil {
		return nil, nil, err
	}
	if !setFidelity(out, &print) {
		return out, recs, nil
	}
	n := w.vms * t.epochs
	eps := float64(n) / wall.Seconds()
	out.set("fleet.gate_wait.us_per_epoch", (waitAfter-waitBefore)/1e3/float64(n), n)
	out.set("obs.overhead_ratio", eps/out.regionEPS, n)
	out.set("trace.overhead_ratio", out.regionEPS/eps, n)

	solo, err := soloPass(w, fleetParams(w, seed)[0], seed, min(soloEpochs, t.epochs), out)
	if err != nil {
		return nil, nil, err
	}
	return out, append(recs, solo...), nil
}

// tracedCluster is the traced run of cluster4-failover.
func tracedCluster(w workloadDef, seed int64) (*result, []*recorder, error) {
	t := third(w)
	out, err := runCluster(t, seed, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("reference pass: %w", err)
	}
	o := discardObserver()
	cr, err := launchCluster(w, seed, o)
	if err != nil {
		return nil, nil, err
	}
	cr.cl.Run(t.warmup, cr.work(nil))
	cr.killHosts(t)

	t0 := time.Now()
	rounds := newRecorder(t0, "cluster", t.epochs)
	recs := make([]*recorder, w.vms)
	for i := range recs {
		recs[i] = newRecorder(t0, fmt.Sprintf("vm%d", i), t.epochs)
	}
	// One VM's epochs never overlap (a round is a barrier), so each VM's
	// recorder is only ever used by one goroutine at a time.
	work := func(vm *cluster.VM, round int) func(*guestos.Guest) error {
		return func(g *guestos.Guest) error {
			rec := recs[vm.Index]
			rec.epoch = round
			rec.begin("guestos.work")
			defer rec.end()
			return cr.loads[vm.Index].runEpoch(g, tagClean)
		}
	}
	for r := 0; r < t.epochs; r++ {
		rounds.epoch++
		rounds.begin("cluster.round")
		cr.cl.Run(1, work)
		rounds.end()
	}
	wall := time.Since(t0)

	print := newFingerprint()
	if err := cr.finish(w.name+" (traced)", t.warmup+t.epochs, &out.checks, &print); err != nil {
		return nil, nil, err
	}
	recs = append(recs, rounds)
	if !setFidelity(out, &print) {
		return out, recs, nil
	}
	n := w.vms * t.epochs
	eps := float64(n) / wall.Seconds()
	out.set("obs.overhead_ratio", eps/out.regionEPS, n)
	out.set("trace.overhead_ratio", out.regionEPS/eps, n)

	p := w.vm
	p.remote = true // a cluster VM ships to its replica serially inside the boundary
	solo, err := soloPass(w, p, seed, min(soloEpochs, t.epochs), out)
	if err != nil {
		return nil, nil, err
	}
	return out, append(recs, solo...), nil
}
