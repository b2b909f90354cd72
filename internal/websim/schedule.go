package websim

import "time"

// Cycle is one epoch of a VM's protection timeline: a speculative Run
// window followed by the checkpoint-plus-audit Pause. Timelines are
// captured from real controller runs (each epoch's actual — possibly
// jittered or SLO-tuned — interval and its priced pause), so the load
// generator sees exactly the boundaries the protection stack produced
// rather than an idealized fixed Epoch+Pause pair.
type Cycle struct {
	Run   time.Duration
	Pause time.Duration
}

// Replicate returns vms copies of one captured timeline — the usual
// fleet shape where every VM runs the same config against the same
// workload profile.
func Replicate(cycles []Cycle, vms int) [][]Cycle {
	out := make([][]Cycle, vms)
	for i := range out {
		out[i] = cycles
	}
	return out
}

// WithOutage returns a copy of cycles with an outage appended to the
// pause of the 0-based epoch — e.g. a cluster failover where the VM is
// down from its host's death until the remote replica is promoted
// (priced by cost.Model.Promote). The load generator then shows the
// failover as that VM's tail spike.
func WithOutage(cycles []Cycle, epoch int, outage time.Duration) []Cycle {
	out := append([]Cycle(nil), cycles...)
	if epoch >= 0 && epoch < len(out) {
		out[epoch].Pause += outage
	}
	return out
}

// FleetSchedule turns per-VM captured timelines into gate-adjusted
// absolute schedules on one shared virtual clock: VM i's boundaries are
// staggered by i/vms of the first interval (the fleet scheduler's
// stagger rule), each timeline repeats cyclically out to horizon, and
// at most k VMs may hold a pause slot at once. A VM reaching its epoch
// boundary while the gate is full keeps running until a slot frees —
// gate pressure becomes extra run time, exactly like the fleet's
// PauseGate, so an undersized K shows up as drifting boundaries rather
// than as serialized outages.
//
// The result is one []Cycle per VM, ready to drive a Gen: the gate wait
// is folded into Run. Everything is integer virtual time; identical
// inputs produce identical schedules.
func FleetSchedule(perVM [][]Cycle, k int, horizon time.Duration) [][]Cycle {
	n := len(perVM)
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	base := perVM[0][0].Run

	// Per-VM cursor state.
	type vmState struct {
		cycleIdx   int
		boundary   time.Duration // when the VM wants its next pause
		lastResume time.Duration // when its current run began
		out        []Cycle
		done       bool
	}
	vms := make([]vmState, n)
	for i := range vms {
		offset := base * time.Duration(i) / time.Duration(n)
		vms[i].boundary = offset + perVM[i][0].Run
	}
	// K slots, each with the time it frees up.
	slots := make([]time.Duration, k)

	for {
		// Earliest boundary first; ties break by VM index, so the
		// schedule is deterministic.
		min := -1
		for i := range vms {
			if vms[i].done {
				continue
			}
			if min < 0 || vms[i].boundary < vms[min].boundary {
				min = i
			}
		}
		if min < 0 {
			break
		}
		vm := &vms[min]
		if vm.boundary >= horizon {
			if run := horizon - vm.lastResume; run > 0 {
				vm.out = append(vm.out, Cycle{Run: run})
			}
			vm.done = true
			continue
		}
		// Earliest-free slot; the pause starts when both the VM and a
		// slot are ready.
		slot := 0
		for s := 1; s < k; s++ {
			if slots[s] < slots[slot] {
				slot = s
			}
		}
		start := vm.boundary
		if slots[slot] > start {
			start = slots[slot] // gate wait: the VM keeps running
		}
		cycles := perVM[min]
		pause := cycles[vm.cycleIdx%len(cycles)].Pause
		slots[slot] = start + pause
		vm.out = append(vm.out, Cycle{Run: start - vm.lastResume, Pause: pause})
		vm.lastResume = start + pause
		vm.cycleIdx++
		vm.boundary = vm.lastResume + cycles[vm.cycleIdx%len(cycles)].Run
	}

	out := make([][]Cycle, n)
	for i := range vms {
		out[i] = vms[i].out
	}
	return out
}

// DriveGen replays one VM's schedule into its generator up to horizon,
// clamping the final segment so every VM's clock ends exactly there, and
// restarts the measurement window (ResetMeasure) exactly at measureFrom,
// so every VM reports the same (measureFrom, horizon] interval. A segment
// that straddles measureFrom is split there; a split pause would be an
// extra release edge under Buffered, so buffered drivers measure from 0.
func DriveGen(g *Gen, cycles []Cycle, measureFrom, horizon time.Duration) {
	measuring := false
	seg := func(d time.Duration, advance func(time.Duration)) {
		if rest := horizon - g.Now(); d > rest {
			d = rest
		}
		if pre := measureFrom - g.Now(); !measuring && pre <= d {
			if pre > 0 {
				advance(pre)
				d -= pre
			}
			g.ResetMeasure()
			measuring = true
		}
		if d > 0 {
			advance(d)
		}
	}
	for _, c := range cycles {
		if g.Now() >= horizon {
			return
		}
		seg(c.Run, g.Run)
		seg(c.Pause, g.Pause)
	}
	// Schedule exhausted early (no protection, or an outage-heavy
	// timeline): the VM runs unprotected to the horizon.
	seg(horizon-g.Now(), g.Run)
}
