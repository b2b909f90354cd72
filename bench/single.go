package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/obs"
)

// Measured mode for the single-VM workloads. It stays on the narrowest
// public surface — hv.New/CreateDomain, guestos.Boot, core.New,
// Controller.RunEpoch — so a refactor below that surface cannot break
// the end-to-end numbers.

// replicationKey is the AES key for remote replication conduits.
var replicationKey = []byte("crimes-bench-key")

// subSeed derives an independent stream seed (splitmix64 finaliser).
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// defaultModules is the full detector stack (canary, malware blacklist,
// syscall integrity, hidden process).
func defaultModules() []detect.Module {
	mods, err := detect.ModulesByName("default")
	if err != nil {
		panic(err)
	}
	return mods
}

// setupTimes are the wall times of a VM's construction steps.
type setupTimes struct {
	createDomain, boot, coreNew time.Duration
}

// singleVM is one launched VM with its load generator and output tallies.
type singleVM struct {
	hv    *hv.Hypervisor
	guest *guestos.Guest
	ctl   *core.Controller
	load  *guestLoad
	sent  *outputTally
	deliv *tallyDeliverer
	times setupTimes
}

// frames sizes the hypervisor: primary + local backup, a third copy for
// the remote replica, and `extra` more domains' worth (the traced run's
// scratch domain).
func (p vmParams) frames(extra int) int {
	n := 2
	if p.remote {
		n = 3
	}
	return (n+extra)*p.pages + 64
}

// coreConfig completes the workload's strategy knobs into a controller
// configuration.
func (p vmParams) coreConfig(deliv *tallyDeliverer, o *obs.Observer) core.Config {
	cfg := p.core
	cfg.EpochInterval = p.interval
	cfg.Modules = defaultModules()
	cfg.Deliverer = deliv
	cfg.Obs = o
	return cfg
}

// launchVM boots a guest on a fresh hypervisor and attaches a
// controller: hv.New, CreateDomain, guestos.Boot, core.New, then remote
// replication where the workload has it.
func launchVM(p vmParams, seed int64, o *obs.Observer) (*singleVM, error) {
	vm := &singleVM{sent: &outputTally{}, deliv: &tallyDeliverer{}}
	vm.hv = hv.New(p.frames(0))
	t0 := time.Now()
	dom, err := vm.hv.CreateDomain("guest", p.pages)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	vm.guest, err = guestos.Boot(dom, guestos.BootConfig{Seed: seed, CanaryCapacity: p.canaryCap})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	vm.ctl, err = core.New(vm.hv, vm.guest, p.coreConfig(vm.deliv, o))
	if err != nil {
		return nil, err
	}
	if p.remote {
		if err := vm.ctl.Checkpointer().EnableRemoteReplication(replicationKey); err != nil {
			return nil, err
		}
	}
	vm.times = setupTimes{createDomain: t1.Sub(t0), boot: t2.Sub(t1), coreNew: time.Since(t2)}
	vm.load = newGuestLoad(p, subSeed(seed, 0), vm.sent)
	return vm, nil
}

// epoch runs one clean epoch through the controller, timing the
// boundary from outside when a clock is given.
func (vm *singleVM) epoch(clock *boundaryClock) (*core.EpochResult, error) {
	return vm.ctl.RunEpoch(func(g *guestos.Guest) error {
		if clock != nil {
			clock.enter()
			defer clock.leave()
		}
		return vm.load.runEpoch(g, tagClean)
	})
}

// settleAndCheck closes the controller (which drains the CoW copier and
// the replication pipeline) and runs the end-of-run output checks.
func (vm *singleVM) settleAndCheck(label string, out *result) error {
	if err := vm.ctl.Close(); err != nil {
		return fmt.Errorf("%s: close: %w", label, err)
	}
	if err := checkpointDigests(label, vm.ctl.Checkpointer(), &out.checks, &out.print); err != nil {
		return err
	}
	out.print.load(vm.load)
	out.checks.outputs(label, vm.sent.snapshot(), vm.deliv.got.snapshot())
	return nil
}

// releaseMemory collects a discarded set-up so that the next one reuses
// its heap and peak RSS counts one VM. The memory is not handed back to
// the OS: faulting 200 MiB in again would make every set-up after the
// first measure the host's page-fault path rather than this code.
func releaseMemory() { runtime.GC() }

// setUp sets a workload up n times — launch is construct + boot +
// initial sync + warm-up — discarding all but the last, and records
// setup_s as the median.
func setUp[T any](n int, out *result, launch func() (T, error), discard func(T) error) (T, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		v, err := launch()
		if err != nil {
			return v, err
		}
		times = append(times, time.Since(start).Seconds())
		if i >= n-1 {
			out.set("setup_s", median(times), len(times))
			return v, nil
		}
		if err := discard(v); err != nil {
			return v, err
		}
		releaseMemory()
	}
}

func setupSingle(w workloadDef, seed int64, o *obs.Observer, out *result) (*singleVM, error) {
	return setUp(w.setups, out, func() (*singleVM, error) {
		vm, err := launchVM(w.vm, seed, o)
		if err != nil {
			return nil, err
		}
		for e := 0; e < w.warmup; e++ {
			res, err := vm.epoch(nil)
			if !out.checks.cleanEpoch(fmt.Sprintf("warm-up epoch %d", e+1), res, err) {
				return nil, fmt.Errorf("%s: warm-up epoch %d failed", w.name, e+1)
			}
		}
		return vm, nil
	}, func(vm *singleVM) error { return vm.ctl.Close() })
}

// runSingle is the measured run of a single-VM workload. between, when
// set, is called after each measured segment closes: the traced run uses
// it to interleave its own pass with this one, segment by segment, so
// that machine noise hits both alike.
func runSingle(w workloadDef, seed int64, o *obs.Observer, between func(seg int) error) (*result, error) {
	out := newResult(w.name, false)
	out.print = newFingerprint()
	vm, err := setupSingle(w, seed, o, out)
	if err != nil {
		return nil, err
	}
	reg := newRegion(1, w.epochs/segments+1)
	clock := reg.clocks[0]
	var vpause time.Duration
	callsBefore := domainCalls(vm.ctl)
	per := w.epochs / segments
	for s := 0; s < segments; s++ {
		reg.begin(s)
		for e := 0; e < per; e++ {
			res, err := vm.epoch(clock)
			if !out.checks.cleanEpoch(fmt.Sprintf("epoch %d", s*per+e+1), res, err) {
				continue
			}
			reg.epochs[s]++
			vpause += res.Phases.Total()
			out.print.epoch(0, res.Counts.DirtyPages, len(res.Findings))
		}
		// The segment's last boundary ends where the next work would begin.
		clock.enter()
		reg.end(s)
		if between != nil {
			if err := between(s); err != nil {
				return nil, err
			}
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	out.set("peak_rss_mb", rss, 1)
	reg.report(out)
	if n := reg.total(); n > 0 {
		out.set("vpause_us_per_epoch", float64(vpause.Nanoseconds())/1e3/float64(n), n)
		setHypercalls(out, callsBefore, domainCalls(vm.ctl), n)
	}
	if err := vm.settleAndCheck(w.name, out); err != nil {
		return nil, err
	}
	out.set("hv.create_domain.ms", ms(vm.times.createDomain), 1)
	out.set("guestos.boot.ms", ms(vm.times.boot), 1)
	out.set("core.new.ms", ms(vm.times.coreNew), 1)
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// domainCalls sums the hypercalls attributed to every domain the VM's
// checkpointer touches (primary, backup, remote).
func domainCalls(ctl *core.Controller) hv.Hypercalls {
	var total hv.Hypercalls
	for _, d := range ctl.Checkpointer().Domains() {
		total.Add(d.Calls())
	}
	return total
}

func setHypercalls(out *result, before, after hv.Hypercalls, epochs int) {
	per := func(a, b int) float64 { return float64(a-b) / float64(epochs) }
	out.set("hv.hypercalls.map_per_epoch", per(after.MapPage, before.MapPage), epochs)
	out.set("hv.hypercalls.unmap_per_epoch", per(after.UnmapPage, before.UnmapPage), epochs)
	out.set("hv.hypercalls.translate_per_epoch", per(after.Translate, before.Translate), epochs)
	out.set("hv.hypercalls.dirty_read_per_epoch", per(after.DirtyRead, before.DirtyRead), epochs)
	out.set("hv.hypercalls.event_config_per_epoch", per(after.EventConfig, before.EventConfig), epochs)
}
