package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/workload"
)

// incident-forensics: launch a small VM, run a few clean epochs, then
// one attacked epoch, and do it again. It is the only workload where
// set-up is paid per operation, so work moved into set-up shows in
// setup_s, and the only one that exercises the failed-audit path:
// discard, dumps, rollback and replay, postmortem, rendered report.
//
// Every iteration builds a VM and throws it away, and every boundary
// allocates a guest-sized history dump, so on the collector's own pacing
// a cycle starts about once an epoch: where it lands, and whether the
// second core is free for it, moved the boundary median by a fifth
// between runs of the same code. The harness therefore collects at
// iteration edges: the pacer is off while the workload runs and one
// collection is forced after each VM is closed, in the measured pass and
// in incidentPass.run alike. The collection is inside the measured region
// (epochs_per_s and cpu_us_per_epoch pay for it) but never inside a
// boundary.

// attackPlan is the seeded order the four attack families cycle in and
// the per-iteration parameters.
type attackPlan struct {
	order []int
	rng   *rand.Rand
}

func newAttackPlan(seed int64) *attackPlan {
	rng := rand.New(rand.NewSource(subSeed(seed, 300)))
	return &attackPlan{order: rng.Perm(len(attackFamilies)), rng: rng}
}

func (p *attackPlan) family(iteration int) string {
	return attackFamilies[p.order[iteration%len(p.order)]]
}

// inject performs the iteration's attack as ordinary guest activity.
func (p *attackPlan) inject(g *guestos.Guest, family string, pid uint32) (attack, error) {
	a := attack{family: family}
	var err error
	switch family {
	case "overflow":
		a.pid = pid
		a.va, err = workload.InjectOverflow(g, pid, 64+16*p.rng.Intn(4), 16)
	case "malware":
		_, err = workload.InjectMalware(g)
	case "hijack":
		err = workload.InjectSyscallHijack(g, p.rng.Intn(g.Profile().NumSyscalls))
	default:
		_, err = workload.InjectHiddenProcess(g, "kworker/u8:3")
	}
	return a, err
}

// iterationSeed is the boot and load seed of one iteration's VM.
func iterationSeed(seed int64, iteration int) int64 { return subSeed(seed, 1000+iteration) }

// runIncident is the measured run of incident-forensics. between is as
// in runSingle.
func runIncident(w workloadDef, seed int64, between func(seg int) error) (*result, error) {
	out := newResult(w.name, false)
	out.print = newFingerprint()
	plan := newAttackPlan(seed)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	reg := newRegion(1, w.epochs/segments*w.cleanEpochs+1)
	clock := reg.clocks[0]
	var setup, vpause time.Duration
	var incidentNs [segments][]int64
	var first setupTimes
	per := w.epochs / segments
	for s := 0; s < segments; s++ {
		reg.begin(s)
		for i := 0; i < per; i++ {
			it := s*per + i
			label := fmt.Sprintf("iteration %d", it+1)
			start := time.Now()
			vm, err := launchVM(w.vm, iterationSeed(seed, it), nil)
			if err != nil {
				return nil, err
			}
			setup += time.Since(start)
			if it == 0 {
				first = vm.times
			}
			clock.reset()
			for e := 0; e < w.cleanEpochs; e++ {
				res, err := vm.epoch(clock)
				if !out.checks.cleanEpoch(label, res, err) {
					continue
				}
				reg.epochs[s]++
				vpause += res.Phases.Total()
				out.print.epoch(it, res.Counts.DirtyPages, 0)
			}
			var a attack
			var rendered string
			family := plan.family(it)
			t0 := time.Now()
			res, err := vm.ctl.RunEpoch(func(g *guestos.Guest) error {
				clock.enter()
				if err := vm.load.runEpoch(g, tagAttacked); err != nil {
					return err
				}
				var ierr error
				a, ierr = plan.inject(g, family, vm.load.pid)
				return ierr
			})
			var pin *pinpoint
			findings := resFindings(res)
			if err == nil && res.Incident != nil {
				if p := res.Incident.Pinpoint; p != nil {
					pin = &pinpoint{pid: p.Op.PID, va: p.Op.VA}
				}
				if res.Incident.Report != nil {
					rendered = res.Incident.Report.Render()
				}
			}
			incidentNs[s] = append(incidentNs[s], int64(time.Since(t0)))
			out.checks.incident(label, a, findings, pin, rendered, err)
			out.checks.outputs(label, vm.sent.snapshot(), vm.deliv.got.snapshot())
			out.print.epoch(it, 0, len(findings))
			out.print.load(vm.load)
			if it == w.epochs-1 {
				if err := checkpointDigests("last", vm.ctl.Checkpointer(), nil, &out.print); err != nil {
					return nil, err
				}
			}
			if err := vm.ctl.Close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
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
	out.set("setup_s", setup.Seconds(), w.epochs)
	var p50 []float64
	for s := range incidentNs {
		sort.Slice(incidentNs[s], func(i, j int) bool { return incidentNs[s][i] < incidentNs[s][j] })
		p50 = append(p50, percentile(incidentNs[s], 0.5)/1e6)
	}
	out.set("incident_ms_p50", quartileSegment(p50, lower), per)
	if n := reg.total(); n > 0 {
		out.set("vpause_us_per_epoch", us(vpause)/float64(n), n)
	}
	out.set("hv.create_domain.ms", ms(first.createDomain), 1)
	out.set("guestos.boot.ms", ms(first.boot), 1)
	out.set("core.new.ms", ms(first.coreNew), 1)
	return out, nil
}

func resFindings(res *core.EpochResult) []detect.Finding {
	if res == nil {
		return nil
	}
	return res.Findings
}
