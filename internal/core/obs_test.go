package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/obs"
)

// newCollector returns an observer capturing events in memory plus a
// metrics registry, and the sink to read events back from.
func newCollector() (*obs.Observer, *obs.CollectSink) {
	sink := &obs.CollectSink{}
	return &obs.Observer{Trace: obs.NewTracer(sink), Metrics: obs.NewRegistry()}, sink
}

// phasesOf projects events onto their phase names.
func phasesOf(events []obs.Event) []obs.Phase {
	out := make([]obs.Phase, len(events))
	for i, ev := range events {
		out[i] = ev.Phase
	}
	return out
}

// dirtyingWork returns an epoch work function that dirties a few guest
// pages every epoch, so each commit has pages to scan and copy.
func dirtyingWork(t *testing.T) func(*guestos.Guest) error {
	t.Helper()
	var pid uint32
	var bufVA uint64
	return func(g *guestos.Guest) error {
		if pid == 0 {
			var err error
			if pid, err = g.StartProcess("app", 0, 8); err != nil {
				return err
			}
			if bufVA, err = g.Malloc(pid, 4*mem.PageSize); err != nil {
				return err
			}
		}
		for i := 0; i < 4; i++ {
			if err := g.WriteUser(pid, bufVA+uint64(i*mem.PageSize), []byte{0xAB}); err != nil {
				return err
			}
		}
		return nil
	}
}

// eventsForEpoch filters events down to one epoch.
func eventsForEpoch(events []obs.Event, epoch int) []obs.Event {
	var out []obs.Event
	for _, ev := range events {
		if ev.Epoch == epoch {
			out = append(out, ev)
		}
	}
	return out
}

func assertPhases(t *testing.T, events []obs.Event, want []obs.Phase) {
	t.Helper()
	got := phasesOf(events)
	if len(got) != len(want) {
		t.Fatalf("phase sequence = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phase[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestTraceCleanEpochSequence replays the trace of clean epochs against
// the exact expected per-epoch event sequence.
func TestTraceCleanEpochSequence(t *testing.T) {
	o, sink := newCollector()
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval: 50 * time.Millisecond,
		Modules:       detect.DefaultModules(),
		Obs:           o,
	})
	const epochs = 3
	work := dirtyingWork(t)
	for i := 0; i < epochs; i++ {
		if _, err := ctl.RunEpoch(work); err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
	}

	events := sink.Events()
	for e := 1; e <= epochs; e++ {
		assertPhases(t, eventsForEpoch(events, e),
			[]obs.Phase{obs.PhaseRun, obs.PhasePause, obs.PhaseScan, obs.PhaseCommit})
	}
	var lastSeq uint64
	var lastVirtual int64
	for _, ev := range events {
		if ev.VM != "guest" {
			t.Errorf("event VM = %q, want guest", ev.VM)
		}
		if ev.Seq <= lastSeq {
			t.Errorf("seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.VirtualNs < lastVirtual {
			t.Errorf("virtual clock went backwards: %d after %d", ev.VirtualNs, lastVirtual)
		}
		lastVirtual = ev.VirtualNs
		if ev.Err != "" || ev.Action != "" {
			t.Errorf("clean epoch carries err/action: %+v", ev)
		}
	}
	for _, ev := range events {
		switch ev.Phase {
		case obs.PhaseRun:
			if ev.DurNs != int64(50*time.Millisecond) {
				t.Errorf("run DurNs = %d, want epoch interval", ev.DurNs)
			}
		case obs.PhasePause:
			if ev.Pages <= 0 {
				t.Errorf("pause event with no harvested pages: %+v", ev)
			}
		case obs.PhaseCommit:
			if ev.Hypercalls == nil || ev.Hypercalls.Total() == 0 {
				t.Errorf("commit event missing hypercall delta: %+v", ev)
			}
		}
	}

	reg := o.Registry()
	if got := reg.Counter("crimes_epochs_total", "vm", "guest").Value(); got != epochs {
		t.Errorf("crimes_epochs_total = %d, want %d", got, epochs)
	}
	if got := reg.Histogram("crimes_pause_virtual_ns", obs.DurationBuckets(), "vm", "guest").Count(); got != epochs {
		t.Errorf("pause histogram count = %d, want %d", got, epochs)
	}
}

// TestTraceRollbackSequence injects a mid-commit fault and replays the
// trace: the failing epoch must emit the commit event carrying the error
// and the rollback action, followed by the rollback itself.
func TestTraceRollbackSequence(t *testing.T) {
	o, sink := newCollector()
	ctl, inj, _ := newFaultController(t, Config{
		EpochInterval: 20 * time.Millisecond,
		Modules:       detect.DefaultModules(),
		Obs:           o,
	})
	work := dirtyingWork(t)
	if _, err := ctl.RunEpoch(work); err != nil {
		t.Fatalf("clean epoch: %v", err)
	}

	// Fail the commit in epoch 2's page-copy loop.
	inj.FailNext(checkpoint.FaultCopyPage, 1, false)
	res, err := ctl.RunEpoch(work)
	if err == nil {
		t.Fatal("injected commit fault did not surface")
	}
	if res.Recovery.Unwind != UnwindRollback {
		t.Fatalf("unwind = %q, want rollback", res.Recovery.Unwind)
	}

	ep2 := eventsForEpoch(sink.Events(), 2)
	assertPhases(t, ep2, []obs.Phase{
		obs.PhaseRun, obs.PhasePause, obs.PhaseScan, obs.PhaseCommit, obs.PhaseRollback})
	commit := ep2[3]
	if commit.Err == "" || commit.Action != UnwindRollback {
		t.Errorf("commit event = %+v, want error + rollback action", commit)
	}
	rb := ep2[4]
	if rb.DurNs <= 0 {
		t.Errorf("rollback event carries no priced duration: %+v", rb)
	}
	if got := o.Registry().Counter("crimes_unwinds_total", "vm", "guest", "path", UnwindRollback).Value(); got != 1 {
		t.Errorf("crimes_unwinds_total{path=rollback} = %d, want 1", got)
	}

	// The VM resumed: the next epoch is clean again and traced as such.
	if _, err := ctl.RunEpoch(work); err != nil {
		t.Fatalf("epoch after rollback: %v", err)
	}
	assertPhases(t, eventsForEpoch(sink.Events(), 3),
		[]obs.Phase{obs.PhaseRun, obs.PhasePause, obs.PhaseScan, obs.PhaseCommit})
}

// TestTraceIncidentSequence replays the failed-audit trace: findings on
// the scan, the rollback/replay pinpointing pass, and the final halt.
func TestTraceIncidentSequence(t *testing.T) {
	o, sink := newCollector()
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval:    50 * time.Millisecond,
		Modules:          detect.DefaultModules(),
		ReplayOnIncident: true,
		Obs:              o,
	})
	var pid uint32
	var bufVA uint64
	if _, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		var err error
		if pid, err = g.StartProcess("victim", 1000, 8); err != nil {
			return err
		}
		if bufVA, err = g.Malloc(pid, 64); err != nil {
			return err
		}
		return g.WriteUser(pid, bufVA, bytes.Repeat([]byte{0x20}, 64))
	}); err != nil {
		t.Fatalf("setup epoch: %v", err)
	}

	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		return g.WriteUser(pid, bufVA, bytes.Repeat([]byte{0x41}, 80))
	})
	if err != nil {
		t.Fatalf("attack epoch: %v", err)
	}
	if res.Incident == nil {
		t.Fatal("attack not detected")
	}

	ep2 := eventsForEpoch(sink.Events(), 2)
	assertPhases(t, ep2, []obs.Phase{
		obs.PhaseRun, obs.PhasePause, obs.PhaseScan,
		obs.PhaseRollback, obs.PhaseReplay, obs.PhaseHalt})
	if ep2[2].Findings == 0 {
		t.Errorf("scan event reports no findings: %+v", ep2[2])
	}
	if ep2[3].Action != "incident" {
		t.Errorf("rollback action = %q, want incident", ep2[3].Action)
	}
	wantReplay := "not-pinpointed"
	if res.Incident.Pinpoint != nil {
		wantReplay = "pinpointed"
	}
	if ep2[4].Action != wantReplay {
		t.Errorf("replay action = %q, want %q", ep2[4].Action, wantReplay)
	}
	halt := ep2[5]
	if halt.Action != "incident" || halt.Findings == 0 {
		t.Errorf("halt event = %+v, want incident action with findings", halt)
	}

	reg := o.Registry()
	if got := reg.Counter("crimes_incidents_total", "vm", "guest").Value(); got != 1 {
		t.Errorf("crimes_incidents_total = %d, want 1", got)
	}
}

// TestObsPreservesVirtualTime runs the identical deterministic workload
// with and without an observer: every priced output (virtual clock,
// pause totals, per-epoch phase costs) must be byte-identical, because
// emission never touches the virtual clock.
func TestObsPreservesVirtualTime(t *testing.T) {
	run := func(o *obs.Observer) (time.Duration, time.Duration, []time.Duration) {
		ctl, _ := newController(t, guestos.LinuxProfile(), Config{
			EpochInterval: 50 * time.Millisecond,
			Modules:       detect.DefaultModules(),
			Obs:           o,
		})
		var pauses []time.Duration
		var pid uint32
		for i := 0; i < 3; i++ {
			res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
				var err error
				if i == 0 {
					if pid, err = g.StartProcess("app", 0, 8); err != nil {
						return err
					}
				}
				return g.Compute(pid, 2)
			})
			if err != nil {
				t.Fatalf("epoch %d: %v", i+1, err)
			}
			pauses = append(pauses, res.Phases.Total())
		}
		return ctl.VirtualTime(), ctl.TotalPause(), pauses
	}

	obsOn, _ := newCollector()
	vtOff, pauseOff, perOff := run(nil)
	vtOn, pauseOn, perOn := run(obsOn)
	if vtOff != vtOn || pauseOff != pauseOn {
		t.Fatalf("observer changed the virtual clock: off=(%v,%v) on=(%v,%v)",
			vtOff, pauseOff, vtOn, pauseOn)
	}
	for i := range perOff {
		if perOff[i] != perOn[i] {
			t.Errorf("epoch %d priced pause differs: off=%v on=%v", i+1, perOff[i], perOn[i])
		}
	}
}
