package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/guestos"
)

// The output checkers are what stands between a broken optimisation and
// a good-looking number, so each is fed a deliberately wrong input and
// must count it as a failure.

func tinyVM() vmParams {
	return vmParams{
		pages: 512, spec: mustSpec("raytrace"), scale: 64, interval: 200 * time.Millisecond,
		packets: 2, core: core.Config{Opt: cost.Full, Workers: 1},
	}
}

func TestCheckerCountsCleanRunAsClean(t *testing.T) {
	vm, err := launchVM(tinyVM(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := newResult("tiny", false)
	out.print = newFingerprint()
	for e := 0; e < 3; e++ {
		res, err := vm.epoch(nil)
		if !out.checks.cleanEpoch("epoch", res, err) {
			t.Fatalf("clean epoch %d counted as failed: %v", e+1, out.checks.msgs)
		}
	}
	if err := vm.settleAndCheck("tiny", out); err != nil {
		t.Fatal(err)
	}
	if out.checks.failed != 0 || out.checks.attempted != 5 {
		t.Fatalf("clean run: attempted %d failed %d %v, want 5 and 0", out.checks.attempted, out.checks.failed, out.checks.msgs)
	}
}

func TestCheckerBackupDigestOffByOnePage(t *testing.T) {
	vm, err := launchVM(tinyVM(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.epoch(nil); err != nil {
		t.Fatal(err)
	}
	// One flipped byte in one page of the backup: the evidence no longer
	// is the state at the last clean boundary.
	backup := vm.ctl.Checkpointer().Backup()
	var b [1]byte
	if err := backup.ReadPhys(300*4096+17, b[:]); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if err := backup.WritePhys(300*4096+17, b[:]); err != nil {
		t.Fatal(err)
	}
	out := newResult("tiny", false)
	out.print = newFingerprint()
	if err := vm.settleAndCheck("tiny", out); err != nil {
		t.Fatal(err)
	}
	if out.checks.failed != 1 || !strings.Contains(strings.Join(out.checks.msgs, "\n"), "backup digest") {
		t.Fatalf("diverged backup not counted: failed %d %v", out.checks.failed, out.checks.msgs)
	}
}

func TestCheckerPacketFromAttackedEpoch(t *testing.T) {
	var sent outputTally
	var deliv tallyDeliverer
	clean := make([]byte, payloadLen)
	clean[0] = tagClean
	sent.add(clean)
	deliv.DeliverPacket(guestos.Packet{Payload: clean})

	var c checker
	c.outputs("ok", sent.snapshot(), deliv.got.snapshot())
	if c.failed != 0 {
		t.Fatalf("matching outputs counted as failed: %v", c.msgs)
	}

	attacked := make([]byte, payloadLen)
	attacked[0] = tagAttacked
	sent.add(attacked) // sent in the attacked epoch: must never be delivered
	deliv.DeliverPacket(guestos.Packet{Payload: attacked})
	c.outputs("leak", sent.snapshot(), deliv.got.snapshot())
	if c.failed != 1 || !strings.Contains(c.msgs[0], "attacked epoch") {
		t.Fatalf("leaked attacked-epoch packet not counted: failed %d %v", c.failed, c.msgs)
	}
}

func TestCheckerLostOrAlteredPacket(t *testing.T) {
	payload := make([]byte, payloadLen)
	payload[0] = tagClean
	var sent outputTally
	sent.add(payload)

	var lost tallyDeliverer
	var c checker
	c.outputs("lost", sent.snapshot(), lost.got.snapshot())
	if c.failed != 1 {
		t.Fatalf("undelivered committed packet not counted: %v", c.msgs)
	}

	altered := append([]byte(nil), payload...)
	altered[100] ^= 1
	var deliv tallyDeliverer
	deliv.DeliverPacket(guestos.Packet{Payload: altered})
	c = checker{}
	c.outputs("altered", sent.snapshot(), deliv.got.snapshot())
	if c.failed != 1 {
		t.Fatalf("altered packet not counted: %v", c.msgs)
	}
}

func TestCheckerFleetVMWithErr(t *testing.T) {
	var c checker
	c.vmStats([]fleet.Stats{
		{Name: "vm0", Epochs: 10, CleanEpochs: 10},
		{Name: "vm1", Epochs: 4, CleanEpochs: 3, Err: "core: epoch 4 commit: boom"},
	}, 10)
	if c.attempted != 20 || c.failed != 7 {
		t.Fatalf("early-stopped VM: attempted %d failed %d, want 20 and 7 (its 7 missing epochs)", c.attempted, c.failed)
	}
	if !strings.Contains(strings.Join(c.msgs, "\n"), "boom") {
		t.Fatalf("swallowed error not reported: %v", c.msgs)
	}

	// An error on a VM that still reached its epoch count must not pass.
	c = checker{}
	c.vmStats([]fleet.Stats{{Name: "vm0", Epochs: 10, CleanEpochs: 10, Err: "late"}}, 10)
	if c.failed != 1 {
		t.Fatalf("Stats.Err with a full epoch count not counted: %v", c.msgs)
	}
	c = checker{}
	c.vmStats([]fleet.Stats{{Name: "vm0", Epochs: 10, CleanEpochs: 10, Findings: 1, Incidents: 1, Halted: true}}, 10)
	if c.failed != 1 {
		t.Fatalf("halted VM not counted: %v", c.msgs)
	}
}

func TestCheckerCleanEpoch(t *testing.T) {
	for name, tc := range map[string]struct {
		res *core.EpochResult
		err error
	}{
		"error":   {&core.EpochResult{}, errors.New("boom")},
		"nil":     {nil, nil},
		"unwind":  {&core.EpochResult{Recovery: core.Recovery{Unwind: core.UnwindRollback}}, nil},
		"finding": {&core.EpochResult{Findings: []detect.Finding{{Kind: detect.KindMalware}}}, nil},
	} {
		var c checker
		if c.cleanEpoch(name, tc.res, tc.err) || c.failed != 1 || c.attempted != 1 {
			t.Errorf("%s: not counted as a failed epoch (attempted %d failed %d)", name, c.attempted, c.failed)
		}
	}
}

func TestCheckerIncident(t *testing.T) {
	overflow := attack{family: "overflow", pid: 7, va: 0x7000_1000}
	finding := []detect.Finding{{Kind: detect.KindBufferOverflow}}
	pin := &pinpoint{pid: 7, va: 0x7000_1000}
	report := strings.Join(reportSections["overflow"], "\n")

	var c checker
	c.incident("good", overflow, finding, pin, report, nil)
	if c.failed != 0 {
		t.Fatalf("correct incident counted as failed: %v", c.msgs)
	}

	for name, run := range map[string]func(*checker){
		"undetected attack": func(c *checker) { c.incident("x", overflow, nil, nil, "", nil) },
		"wrong kind": func(c *checker) {
			c.incident("x", overflow, []detect.Finding{{Kind: detect.KindMalware}}, pin, report, nil)
		},
		"not pinpointed":   func(c *checker) { c.incident("x", overflow, finding, nil, report, nil) },
		"wrong pinpoint":   func(c *checker) { c.incident("x", overflow, finding, &pinpoint{pid: 7, va: 0x7000_2000}, report, nil) },
		"missing section":  func(c *checker) { c.incident("x", overflow, finding, pin, reportSections["overflow"][0], nil) },
		"response errored": func(c *checker) { c.incident("x", overflow, finding, pin, report, errors.New("respond: boom")) },
		"undetected hidden process": func(c *checker) {
			c.incident("x", attack{family: "hidden"}, nil, nil, "", nil)
		},
	} {
		var c checker
		run(&c)
		if c.failed != 1 || c.attempted != 1 {
			t.Errorf("%s: attempted %d failed %d, want 1 and 1", name, c.attempted, c.failed)
		}
	}
}

func TestFailedCheckFailsTheCommand(t *testing.T) {
	r := newResult("w", false)
	r.checks.attempted = 10
	r.checks.fail("boom")
	if l := resultLine(r, false); l.Correct || l.Failed != 1 || l.Attempted != 10 {
		t.Fatalf("result line %+v does not report the failure", l)
	}
	if got := r.checks.share(); got != 0.1 {
		t.Fatalf("failed_share = %v, want 0.1", got)
	}
}
