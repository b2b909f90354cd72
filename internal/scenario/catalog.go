package scenario

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/workload"
)

// Action builders. Attack actions run inside the epoch after the
// workload's activity, at their planned sub-epoch instant.

// overflowAct overruns a heap canary in the workload's own process.
func overflowAct(epoch int, frac float64) Action {
	return Action{Epoch: epoch, Frac: frac, Do: func(rc *RunContext, g *guestos.Guest) error {
		_, err := workload.InjectOverflow(g, rc.Runner.PID(), 64, 16)
		return err
	}}
}

// malwareAct runs the §5.6 registry-exfiltration malware.
func malwareAct(epoch int, frac float64) Action {
	return Action{Epoch: epoch, Frac: frac, Do: func(rc *RunContext, g *guestos.Guest) error {
		_, err := workload.InjectMalware(g)
		return err
	}}
}

// hijackAct overwrites a syscall-table entry.
func hijackAct(epoch int, frac float64) Action {
	return Action{Epoch: epoch, Frac: frac, Do: func(rc *RunContext, g *guestos.Guest) error {
		return workload.InjectSyscallHijack(g, 7)
	}}
}

// hiddenAct starts a process and DKOM-unlinks it, leaving it hidden at
// the boundary.
func hiddenAct(epoch int, frac float64) Action {
	return Action{Epoch: epoch, Frac: frac, Do: func(rc *RunContext, g *guestos.Guest) error {
		_, err := workload.InjectHiddenProcess(g, "darkghost")
		return err
	}}
}

// transientAct spawns the stage-and-exit dropper.
func transientAct(epoch int, frac float64) Action {
	return Action{Epoch: epoch, Frac: frac, Do: func(rc *RunContext, g *guestos.Guest) error {
		_, err := workload.InjectTransient(g, "mimikatz.exe")
		return err
	}}
}

// victimAct starts a benign long-lived process and records its PID for
// later hide/restore steps. Started after the workload's process, it
// sits at the task-list tail, so a hide/restore cycle returns the list
// to byte-identical state.
func victimAct(epoch int, key string) Action {
	return Action{Epoch: epoch, Frac: 0.5, Do: func(rc *RunContext, g *guestos.Guest) error {
		pid, err := g.StartProcess("lurker", 1000, 4)
		if err != nil {
			return err
		}
		rc.PIDs[key] = pid
		return nil
	}}
}

// hideAct DKOM-unlinks the recorded victim.
func hideAct(epoch int, frac float64, key string) Action {
	return Action{Epoch: epoch, Frac: frac, Do: func(rc *RunContext, g *guestos.Guest) error {
		return g.HideProcess(rc.PIDs[key])
	}}
}

// restoreAct relinks the victim before the boundary the attacker
// expects.
func restoreAct(epoch int, frac float64, key string) Action {
	return Action{Epoch: epoch, Frac: frac, Do: func(rc *RunContext, g *guestos.Guest) error {
		return workload.RestoreHiddenProcess(g, rc.PIDs[key])
	}}
}

// hideRestoreCycle plans one hide-then-restore pair per epoch in
// [from, to]: hide just after the epoch starts, restore at 90% of the
// nominal interval — inside the epoch if boundaries are punctual,
// stranded past an early jittered audit otherwise.
func hideRestoreCycle(from, to int, key string) []Action {
	var out []Action
	for e := from; e <= to; e++ {
		out = append(out, hideAct(e, 0.05, key), restoreAct(e, 0.9, key))
	}
	return out
}

// verifyRemoteDiverged asserts the remote replica no longer matches the
// local backup — the post-run proof that a silent wire tamper landed.
func verifyRemoteDiverged(rc *RunContext) error {
	ck := rc.Sys.Controller.Checkpointer()
	remote, backup := ck.Remote(), ck.Backup()
	if remote == nil {
		return fmt.Errorf("remote replica missing (replication degraded?)")
	}
	pages := int(backup.MemBytes() / mem.PageSize)
	a := make([]byte, mem.PageSize)
	b := make([]byte, mem.PageSize)
	for p := 0; p < pages; p++ {
		pa := uint64(p) * mem.PageSize
		if err := backup.ReadPhys(pa, a); err != nil {
			return err
		}
		if err := remote.ReadPhys(pa, b); err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return nil // diverged, as the tamper scenario documents
		}
	}
	return fmt.Errorf("remote replica identical to local backup; wire tamper had no effect")
}

// Catalog is the standing scenario matrix: {attack family} x {config
// arm} cells with expected outcomes. CI shards it by family and fails
// on any drift.
func Catalog() []Scenario {
	var list []Scenario

	// --- overflow: heap canary smash (§5.5 case study 1) ------------
	for _, arm := range []string{"baseline", "workers4", "scan-cache", "cow"} {
		list = append(list, Scenario{
			Name: "overflow-" + arm, Family: "overflow", Workload: "swaptions", Arm: arm,
			Epochs:  3,
			Actions: []Action{overflowAct(2, 0.5)},
			Expect: Expectation{Outcome: OutcomeDetected, ByEpoch: 2,
				Kinds: []detect.Kind{detect.KindBufferOverflow}},
			Notes: "canary audit catches the overrun at the next boundary in every arm",
		})
	}
	list = append(list,
		Scenario{
			Name: "overflow-slo-adaptive", Family: "overflow", Workload: "swaptions", Arm: "slo-adaptive",
			Epochs:  4,
			Actions: []Action{overflowAct(3, 0.5)},
			Expect: Expectation{Outcome: OutcomeDetected, ByEpoch: 3,
				Kinds: []detect.Kind{detect.KindBufferOverflow}},
			Verify: func(rc *RunContext) error {
				if rc.Sys.Controller.SLOSteps() == 0 {
					return fmt.Errorf("SLO controller never steered: the cell must prove detection is unchanged while tuning is active")
				}
				return nil
			},
			Notes: "the SLO controller retunes workers and interval mid-run, yet detection " +
				"lands at the same epoch with the same findings: steering trades latency " +
				"for overhead, never for evidence",
		},
		Scenario{
			Name: "overflow-epoch0", Family: "overflow", Workload: "raytrace", Arm: "baseline",
			Epochs:  3,
			Actions: []Action{overflowAct(0, 0.5)}, // clamps to epoch 1
			Expect: Expectation{Outcome: OutcomeDetected, ByEpoch: 1,
				Kinds: []detect.Kind{detect.KindBufferOverflow}},
			Notes: "scheduling edge: an attack planned before the first epoch lands in epoch 1",
		},
		Scenario{
			Name: "overflow-final-epoch", Family: "overflow", Workload: "raytrace", Arm: "baseline",
			Epochs:  4,
			Actions: []Action{overflowAct(99, 0.5)}, // clamps to the final epoch
			Expect: Expectation{Outcome: OutcomeDetected, ByEpoch: 4,
				Kinds: []detect.Kind{detect.KindBufferOverflow}},
			Notes: "scheduling edge: an attack planned past the run lands in the final epoch; " +
				"outputs stay withheld because audits precede release",
		},
		Scenario{
			Name: "overflow-plus-hijack", Family: "overflow", Workload: "blackscholes", Arm: "baseline",
			Epochs:  4,
			Actions: []Action{overflowAct(3, 0.3), hijackAct(3, 0.6)},
			Expect: Expectation{Outcome: OutcomeDetected, ByEpoch: 3,
				Kinds: []detect.Kind{detect.KindBufferOverflow, detect.KindSyscallHijack}},
			Notes: "two attacks in one epoch: the boundary audit reports both findings together",
		},
	)

	// --- malware: registry exfiltration (§5.6 case study 2) ---------
	for _, arm := range []string{"baseline", "scan-cache", "workers4"} {
		list = append(list, Scenario{
			Name: "malware-" + arm, Family: "malware", Workload: "raytrace", Arm: arm,
			Epochs:  3,
			Actions: []Action{malwareAct(2, 0.4)},
			Expect: Expectation{Outcome: OutcomeDetected, ByEpoch: 2,
				Kinds: []detect.Kind{detect.KindMalware}},
			Notes: "blacklisted process plus suspicious buffered outputs at the boundary",
		})
	}
	list = append(list, Scenario{
		Name: "malware-windows", Family: "malware", Workload: "raytrace", Arm: "baseline",
		Windows: true, Epochs: 3,
		Actions: []Action{malwareAct(2, 0.4)},
		Expect: Expectation{Outcome: OutcomeDetected, ByEpoch: 2,
			Kinds: []detect.Kind{detect.KindMalware}},
		Notes: "same detection against the Windows guest profile",
	})

	// --- hijack: syscall-table integrity ----------------------------
	for _, arm := range []string{"baseline", "cow"} {
		list = append(list, Scenario{
			Name: "hijack-" + arm, Family: "hijack", Workload: "water-n2", Arm: arm,
			Epochs:  3,
			Actions: []Action{hijackAct(2, 0.5)},
			Expect: Expectation{Outcome: OutcomeDetected, ByEpoch: 2,
				Kinds: []detect.Kind{detect.KindSyscallHijack}},
			Notes: "known-good table hash mismatch at the next audit",
		})
	}
	list = append(list, Scenario{
		Name: "hijack-cache-race", Family: "hijack", Workload: "water-n2", Arm: "scan-cache",
		Epochs:  4,
		Actions: []Action{hijackAct(3, 0.95)},
		Expect: Expectation{Outcome: OutcomeDetected, ByEpoch: 3,
			Kinds: []detect.Kind{detect.KindSyscallHijack}},
		Notes: "writer racing the scan cache: the write lands just before the boundary, so " +
			"detection proves dirty-page invalidation evicts the stale cached mapping",
	})

	// --- hidden: classic DKOM unlink (left hidden) ------------------
	for _, arm := range []string{"baseline", "workers4"} {
		list = append(list, Scenario{
			Name: "hidden-" + arm, Family: "hidden", Workload: "blackscholes", Arm: arm,
			Epochs:  3,
			Actions: []Action{hiddenAct(2, 0.5)},
			Expect: Expectation{Outcome: OutcomeDetected, ByEpoch: 2,
				Kinds: []detect.Kind{detect.KindHiddenProcess}},
			Notes: "pid-hash vs task-list cross-view at the boundary",
		})
	}
	list = append(list, Scenario{
		Name: "hidden-cluster", Family: "hidden", Workload: "raytrace", Arm: "cluster",
		Epochs:  4,
		Actions: []Action{hiddenAct(2, 0.5)},
		Expect:  Expectation{Outcome: OutcomeDetected},
		Notes:   "detection on vm0 surfaces in the control plane's aggregate incident count",
	})

	// --- transient: spawn-stage-exit inside one epoch ---------------
	transient := func(arm string, exp Expectation, notes string) Scenario {
		return Scenario{
			Name: "transient-" + arm, Family: "transient", Workload: "raytrace", Arm: arm,
			Epochs:  5,
			Actions: []Action{transientAct(3, 0.4)},
			Expect:  exp, Notes: notes,
		}
	}
	list = append(list,
		transient("baseline", Expectation{Outcome: OutcomeEvasion},
			"expected evasion: the dropper spawns, stages loot, and exits between audits; "+
				"at every boundary it is unlinked from the task list and pid hash and its slab "+
				"record is a zombie that point-in-time scans skip — only a detector that "+
				"remembers which PIDs were ever seen alive can tell it apart"),
		transient("jitter", Expectation{Outcome: OutcomeEvasion},
			"expected evasion: boundary jitter cannot split the dropper's spawn-exit "+
				"sequence because it executes as one uninterruptible step; closing this "+
				"needs the cross-epoch census, not timing"),
		transient("cross-epoch", Expectation{Outcome: OutcomeDetected, ByEpoch: 3,
			Kinds: []detect.Kind{detect.KindTransientProcess}},
			"the transient census flags a zombie whose PID was never seen alive at any "+
				"prior boundary"),
		transient("hardened", Expectation{Outcome: OutcomeDetected, ByEpoch: 3,
			Kinds: []detect.Kind{detect.KindTransientProcess}},
			"census detection is unaffected by jittered boundaries"),
		transient("cross-epoch-cow", Expectation{Outcome: OutcomeDetected, ByEpoch: 3,
			Kinds: []detect.Kind{detect.KindTransientProcess}},
			"the census reads the paused primary, so the copy-on-write commit's lazy "+
				"copies in flight change nothing"),
	)

	// --- dkom-restore: hide at epoch start, restore before the
	// boundary the attacker predicts ---------------------------------
	dkom := func(arm string, epochs int, exp Expectation, notes string) Scenario {
		actions := append([]Action{victimAct(1, "victim")}, hideRestoreCycle(2, epochs-1, "victim")...)
		return Scenario{
			Name: "dkom-restore-" + arm, Family: "dkom-restore", Workload: "raytrace", Arm: arm,
			Epochs:  epochs,
			Actions: actions,
			Expect:  exp, Notes: notes,
		}
	}
	list = append(list,
		dkom("baseline", 6, Expectation{Outcome: OutcomeEvasion},
			"expected evasion: the victim is hidden only mid-epoch and relinked before every "+
				"audit, so each boundary sees an intact task list; the unlink/relink writes "+
				"restore the exact prior bytes, which point-in-time modules cannot question"),
		dkom("cross-epoch", 6, Expectation{Outcome: OutcomeDetected, ByEpoch: 2,
			Kinds: []detect.Kind{detect.KindWriteRevert}},
			"the cross-epoch diff sees task-list pages that were written during the epoch "+
				"yet end it byte-identical to the previous boundary — the hide-then-restore "+
				"signature"),
		dkom("jitter", 8, Expectation{Outcome: OutcomeDetected,
			Kinds: []detect.Kind{detect.KindHiddenProcess}},
			"randomized boundaries eventually audit before the attacker's scheduled restore, "+
				"catching the victim still unlinked; detection epoch depends on the jitter seed"),
		dkom("hardened", 6, Expectation{Outcome: OutcomeDetected, ByEpoch: 2},
			"caught at epoch 2 either way: a punctual boundary sees the byte-identical "+
				"revert, an early one sees the still-hidden victim"),
		dkom("cross-epoch-cow", 6, Expectation{Outcome: OutcomeDetected, ByEpoch: 2,
			Kinds: []detect.Kind{detect.KindWriteRevert}},
			"the diff reads the committed image, which the copy-on-write commit hands "+
				"the backup as it returns, and sees the same byte-identical revert as the "+
				"eager commit"),
	)

	// --- repl-tamper: attacker on the replication channel -----------
	list = append(list,
		Scenario{
			Name: "repl-tamper-raw", Family: "repl-tamper", Workload: "raytrace", Arm: "remus-raw",
			Epochs: 4, Remote: true,
			// Offset 112 is inside the first record's page data (4-byte
			// count, 8-byte PFN, then the page); the final epoch means no
			// later re-ship of the page can heal the corruption.
			Tamper: &TamperSpec{Epoch: 4, Offset: 112, Mask: 0x01},
			Verify: verifyRemoteDiverged,
			Expect: Expectation{Outcome: OutcomeEvasion},
			Notes: "expected evasion: the v1 raw wire is AES-CTR without integrity, so a " +
				"single flipped ciphertext bit flips the same plaintext bit and the remote " +
				"applies the corrupted page silently — the run looks clean while the replica " +
				"diverges (Verify proves it); the v2 wire's fail-closed decoder is the fix",
		},
		Scenario{
			Name: "repl-tamper-dedup", Family: "repl-tamper", Workload: "raytrace", Arm: "remus-dedup",
			Epochs: 4, Remote: true,
			// Offset 12 is the first record's opcode byte; any flip makes
			// it invalid and the fail-closed decoder rejects the batch.
			Tamper: &TamperSpec{Epoch: 2, Offset: 12, Mask: 0x55},
			Expect: Expectation{Outcome: OutcomeDegraded, ByEpoch: 2},
			Notes: "the v2 decoder fails closed on the tampered batch: the remote restores " +
				"its last good checkpoint and the controller degrades remote replication " +
				"rather than trusting a corrupted replica",
		},
	)

	// --- fault: injected infrastructure failures --------------------
	list = append(list,
		Scenario{
			Name: "fault-transient-suspend", Family: "fault", Workload: "raytrace", Arm: "baseline",
			Epochs: 3,
			Faults: []FaultSpec{{Site: "hv.suspend", N: 2, Transient: true}},
			Expect: Expectation{Outcome: OutcomeClean, MinRetries: 1},
			Notes:  "a transient suspend failure is retried transparently; the epoch still commits",
		},
		Scenario{
			Name: "fault-fatal-harvest", Family: "fault", Workload: "raytrace", Arm: "baseline",
			Epochs: 4,
			Faults: []FaultSpec{{Site: "hv.harvest", N: 2, Transient: false}},
			Expect: Expectation{Outcome: OutcomeClean, AllowErrors: true},
			Notes: "a fatal harvest failure unwinds epoch 2 by resuming uncommitted; the " +
				"next boundary audits and commits both epochs' work",
		},
	)

	// --- clean: no attack, pins the false-positive floor ------------
	for _, arm := range []string{"baseline", "scan-cache", "jitter", "hardened"} {
		list = append(list, Scenario{
			Name: "clean-" + arm, Family: "clean", Workload: "swaptions", Arm: arm,
			Epochs: 4,
			Expect: Expectation{Outcome: OutcomeClean},
			Notes:  "no attack: every arm, including the cross-epoch detectors, must stay silent",
		})
	}

	return list
}

// ByName finds a catalog scenario.
func ByName(name string) (Scenario, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: no scenario named %q", name)
}

// ByFamily returns the catalog scenarios of one attack family.
func ByFamily(family string) []Scenario {
	var out []Scenario
	for _, s := range Catalog() {
		if s.Family == family {
			out = append(out, s)
		}
	}
	return out
}

// Families lists the catalog's attack families, sorted — the CI matrix
// shards by these.
func Families() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range Catalog() {
		if !seen[s.Family] {
			seen[s.Family] = true
			out = append(out, s.Family)
		}
	}
	sort.Strings(out)
	return out
}
