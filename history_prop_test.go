package crimes

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/guestos"
	"repro/internal/hv"
)

// The evidence equivalence property: retained history and incident
// dumps are derived from the previous image plus the dirty log instead
// of copied in full, and that must be invisible. On the combined
// property arms with HistoryDepth = 2, every history entry equals a full
// dump of the backup taken right after its epoch, byte for byte and in
// the vCPU, and carries the guest bookkeeping of that same commit (the
// newest entry the controller's committed state itself). At an incident,
// with HistoryDepth 2 and 0 alike, the last-good dump equals a full dump
// of the backup and the audit-fail dump one of the primary as the audit
// left it (the asynchronous audit's included): at depth 0 the last-good
// dump is the first image of the run and the audit-fail dump is derived
// from it. After a replay the at-attack dump, derived from the last-good
// one over the dirty log, equals a full dump of the paused primary.
// Keeping history changes no finding. The asynchronous audit of a CoW
// commit, which scans the backup the commit just shared its pages into,
// gives the findings, incidents and digests of the eager one.
func TestHistoryEvidenceProperty(t *testing.T) {
	arms := []struct {
		name   string
		cfg    Config
		remote bool
	}{
		{"seed-path", Config{Opt: OptNone}, false},
		{"full", Config{}, false},
		{"premap-delta-uncached", Config{Opt: OptPremap, Remus: RemusDelta, ScanCache: ScanCacheUncached, Workers: 2}, false},
		{"cow", Config{CoW: true}, false},
		{"combined", Config{CoW: true, ScanCache: ScanCacheOn, Remus: RemusDeltaDedup, Workers: 2}, true},
		{"replay", Config{ReplayOnIncident: true, ScanCache: ScanCacheOn}, false},
		{"async", Config{Scan: ScanAsync}, false},
		{"async-cow", Config{Scan: ScanAsync, CoW: true}, false},
		{"replay-disk", Config{ReplayOnIncident: true, DiskBlocks: 64}, false},
	}
	attacks := []string{"", "overflow", "malware", "hijack", "hidden"}
	for i, attack := range attacks {
		seed := int64(900 + 41*i)
		script := genScript(seed)
		plains := make(map[string]*propRun, len(arms))
		for _, arm := range arms {
			plain := runPropArm(t, seed, arm.cfg, script, attack, arm.remote)
			plains[arm.name] = plain
			cfg := arm.cfg
			cfg.HistoryDepth = 2
			kept := runPropArm(t, seed, cfg, script, attack, arm.remote)
			if len(kept.epochs) != len(plain.epochs) {
				t.Fatalf("seed %d attack %q arm %s: %d epochs with history, %d without",
					seed, attack, arm.name, len(kept.epochs), len(plain.epochs))
			}
			for e := range plain.epochs {
				if !reflect.DeepEqual(kept.epochs[e].findings, plain.epochs[e].findings) ||
					kept.epochs[e].incident != plain.epochs[e].incident {
					t.Errorf("seed %d attack %q arm %s epoch %d: keeping history changed the audit",
						seed, attack, arm.name, e+1)
				}
			}
			if attack != "" && !kept.epochs[len(kept.epochs)-1].incident {
				t.Errorf("seed %d arm %s: attack %q went undetected", seed, arm.name, attack)
			}
		}
		eager, cow := plains["async"], plains["async-cow"]
		if len(cow.epochs) != len(eager.epochs) || cow.primaryDigest != eager.primaryDigest || cow.backupDigest != eager.backupDigest {
			t.Errorf("seed %d attack %q: the async CoW arm ran %d epochs to other digests than the async arm's %d",
				seed, attack, len(cow.epochs), len(eager.epochs))
			continue
		}
		for e := range eager.epochs {
			if !reflect.DeepEqual(cow.epochs[e].findings, eager.epochs[e].findings) ||
				cow.epochs[e].incident != eager.epochs[e].incident {
				t.Errorf("seed %d attack %q epoch %d: the async CoW audit differs from the async one", seed, attack, e+1)
			}
		}
	}
}

// evidenceRef holds, for each clean epoch, a full dump of the backup and
// a clone of the guest bookkeeping taken right after it: the reference
// every history entry is held to.
type evidenceRef map[int]evidence

type evidence struct {
	snap  *hv.Snapshot
	state *guestos.State
}

// check holds the controller's evidence after one epoch to full dumps.
// With replay on, the primary has been rewound past the failed audit by
// the time the epoch returns: the audit-fail dump is not checked, and
// the at-attack dump, when the replay pinpointed one, is held to the
// primary where the replay paused it.
func (ref evidenceRef) check(t *testing.T, ctl *core.Controller, res *core.EpochResult, replay bool) {
	t.Helper()
	ckpt := ctl.Checkpointer()
	full := func(d *hv.Domain) *hv.Snapshot {
		s, err := d.DumpMemory()
		if err != nil {
			t.Fatalf("DumpMemory: %v", err)
		}
		return s
	}
	same := func(what string, got, want *hv.Snapshot) {
		if got.VCPU != want.VCPU || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("epoch %d: %s differs from a full dump taken at the same point", res.Epoch, what)
		}
	}
	if inc := res.Incident; inc != nil {
		same("last-good dump", inc.Dumps.LastGood.Snapshot, full(ckpt.Backup()))
		switch {
		case !replay:
			same("audit-fail dump", inc.Dumps.AuditFail.Snapshot, full(ckpt.Primary()))
		case inc.Dumps.AtAttack != nil:
			same("at-attack dump", inc.Dumps.AtAttack.Snapshot, full(ckpt.Primary()))
		}
		return
	}
	ref[res.Epoch] = evidence{full(ckpt.Backup()), ctl.Guest().CloneState()}
	hist := ctl.History()
	for _, h := range hist {
		same("history entry", h.Snapshot, ref[h.Epoch].snap)
		if !reflect.DeepEqual(h.State, ref[h.Epoch].state) {
			t.Errorf("epoch %d: history entry %d's state differs from a clone taken at its commit",
				res.Epoch, h.Epoch)
		}
	}
	if n := len(hist); n > 0 && hist[n-1].State != ctl.CommittedState() {
		t.Errorf("epoch %d: newest history entry holds a copy of the committed state", res.Epoch)
	}
}
