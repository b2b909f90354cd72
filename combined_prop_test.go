package crimes

import (
	"reflect"
	"testing"
)

// The combined equivalence property: the modes are proven against the
// seed path one at a time above, but a deployment (and the SLO
// controller at run time) turns them on together. With the CoW commit,
// the persistent scan cache, the delta+dedup wire and a two-worker
// pause path all on — and a remote replica, so the wire and the
// pipelined shipper really run beneath the CoW commit — every epoch's
// findings and incident outcome, the guest's memory, the quiesced backup
// and the drained replica must equal what the all-off configuration
// produces, clean or under attack.
func TestCombinedPropertyEquivalence(t *testing.T) {
	attacks := []string{"", "", "overflow", "malware", "hijack", "hidden"}
	for i, attack := range attacks {
		seed := int64(800 + 37*i)
		script := genScript(seed)
		off := runPropArm(t, seed, Config{}, script, attack, true)
		on := runPropArm(t, seed, Config{
			CoW: true, ScanCache: ScanCacheOn, Remus: RemusDeltaDedup, Workers: 2,
		}, script, attack, true)

		if len(on.epochs) != len(off.epochs) {
			t.Fatalf("seed %d attack %q: combined arm ran %d epochs, all-off ran %d",
				seed, attack, len(on.epochs), len(off.epochs))
		}
		var modes propEpochOutcome
		for e := range off.epochs {
			if !reflect.DeepEqual(on.epochs[e].findings, off.epochs[e].findings) {
				t.Errorf("seed %d attack %q epoch %d: combined findings diverge:\n%+v\nvs all-off:\n%+v",
					seed, attack, e+1, on.epochs[e].findings, off.epochs[e].findings)
			}
			if on.epochs[e].incident != off.epochs[e].incident {
				t.Errorf("seed %d attack %q epoch %d: combined incident=%v, all-off=%v",
					seed, attack, e+1, on.epochs[e].incident, off.epochs[e].incident)
			}
			modes.scan.Add(on.epochs[e].scan)
			modes.cow.Add(on.epochs[e].cow)
			modes.repl.Add(on.epochs[e].repl)
		}
		if attack != "" && !off.epochs[len(off.epochs)-1].incident {
			t.Errorf("seed %d: attack %q went undetected", seed, attack)
		}
		// All three modes really ran in the combined arm.
		if modes.scan.CacheHits == 0 || modes.cow.ArmedPages == 0 || modes.repl.WireBytes == 0 {
			t.Errorf("seed %d attack %q: a mode sat idle in the combined arm: scan %+v cow %+v repl %+v",
				seed, attack, modes.scan, modes.cow, modes.repl)
		}

		if on.primaryDigest != off.primaryDigest {
			t.Errorf("seed %d attack %q: primary memory diverges between combined and all-off", seed, attack)
		}
		if on.backupDigest != off.backupDigest {
			t.Errorf("seed %d attack %q: backup snapshot diverges between combined and all-off", seed, attack)
		}
		if on.remoteDigest != off.remoteDigest || on.remoteDigest != on.backupDigest {
			t.Errorf("seed %d attack %q: remote replica diverges (combined == all-off: %v, == backup: %v)",
				seed, attack, on.remoteDigest == off.remoteDigest, on.remoteDigest == on.backupDigest)
		}
	}
}
