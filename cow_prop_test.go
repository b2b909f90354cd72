package crimes

import (
	"reflect"
	"testing"

	"repro/internal/cost"
)

// The CoW equivalence property: the copy-on-write commit strategy is an
// optimization, not a semantic change. For randomized workloads, clean
// or under attack, every epoch's findings and incident outcome must be
// identical with CoW on and off, and the backup must hold byte-for-byte
// the same snapshot the eager commit path produces. Scripts reuse the scan-cache property
// generator so both suites draw from the same workload distribution.

func TestCoWPropertyEquivalence(t *testing.T) {
	attacks := []string{"", "", "overflow", "malware", "hijack", "hidden"}
	for i, attack := range attacks {
		seed := int64(400 + 23*i)
		script := genScript(seed)
		off := runPropArm(t, seed, Config{}, script, attack, false)
		on := runPropArm(t, seed, Config{CoW: true}, script, attack, false)

		if len(on.epochs) != len(off.epochs) {
			t.Fatalf("seed %d attack %q: CoW arm ran %d epochs, eager ran %d",
				seed, attack, len(on.epochs), len(off.epochs))
		}
		for e := range off.epochs {
			if !reflect.DeepEqual(on.epochs[e].findings, off.epochs[e].findings) {
				t.Errorf("seed %d attack %q epoch %d: CoW findings diverge:\n%+v\nvs eager:\n%+v",
					seed, attack, e+1, on.epochs[e].findings, off.epochs[e].findings)
			}
			if on.epochs[e].incident != off.epochs[e].incident {
				t.Errorf("seed %d attack %q epoch %d: CoW incident=%v, eager=%v",
					seed, attack, e+1, on.epochs[e].incident, off.epochs[e].incident)
			}
		}
		if attack != "" && !off.epochs[len(off.epochs)-1].incident {
			t.Errorf("seed %d: attack %q went undetected", seed, attack)
		}

		// The eager arm never reports CoW activity.
		for e, out := range off.epochs {
			if out.cow != (cost.CoWCounts{}) {
				t.Errorf("seed %d: eager arm epoch %d carries CoW counters: %+v", seed, e+1, out.cow)
			}
		}
		// The CoW arm really armed pages at its commits.
		var total cost.CoWCounts
		for _, out := range on.epochs {
			total.Add(out.cow)
		}
		if total.ArmedPages == 0 {
			t.Errorf("seed %d attack %q: CoW arm never armed a page", seed, attack)
		}

		// Guest state and (quiesced) backup snapshots are byte-identical.
		if on.primaryDigest != off.primaryDigest {
			t.Errorf("seed %d attack %q: primary memory diverges between CoW and eager", seed, attack)
		}
		if on.backupDigest != off.backupDigest {
			t.Errorf("seed %d attack %q: backup snapshot diverges between CoW and eager", seed, attack)
		}
	}
}
