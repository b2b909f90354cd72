package crimes

import (
	"reflect"
	"testing"

	"repro/internal/cost"
)

// The delta-replication equivalence property: the v2 wire protocol is a
// bandwidth optimization, not a semantic change. For randomized
// workloads, clean or under attack, every epoch's findings and incident
// outcome must be identical across raw, delta, and delta+dedup
// replication, and the backup domain must converge to byte-for-byte the
// same snapshot whichever protocol carried it there. The explicit raw
// arm must additionally be priced identically to the zero-value default
// (virtual time bit-for-bit), since RemusRaw is the seed path. Scripts
// reuse the scan-cache property generator so every equivalence suite
// draws from the same workload distribution.

func TestRemusPropertyEquivalence(t *testing.T) {
	attacks := []string{"", "", "overflow", "malware", "hijack", "hidden"}
	for i, attack := range attacks {
		seed := int64(600 + 31*i)
		script := genScript(seed)
		// OptNone: every dirty page goes through the encrypted conduit.
		def := runPropArm(t, seed, Config{Opt: OptNone}, script, attack, false)
		raw := runPropArm(t, seed, Config{Opt: OptNone, Remus: RemusRaw}, script, attack, false)
		delta := runPropArm(t, seed, Config{Opt: OptNone, Remus: RemusDelta}, script, attack, false)
		dedup := runPropArm(t, seed, Config{Opt: OptNone, Remus: RemusDeltaDedup}, script, attack, false)

		arms := []struct {
			name string
			run  *propRun
		}{{"raw", raw}, {"delta", delta}, {"delta+dedup", dedup}}
		for _, arm := range arms {
			if len(arm.run.epochs) != len(def.epochs) {
				t.Fatalf("seed %d attack %q: %s arm ran %d epochs, default ran %d",
					seed, attack, arm.name, len(arm.run.epochs), len(def.epochs))
			}
			for e := range def.epochs {
				if !reflect.DeepEqual(arm.run.epochs[e].findings, def.epochs[e].findings) {
					t.Errorf("seed %d attack %q epoch %d: %s findings diverge:\n%+v\nvs default:\n%+v",
						seed, attack, e+1, arm.name, arm.run.epochs[e].findings, def.epochs[e].findings)
				}
				if arm.run.epochs[e].incident != def.epochs[e].incident {
					t.Errorf("seed %d attack %q epoch %d: %s incident=%v, default=%v",
						seed, attack, e+1, arm.name, arm.run.epochs[e].incident, def.epochs[e].incident)
				}
			}
			// Whatever protocol carried the pages, the backup holds the
			// identical snapshot and the primary is untouched by it.
			if arm.run.primaryDigest != def.primaryDigest {
				t.Errorf("seed %d attack %q: %s primary memory diverges from default", seed, attack, arm.name)
			}
			if arm.run.backupDigest != def.backupDigest {
				t.Errorf("seed %d attack %q: %s backup snapshot diverges from default", seed, attack, arm.name)
			}
		}
		if attack != "" && !def.epochs[len(def.epochs)-1].incident {
			t.Errorf("seed %d: attack %q went undetected", seed, attack)
		}

		// Raw is the seed path: priced identically to the zero-value
		// default, epoch by epoch, and free of replication counters.
		for e := range def.epochs {
			if raw.epochs[e].vtime != def.epochs[e].vtime {
				t.Errorf("seed %d attack %q epoch %d: raw arm virtual time %v != default %v",
					seed, attack, e+1, raw.epochs[e].vtime, def.epochs[e].vtime)
			}
			if def.epochs[e].repl != (cost.ReplicationCounts{}) {
				t.Errorf("seed %d epoch %d: default arm carries replication counters: %+v",
					seed, e+1, def.epochs[e].repl)
			}
			if raw.epochs[e].repl != (cost.ReplicationCounts{}) {
				t.Errorf("seed %d epoch %d: raw arm carries replication counters: %+v",
					seed, e+1, raw.epochs[e].repl)
			}
		}

		// The v2 arms really shipped through the new protocol, and dedup
		// beat the raw framing on these small-write workloads.
		var deltaTotal, dedupTotal cost.ReplicationCounts
		for _, out := range delta.epochs {
			deltaTotal.Add(out.repl)
		}
		for _, out := range dedup.epochs {
			dedupTotal.Add(out.repl)
		}
		if deltaTotal.WireBytes == 0 || deltaTotal.Batches == 0 {
			t.Errorf("seed %d attack %q: delta arm never shipped v2 bytes: %+v", seed, attack, deltaTotal)
		}
		if dedupTotal.WireBytes == 0 || dedupTotal.WireBytes >= dedupTotal.RawBytes {
			t.Errorf("seed %d attack %q: dedup arm wire bytes %d not below raw framing %d",
				seed, attack, dedupTotal.WireBytes, dedupTotal.RawBytes)
		}
	}
}

// The root package re-exports the mode constants and parser.
func TestRemusModeReexports(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want RemusMode
	}{{"", RemusRaw}, {"raw", RemusRaw}, {"delta", RemusDelta}, {"delta+dedup", RemusDeltaDedup}} {
		got, err := ParseRemusMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseRemusMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseRemusMode("zstd"); err == nil {
		t.Error("ParseRemusMode accepted an unknown mode")
	}
}
