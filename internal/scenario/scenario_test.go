package scenario_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestCatalogShape pins the matrix's advertised coverage: enough
// scenarios, families, and config arms that the CI shard-by-family job
// is a real cross product, plus unique (filesystem-safe) names.
func TestCatalogShape(t *testing.T) {
	cat := scenario.Catalog()
	if len(cat) < 20 {
		t.Fatalf("catalog has %d scenarios, want at least 20", len(cat))
	}
	if fams := scenario.Families(); len(fams) < 4 {
		t.Fatalf("catalog spans %d families %v, want at least 4", len(fams), fams)
	}
	names := make(map[string]bool)
	armsUsed := make(map[string]bool)
	for _, s := range cat {
		if names[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
		armsUsed[s.Arm] = true
		if _, err := scenario.ArmByName(s.Arm); err != nil {
			t.Fatalf("scenario %s: %v", s.Name, err)
		}
		if s.Notes == "" {
			t.Fatalf("scenario %s has no Notes", s.Name)
		}
	}
	if len(armsUsed) < 3 {
		t.Fatalf("catalog uses %d config arms, want at least 3", len(armsUsed))
	}
}

// TestLookups covers the by-name and by-family accessors the CLI and CI
// matrix use.
func TestLookups(t *testing.T) {
	if _, err := scenario.ByName("overflow-baseline"); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.ByName("no-such-scenario"); err == nil {
		t.Fatal("ByName accepted an unknown scenario")
	}
	if got := scenario.ByFamily("transient"); len(got) == 0 {
		t.Fatal("ByFamily(transient) returned nothing")
	}
	if _, err := scenario.ArmByName("no-such-arm"); err == nil {
		t.Fatal("ArmByName accepted an unknown arm")
	}
	if len(scenario.ArmNames()) == 0 {
		t.Fatal("ArmNames returned nothing")
	}
}

// TestCatalog runs every scenario and requires its expectation to hold
// — the same outcome-drift gate CI enforces, shard-free.
func TestCatalog(t *testing.T) {
	for _, s := range scenario.Catalog() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			r, err := scenario.Run(s, scenario.Options{TraceDir: t.TempDir()})
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			if !r.Pass {
				t.Fatalf("outcome drift: %s\n  actual=%s expected=%s detected-epoch=%d kinds=%v retries=%d degradations=%v errors=%v",
					r.Why, r.Actual, r.Expected, r.DetectedEpoch, r.Kinds, r.Retries, r.Degradations, r.Errors)
			}
		})
	}
}

// TestEpochClamping pins the scheduling edge cases directly: an attack
// planned for epoch 0 runs in epoch 1, one planned past the run ends in
// the final epoch, and two attacks in one epoch surface as one audit
// with both findings. These are asserted through scenario outcomes so
// the clamp rules stay observable behavior, not implementation detail.
func TestEpochClamping(t *testing.T) {
	for _, name := range []string{"overflow-epoch0", "overflow-final-epoch", "overflow-plus-hijack"} {
		s, err := scenario.ByName(name)
		if err != nil {
			t.Fatalf("%s missing from catalog: %v", name, err)
		}
		if s.Family != "overflow" {
			t.Fatalf("%s filed under family %q, want overflow", name, s.Family)
		}
	}
	s, _ := scenario.ByName("overflow-epoch0")
	if got := s.Actions[0].Epoch; got != 0 {
		t.Fatalf("overflow-epoch0 plans epoch %d, want 0 (the clamp-from-below case)", got)
	}
	if s.Expect.ByEpoch != 1 {
		t.Fatalf("overflow-epoch0 expects detection by epoch %d, want 1", s.Expect.ByEpoch)
	}
	s, _ = scenario.ByName("overflow-final-epoch")
	if got := s.Actions[0].Epoch; got <= s.Epochs {
		t.Fatalf("overflow-final-epoch plans epoch %d within the run (%d epochs); want past it",
			got, s.Epochs)
	}
}

// TestEvasionRecordsDocumented requires every expected evasion to carry
// its rationale — the catalog's record of why the evasion survives and
// what would close it.
func TestEvasionRecordsDocumented(t *testing.T) {
	n := 0
	for _, s := range scenario.Catalog() {
		if s.Expect.Outcome != scenario.OutcomeEvasion {
			continue
		}
		n++
		if len(s.Notes) < 40 {
			t.Errorf("evasion scenario %s has a threadbare rationale: %q", s.Name, s.Notes)
		}
	}
	if n < 2 {
		t.Fatalf("catalog records %d expected evasions, want at least 2 (transient and dkom-restore controls)", n)
	}
}

// TestCounterDetectorPairs pins the tentpole's core claim: each
// epoch-aware attack is an expected evasion on an arm without the new
// detectors and a detection on the arm with them.
func TestCounterDetectorPairs(t *testing.T) {
	pairs := [][2]string{
		{"transient-baseline", "transient-cross-epoch"},
		{"dkom-restore-baseline", "dkom-restore-cross-epoch"},
		{"dkom-restore-baseline", "dkom-restore-jitter"},
	}
	for _, p := range pairs {
		control, err := scenario.ByName(p[0])
		if err != nil {
			t.Fatal(err)
		}
		hard, err := scenario.ByName(p[1])
		if err != nil {
			t.Fatal(err)
		}
		if control.Expect.Outcome != scenario.OutcomeEvasion {
			t.Errorf("%s: control arm should expect evasion, has %s", p[0], control.Expect.Outcome)
		}
		if hard.Expect.Outcome != scenario.OutcomeDetected {
			t.Errorf("%s: hardened arm should expect detection, has %s", p[1], hard.Expect.Outcome)
		}
	}
}

// TestOutcomeString covers the taxonomy's rendering (used in CLI
// tables and failure messages).
func TestOutcomeString(t *testing.T) {
	want := map[scenario.Outcome]string{
		scenario.OutcomeClean:    "clean",
		scenario.OutcomeDetected: "detected",
		scenario.OutcomeHalted:   "halted",
		scenario.OutcomeDegraded: "degraded",
		scenario.OutcomeEvasion:  "evasion",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), o.String(), s)
		}
	}
	if scenario.Outcome(99).String() == "" {
		t.Error("unknown outcome renders empty")
	}
}

// TestScenarioInterval checks the nominal-interval default the
// sub-epoch scheduler plans against.
func TestScenarioInterval(t *testing.T) {
	s, err := scenario.ByName("overflow-baseline")
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario.Run(s, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("overflow-baseline failed: %s", r.Why)
	}
	if s.Interval != 0 {
		t.Fatalf("catalog scenarios should use the default interval, got %v", s.Interval)
	}
}

// TestCIShardsMatchFamilies holds the CI workflow's scenario shard list
// to the catalog: ci.yml runs one job per entry of its `family:` matrix,
// so a family added to the catalog but not to the list would never run
// in CI, and a stale entry would run an empty shard.
func TestCIShardsMatchFamilies(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var shards []string
	inList := false
	for _, line := range strings.Split(string(yml), "\n") {
		item, isItem := strings.CutPrefix(strings.TrimSpace(line), "- ")
		switch {
		case strings.TrimSpace(line) == "family:":
			inList = true
		case inList && isItem:
			shards = append(shards, item)
		case inList:
			inList = false
		}
	}
	if want := scenario.Families(); !reflect.DeepEqual(shards, want) {
		t.Errorf("ci.yml family matrix = %v, scenario.Families() = %v", shards, want)
	}
}
