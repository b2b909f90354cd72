package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/<id>.txt and .csv from the current code")

// wallClock are the experiments whose text carries measured wall-clock
// durations (table3's per-scan line, fig6b's whole table); every other
// experiment is a function of the cost model, fixed seeds and virtual
// time, so its text and CSV are byte-stable.
var wallClock = map[string]bool{"table3": true, "fig6b": true}

// TestExperimentGoldens holds the text and CSV of every deterministic
// experiment to the committed testdata/<id>.txt and .csv. The three
// expensive sweeps are read from the shared caches the other tests use.
func TestExperimentGoldens(t *testing.T) {
	cached := map[string]func() *Result{
		"cow":      func() *Result { return sharedCoW.get(t).render() },
		"delta":    func() *Result { return sharedDelta.get(t).render() },
		"webscale": func() *Result { return sharedWeb.get(t).render() },
	}
	for _, e := range All() {
		if wallClock[e.ID] || e.ID == "webscale" && raceEnabled {
			continue
		}
		var res *Result
		if get, ok := cached[e.ID]; ok {
			res = get()
		} else {
			var err error
			if res, err = e.Gen(); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
		}
		for ext, got := range map[string]string{".txt": res.Text, ".csv": res.CSV} {
			if got == "" {
				continue
			}
			path := filepath.Join("testdata", e.ID+ext)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s moved (rerun with -update, or make experiments-golden, only for a deliberate change)\n--- got\n%s--- want\n%s", path, got, want)
			}
		}
	}
}
