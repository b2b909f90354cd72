package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// The smoke test runs every workload at 1/100 size in both modes. It
// asserts checks, fidelity and the exact set of printed names — never a
// timing.

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(2) // as main does
	os.Exit(m.Run())
}

const smokeSeconds = 0.1

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalogue holds BENCHMARK.json to the code:
// same workloads with the same reasons, same metrics with the same
// units, directions and bounds.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	var e2e, layer int
	for _, d := range catalogue {
		if d.gated {
			if e2e >= len(f.EndToEnd) {
				t.Fatalf("BENCHMARK.json end_to_end lacks %s", d.name)
			}
			m := f.EndToEnd[e2e]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", e2e, m, d)
			}
			e2e++
			continue
		}
		if layer >= len(f.PerLayer) {
			t.Fatalf("BENCHMARK.json per_layer lacks %s", d.name)
		}
		m := f.PerLayer[layer]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", layer, m, d)
		}
		layer++
	}
	if e2e != len(f.EndToEnd) || layer != len(f.PerLayer) {
		t.Errorf("BENCHMARK.json has %d+%d metrics, the catalogue %d+%d", len(f.EndToEnd), len(f.PerLayer), e2e, layer)
	}
}

func lineNames(l line) []string {
	var names []string
	for name := range l.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func runSmoke(t *testing.T, name string, seed int64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(name, options{seed: seed, seconds: smokeSeconds, traced: traced, outDir: t.TempDir(), setups: 1})
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", name, seed, traced, err)
	}
	if res.checks.failed != 0 || res.checks.attempted == 0 {
		t.Fatalf("%s seed %d traced=%v: %d of %d checks failed: %v", name, seed, traced, res.checks.failed, res.checks.attempted, res.checks.msgs)
	}
	return res
}

// exactMetrics returns the exact counters a result recorded.
func exactMetrics(r *result) map[string]float64 {
	out := make(map[string]float64)
	for name, s := range r.metrics {
		if catalogue[catalogueIndex[name]].exact {
			out[name] = s.value
		}
	}
	return out
}

func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	var wantE2E, wantLayer []string
	for _, m := range f.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range f.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)

	var mu sync.Mutex
	printed := make(map[string]bool) // per-layer names some workload reported a value for

	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				measured := runSmoke(t, w.name, 1, false)
				l := resultLine(measured, false)
				if got := lineNames(l); !reflect.DeepEqual(got, wantE2E) {
					t.Errorf("measured run printed %v, BENCHMARK.json end_to_end lists %v", got, wantE2E)
				}
				for name, v := range l.Metrics {
					if v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
					}
				}

				traced := runSmoke(t, w.name, 1, true)
				if got := traced.metrics["trace.fidelity"].value; got != 1 {
					t.Errorf("trace.fidelity = %v, want 1", got)
				}
				if got := lineNames(resultLine(traced, false)); !reflect.DeepEqual(got, wantLayer) {
					t.Errorf("traced run printed %v, BENCHMARK.json per_layer lists %v", got, wantLayer)
				}
				mu.Lock()
				for name := range traced.metrics {
					printed[name] = true
				}
				mu.Unlock()

				// Same seed: identical fingerprint and exact counters.
				again := runSmoke(t, w.name, 1, false)
				if !measured.print.equal(&again.print) {
					t.Errorf("seed 1 twice: fingerprints differ: %+v vs %+v", measured.print, again.print)
				}
				if a, b := exactMetrics(measured), exactMetrics(again); !reflect.DeepEqual(a, b) {
					t.Errorf("seed 1 twice: exact metrics differ: %v vs %v", a, b)
				}
				// Another seed: different dirty-page sequence and memory
				// contents, all checks still passing.
				other := runSmoke(t, w.name, 2, false)
				if other.print.Visits == measured.print.Visits {
					t.Errorf("seeds 1 and 2 wrote the same dirty-page sequence")
				}
				if reflect.DeepEqual(other.print.Digests, measured.print.Digests) {
					t.Errorf("seeds 1 and 2 left identical memory")
				}

				if w.name == "vm1-repl-cow" {
					// The exact wire accounting comes from the side pass:
					// identical for one seed, different for another.
					wire := func(seed int64) float64 {
						out := newResult(w.name, true)
						if _, err := sidePass(w.vm, seed, 1, 5, out); err != nil {
							t.Fatal(err)
						}
						return out.metrics["remus.wire_bytes_per_epoch"].value
					}
					a, again, b := wire(1), wire(1), wire(2)
					if a == 0 || a != again || a == b {
						t.Errorf("wire bytes per epoch: seed 1 %v and %v, seed 2 %v; want equal, non-zero, then different", a, again, b)
					}
				}
			})
		}
	})

	// Every per-layer metric is reported by at least one workload.
	for _, name := range wantLayer {
		if !printed[name] {
			t.Errorf("no workload's traced run reported %s", name)
		}
	}
}
