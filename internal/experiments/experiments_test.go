package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(all))
	}
	for _, e := range all {
		if _, err := ByID(e.ID); err != nil {
			t.Fatalf("ByID(%q): %v", e.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

// shared computes an expensive sweep once per test binary and hands the
// same result to every test that reads it; the sweeps are deterministic
// (asserted by each *JSONDeterministic test against one fresh run), so
// the shared value is the value any test would have computed itself.
type shared[T any] struct {
	sweep func() (T, error)
	once  sync.Once
	bench T
	err   error
}

func (s *shared[T]) get(t *testing.T) T {
	t.Helper()
	s.once.Do(func() { s.bench, s.err = s.sweep() })
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.bench
}

var (
	sharedWeb   = shared[*WebBench]{sweep: WebSweep}
	sharedCoW   = shared[*CoWBench]{sweep: CoWSweep}
	sharedDelta = shared[*DeltaBench]{sweep: DeltaSweep}
)

// rendered checks a shared sweep's rendering the way run checks a
// registry generator's.
func rendered(t *testing.T, id string, res *Result) string {
	t.Helper()
	if res.ID != id || res.Text == "" {
		t.Fatalf("%s: empty result", id)
	}
	return res.Text
}

func run(t *testing.T, id string) string {
	t.Helper()
	gen, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rendered(t, id, res)
}

func TestTable1Shape(t *testing.T) {
	text := run(t, "table1")
	for _, want := range []string{"Light", "Medium", "High", "copy"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table1 missing %q:\n%s", want, text)
		}
	}
	// Copy cost must grow with intensity.
	m := cost.Default()
	e := 20 * time.Millisecond
	light := pausedTime(m, cost.NoOpt, workload.Web(workload.WebLight), e).Copy
	high := pausedTime(m, cost.NoOpt, workload.Web(workload.WebHigh), e).Copy
	if high <= light {
		t.Fatal("copy cost does not grow with web intensity")
	}
	// Table 1 calibration: light copy ~12.6ms, high ~20ms.
	if msv := light.Seconds() * 1000; msv < 9 || msv > 16 {
		t.Fatalf("light copy = %.2f ms, want ~12.6", msv)
	}
	if msv := high.Seconds() * 1000; msv < 15 || msv > 25 {
		t.Fatalf("high copy = %.2f ms, want ~20", msv)
	}
}

func TestTable2ListsEverything(t *testing.T) {
	text := run(t, "table2")
	for _, s := range workload.Parsec() {
		if !strings.Contains(text, s.Name) {
			t.Fatalf("table2 missing %s", s.Name)
		}
	}
}

func TestTable3Structure(t *testing.T) {
	text := run(t, "table3")
	for _, want := range []string{"Initialization", "Preprocessing", "Memory Analysis"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table3 missing %q", want)
		}
	}
}

func TestFig3HeadlineClaims(t *testing.T) {
	m := cost.Default()
	epoch := 200 * time.Millisecond
	var fulls, noopts []float64
	for _, spec := range workload.Parsec() {
		fulls = append(fulls, normRuntime(m, cost.Full, spec, epoch))
		noopts = append(noopts, normRuntime(m, cost.NoOpt, spec, epoch))
		// CRIMES Full always beats AddressSanitizer except possibly the
		// dirty-page outlier (paper: "CRIMES consistently performs
		// better than Address Sanitizer").
		if spec.Name != "fluidanimate" && fulls[len(fulls)-1] >= spec.ASanFactor {
			t.Errorf("%s: Full %.2f not better than AS %.2f",
				spec.Name, fulls[len(fulls)-1], spec.ASanFactor)
		}
	}
	gFull := geomean(fulls)
	// Paper: 9.8% average overhead. Accept 5-14%.
	if gFull < 1.05 || gFull > 1.14 {
		t.Fatalf("Full geomean = %.3f, want ~1.098", gFull)
	}
	// Paper: unoptimized Remus increases runtime by 40-60%... dominated
	// by fluidanimate; geomean must exceed Full clearly.
	gNoOpt := geomean(noopts)
	if gNoOpt < 1.15 {
		t.Fatalf("No-opt geomean = %.3f, too low", gNoOpt)
	}
	// Fluidanimate under No-opt: paper shows ~4.7x.
	fl, _ := workload.ParsecByName("fluidanimate")
	if n := normRuntime(m, cost.NoOpt, fl, epoch); n < 3 || n > 6 {
		t.Fatalf("fluidanimate No-opt = %.2f, want ~4.7", n)
	}
	// Full is at most 50% worse than native (paper claim).
	for i, spec := range workload.Parsec() {
		if fulls[i] > 1.5 {
			t.Errorf("%s Full = %.2f exceeds 1.5x", spec.Name, fulls[i])
		}
	}
}

func TestFig4Reduction(t *testing.T) {
	text := run(t, "fig4")
	if !strings.Contains(text, "Pause reduction") {
		t.Fatalf("fig4 missing reduction line:\n%s", text)
	}
}

func TestFig5Monotonicity(t *testing.T) {
	m := cost.Default()
	specs, err := fig5Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		var prevNorm = 1e18
		var prevPause, prevDirty = time.Duration(0), 0
		for _, e := range sweepIntervals() {
			n := normRuntime(m, cost.Full, spec, e)
			p := pausedTime(m, cost.Full, spec, e).Total()
			d := spec.DirtyPages(e)
			if n >= prevNorm {
				t.Fatalf("%s: norm runtime not decreasing at %v", spec.Name, e)
			}
			if p <= prevPause || d <= prevDirty {
				t.Fatalf("%s: pause/dirty not increasing at %v", spec.Name, e)
			}
			prevNorm, prevPause, prevDirty = n, p, d
		}
	}
}

func TestFig6aOptimizationGap(t *testing.T) {
	m := cost.Default()
	fl, _ := workload.ParsecByName("fluidanimate")
	for _, e := range sweepIntervals() {
		full := normRuntime(m, cost.Full, fl, e)
		noopt := normRuntime(m, cost.NoOpt, fl, e)
		// Paper: "with our optimizations the runtime is 3.5X faster
		// than the No-opt case" — the overhead gap is large at every
		// interval.
		if ratio := (noopt - 1) / (full - 1); ratio < 2.5 {
			t.Fatalf("optimization benefit at %v = %.1fx, want > 2.5x", e, ratio)
		}
	}
}

func TestFig6bRealSpeedup(t *testing.T) {
	text := run(t, "fig6b")
	if !strings.Contains(text, "16") || !strings.Contains(text, "speedup") {
		t.Fatalf("fig6b incomplete:\n%s", text)
	}
}

func TestFig7Shapes(t *testing.T) {
	res, err := Fig7WebServer()
	if err != nil {
		t.Fatal(err)
	}
	text := rendered(t, "fig7", res)
	if !strings.Contains(text, "Baseline (no protection): 17094 req/s") || !strings.Contains(text, "sync") {
		t.Fatalf("fig7 incomplete:\n%s", text)
	}
	// Paper shapes: Best Effort stays near 1.0 and never below
	// Synchronous; from 60 ms on Synchronous latency grows and
	// throughput falls with the interval.
	var prev fig7Row
	for _, line := range strings.Split(strings.TrimSpace(res.CSV), "\n")[1:] {
		var r fig7Row
		if _, err := fmt.Sscanf(line, "%d,%f,%f,%f,%f", &r.epochMs, &r.syncLat, &r.syncTput, &r.beLat, &r.beTput); err != nil {
			t.Fatalf("fig7 CSV line %q: %v", line, err)
		}
		if r.beTput < 0.7 || r.beTput > 1 || r.beLat > 1.4 || r.beTput < r.syncTput {
			t.Errorf("%d ms: best effort lat %.2f tput %.2f (sync tput %.2f), want ~1 and >= sync",
				r.epochMs, r.beLat, r.beTput, r.syncTput)
		}
		if r.epochMs > 60 && (r.syncLat <= prev.syncLat || r.syncTput >= prev.syncTput) {
			t.Errorf("%d ms: sync lat %.2f tput %.2f not worse than %d ms (%.2f, %.2f)",
				r.epochMs, r.syncLat, r.syncTput, prev.epochMs, prev.syncLat, prev.syncTput)
		}
		prev = r
	}
	if prev.epochMs != 200 {
		t.Fatalf("fig7 CSV ends at %d ms, want 200", prev.epochMs)
	}
}

func TestFig8RunsRealPipeline(t *testing.T) {
	text := run(t, "fig8")
	for _, want := range []string{
		"pinpointed", "last-good=true audit-fail=true at-attack=true",
		"Outputs discarded", "Buffer Overflow",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("fig8 missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "discarded by failed audit: 0") {
		t.Fatal("fig8: expected discarded outputs > 0")
	}
}

func TestCase2Report(t *testing.T) {
	text := run(t, "case2")
	for _, want := range []string{"reg_read.exe", "104.28.18.89:8080", "Extracted executable"} {
		if !strings.Contains(text, want) {
			t.Fatalf("case2 missing %q:\n%s", want, text)
		}
	}
}

func TestRemusHeadline(t *testing.T) {
	text := run(t, "remus")
	if !strings.Contains(text, "pause reduction") || !strings.Contains(text, "runtime improvement") {
		t.Fatalf("remus experiment incomplete:\n%s", text)
	}
}

func TestAblationSummary(t *testing.T) {
	text := run(t, "ablation")
	for _, want := range []string{"baseline", "remote HA", "disk snapshots", "async scan"} {
		if !strings.Contains(text, want) {
			t.Fatalf("ablation missing %q:\n%s", want, text)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Fatalf("geomean = %f, want 2", g)
	}
}

func TestPauseParallelExperiment(t *testing.T) {
	text := run(t, "pause")
	if !strings.Contains(text, "workers") {
		t.Fatalf("pause experiment missing worker sweep:\n%s", text)
	}
	bench, err := PauseBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Points) != 4 || bench.Points[0].Workers != 1 {
		t.Fatalf("unexpected sweep: %+v", bench.Points)
	}
	// The serial row is priced by the exact serial model: it must match
	// Figure 4's Full row total.
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	fig4Full := pausedTime(cost.Default(), cost.Full, spec, 200*time.Millisecond).Total()
	if got := bench.Points[0].TotalMs; got != ms(fig4Full) {
		t.Fatalf("serial pause row %.3f ms != Figure 4 Full total %.3f ms", got, ms(fig4Full))
	}
	// Speedup must be monotone and >= 2x by 8 workers.
	for i := 1; i < len(bench.Points); i++ {
		if bench.Points[i].SpeedupVs1 <= bench.Points[i-1].SpeedupVs1 {
			t.Fatalf("speedup not monotone at %d workers", bench.Points[i].Workers)
		}
	}
	if last := bench.Points[len(bench.Points)-1].SpeedupVs1; last < 2 {
		t.Fatalf("8-worker speedup %.2fx, want >= 2x", last)
	}
	if _, err := marshal(PauseBreakdown()); err != nil {
		t.Fatal(err)
	}
}

func TestFleetScalingExperiment(t *testing.T) {
	text := run(t, "fleet")
	if !strings.Contains(text, "vms") || !strings.Contains(text, "stagger-agg") {
		t.Fatalf("fleet experiment missing sweep columns:\n%s", text)
	}
	bench, err := FleetSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Points) != 4 || bench.Points[0].VMs != 1 {
		t.Fatalf("unexpected sweep: %+v", bench.Points)
	}
	// The one-VM fleet has no contention in either mode: both rows must
	// equal the single-VM parallel pause benchmark's workers=8 total
	// exactly — the fleet path reproduces today's numbers byte-for-byte.
	pause, err := PauseBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	var w8 float64
	for _, p := range pause.Points {
		if p.Workers == fleetWorkers {
			w8 = p.TotalMs
		}
	}
	if w8 == 0 {
		t.Fatalf("pause benchmark has no workers=%d row", fleetWorkers)
	}
	one := bench.Points[0]
	if one.SyncPauseMsPerVM != w8 || one.StaggerPauseMsPerVM != w8 {
		t.Fatalf("vms=1 rows (sync %.6f, stagger %.6f) != single-VM workers=%d total %.6f",
			one.SyncPauseMsPerVM, one.StaggerPauseMsPerVM, fleetWorkers, w8)
	}
	if one.SavingVsSync != 1 {
		t.Fatalf("vms=1 saving = %.3f, want exactly 1", one.SavingVsSync)
	}
	// For every larger fleet, staggered scheduling must beat
	// synchronized on aggregate pause, and the gap must grow with the
	// fleet (contention worsens superlinearly, staggering stays linear).
	prevSaving := one.SavingVsSync
	for _, p := range bench.Points[1:] {
		if p.StaggerAggregateMs >= p.SyncAggregateMs {
			t.Errorf("vms=%d: staggered aggregate %.3f not below synchronized %.3f",
				p.VMs, p.StaggerAggregateMs, p.SyncAggregateMs)
		}
		if p.SavingVsSync <= prevSaving {
			t.Errorf("vms=%d: saving %.3f not above previous %.3f", p.VMs, p.SavingVsSync, prevSaving)
		}
		prevSaving = p.SavingVsSync
	}
}

// The fleet benchmark is a pure function of the cost model, so its JSON
// rendering is byte-stable — `make bench-fleet` regenerates
// BENCH_fleet.json deterministically.
func TestFleetSweepJSONDeterministic(t *testing.T) {
	a, err := marshal(FleetSweep())
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshal(FleetSweep())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("FleetSweep JSON not deterministic across calls")
	}
	if !strings.Contains(string(a), "\"aggregate_saving_vs_sync\"") {
		t.Fatalf("JSON missing saving field:\n%s", a)
	}
}
