package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/workload"
)

// Table1CostBreakdown regenerates Table 1: the time a web-serving VM
// spends in each paused-state phase per checkpoint, for three workload
// intensities, at a 20 ms epoch with no optimizations.
func Table1CostBreakdown() (*Result, error) {
	m := cost.Default()
	epoch := 20 * time.Millisecond
	var b strings.Builder
	renderHeader(&b, "Table 1: paused-state cost breakdown (ms), web workload, 20ms epoch, No-opt")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s %8s %8s\n",
		"Workload", "suspend", "vmi", "bitscan", "map", "copy", "resume")
	for _, intensity := range []workload.WebIntensity{workload.WebLight, workload.WebMedium, workload.WebHigh} {
		spec := workload.Web(intensity)
		p := pausedTime(m, cost.NoOpt, spec, epoch)
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			intensity, ms(p.Suspend), ms(p.VMI), ms(p.Bitscan), ms(p.Map), ms(p.Copy), ms(p.Resume))
	}
	b.WriteString("\nPaper: Light copy=12.58 map=1.6; Medium copy=14.63; High copy=19.98 (copy ~70% of pause).\n")
	return &Result{ID: "table1", Title: "Cost breakdown of paused state", Text: b.String()}, nil
}

// Table2ParsecSuite regenerates Table 2: the PARSEC suite used by the
// evaluation.
func Table2ParsecSuite() (*Result, error) {
	var b strings.Builder
	renderHeader(&b, "Table 2: PARSEC 3.0 benchmarks used in the experiments")
	for _, s := range workload.Parsec() {
		fmt.Fprintf(&b, "%-15s %s\n", s.Name, s.Description)
	}
	return &Result{ID: "table2", Title: "PARSEC benchmark suite", Text: b.String()}, nil
}

// figOpts are the optimization levels Figures 3, 4 and 6a compare.
var figOpts = []cost.Optimization{cost.Full, cost.Premap, cost.Memcpy, cost.NoOpt}

// normRow is one line of a normalized-runtime table: a label and one
// value per remaining column.
type normRow struct {
	label any
	norm  []float64
}

// normCol is the normalized-runtime column reading norm[i].
func normCol(head, csv string, i int) col[normRow] {
	return col[normRow]{head, 8, "%.2f", csv, "%.4f", func(r normRow) any { return r.norm[i] }}
}

// fig3Table and fig6aTable are the two figures' layouts.
var (
	fig3Table = table[normRow]{
		{"Benchmark", -15, "%s", "benchmark", "%s", func(r normRow) any { return r.label }},
		normCol("Full", "full", 0), normCol("Pre-map", "premap", 1),
		normCol("Memcpy", "memcpy", 2), normCol("No-opt", "noopt", 3), normCol("AS", "as", 4),
	}
	fig6aTable = table[normRow]{
		{"epoch(ms)", -10, "%d", "epoch_ms", "%d", func(r normRow) any { return r.label }},
		normCol("Full", "full", 0), normCol("Pre-map", "premap", 1),
		normCol("Memcpy", "memcpy", 2), normCol("No-opt", "noopt", 3),
	}
)

// Fig3ParsecNormalized regenerates Figure 3: normalized PARSEC runtime
// under Full/Pre-map/Memcpy/No-opt/AddressSanitizer at a 200 ms epoch.
func Fig3ParsecNormalized() (*Result, error) {
	m := cost.Default()
	epoch := 200 * time.Millisecond
	s := newSheet("Figure 3: normalized PARSEC runtime, 200ms epoch")
	fig3Table.header(s)
	perCol := make([][]float64, len(figOpts)+1)
	for _, spec := range workload.Parsec() {
		row := normRow{label: spec.Name}
		for _, opt := range figOpts {
			row.norm = append(row.norm, normRuntime(m, opt, spec, epoch))
		}
		row.norm = append(row.norm, spec.ASanFactor)
		for i, n := range row.norm {
			perCol[i] = append(perCol[i], n)
		}
		fig3Table.rows(s, row)
	}
	mean := normRow{label: "Geometric-Mean"}
	for _, c := range perCol {
		mean.norm = append(mean.norm, geomean(c))
	}
	text, _ := fig3Table.format(mean) // a text-only row
	s.text.WriteString(text)
	fmt.Fprintf(&s.text, "\nPaper: Full geomean +9.8%%; No-opt/AS +40-60%%; fluidanimate No-opt ~4.7x.\n")
	return s.result("fig3", "Normalized PARSEC performance"), nil
}

// Fig4SwaptionsBreakdown regenerates Figure 4: the absolute paused-time
// breakdown for swaptions per optimization level at a 200 ms epoch.
func Fig4SwaptionsBreakdown() (*Result, error) {
	m := cost.Default()
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		return nil, err
	}
	epoch := 200 * time.Millisecond
	var b strings.Builder
	renderHeader(&b, "Figure 4: absolute cost breakdown (ms), swaptions, 200ms epoch")
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s %8s %8s %8s\n",
		"Opt", "suspend", "vmi", "bitscan", "map", "copy", "resume", "TOTAL")
	var noopt, full float64
	for _, opt := range figOpts {
		p := pausedTime(m, opt, spec, epoch)
		fmt.Fprintf(&b, "%-8s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			opt, ms(p.Suspend), ms(p.VMI), ms(p.Bitscan), ms(p.Map), ms(p.Copy), ms(p.Resume), ms(p.Total()))
		switch opt {
		case cost.NoOpt:
			noopt = ms(p.Total())
		case cost.Full:
			full = ms(p.Total())
		}
	}
	fmt.Fprintf(&b, "\nPause reduction Full vs No-opt: %.0f%% (paper: 29.86ms -> 10.21ms, -67%%)\n",
		100*(1-full/noopt))
	return &Result{ID: "fig4", Title: "Swaptions cost breakdown", Text: b.String()}, nil
}

// fig5Benchmarks are the four benchmarks Figure 5 sweeps.
func fig5Benchmarks() ([]workload.Spec, error) {
	var out []workload.Spec
	for _, name := range []string{"freqmine", "swaptions", "volrend", "water-spatial"} {
		s, err := workload.ParsecByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func sweepIntervals() []time.Duration {
	var out []time.Duration
	for msv := 60; msv <= 200; msv += 20 {
		out = append(out, time.Duration(msv)*time.Millisecond)
	}
	return out
}

// Fig5IntervalSweep regenerates Figure 5: normalized runtime (a),
// paused time (b), and dirty pages per epoch (c) versus epoch interval
// for four benchmarks under Full optimization.
func Fig5IntervalSweep() (*Result, error) {
	m := cost.Default()
	specs, err := fig5Benchmarks()
	if err != nil {
		return nil, err
	}
	intervals := sweepIntervals()

	var b strings.Builder
	renderHeader(&b, "Figure 5: interval sweep, Full optimization")
	for _, part := range []string{"(a) normalized runtime", "(b) paused time (ms)", "(c) dirty pages per epoch"} {
		fmt.Fprintf(&b, "\n%s\n%-10s", part, "epoch(ms)")
		for _, s := range specs {
			fmt.Fprintf(&b, " %14s", s.Name)
		}
		b.WriteString("\n")
		for _, e := range intervals {
			fmt.Fprintf(&b, "%-10d", e.Milliseconds())
			for _, s := range specs {
				switch part[1] {
				case 'a':
					fmt.Fprintf(&b, " %14.3f", normRuntime(m, cost.Full, s, e))
				case 'b':
					fmt.Fprintf(&b, " %14.2f", ms(pausedTime(m, cost.Full, s, e).Total()))
				default:
					fmt.Fprintf(&b, " %14d", s.DirtyPages(e))
				}
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("\nPaper shapes: (a) decreases with interval; (b) and (c) increase with interval.\n")
	return &Result{ID: "fig5", Title: "Interval sweep", Text: b.String()}, nil
}

// Fig6aFluidanimate regenerates Figure 6a: fluidanimate's normalized
// runtime versus epoch interval for every optimization level.
func Fig6aFluidanimate() (*Result, error) {
	m := cost.Default()
	spec, err := workload.ParsecByName("fluidanimate")
	if err != nil {
		return nil, err
	}
	s := newSheet("Figure 6a: fluidanimate normalized runtime vs epoch interval")
	fig6aTable.header(s)
	for _, e := range sweepIntervals() {
		row := normRow{label: e.Milliseconds()}
		for _, opt := range figOpts {
			row.norm = append(row.norm, normRuntime(m, opt, spec, e))
		}
		fig6aTable.rows(s, row)
	}
	full60 := normRuntime(m, cost.Full, spec, 60*time.Millisecond)
	noopt60 := normRuntime(m, cost.NoOpt, spec, 60*time.Millisecond)
	fmt.Fprintf(&s.text, "\nAt 60ms, Full is %.1fx faster than No-opt (paper: ~3.5x).\n",
		(noopt60-1)/(full60-1))
	return s.result("fig6a", "Fluidanimate optimization benefit"), nil
}
