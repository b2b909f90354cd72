// Package experiments regenerates every table and figure in the paper's
// evaluation (§5). Each experiment returns structured series plus a
// text rendering with the same rows the paper reports.
//
// Methodology: workload dirty-page and audit-work counts are real or
// validated against real runs (internal/workload tests tie the model to
// harvested dirty bitmaps); phase durations come from the calibrated
// cost model (internal/cost); the case studies run the full real CRIMES
// stack. Absolute numbers therefore differ from the paper's testbed,
// but the shapes — who wins, by roughly what factor, where crossovers
// fall — are reproduced and recorded in EXPERIMENTS.md.
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/workload"
)

// launch boots a guest of the given size on a hypervisor of its own and
// puts it under a controller: how every experiment that drives the real
// stack gets its VM.
func launch(pages int, prof *guestos.Profile, seed int64, cfg core.Config) (*core.Controller, error) {
	return core.Launch(hv.New(2*pages+16), core.GuestSpec{
		Name: "guest", Pages: pages, Boot: guestos.BootConfig{Profile: prof, Seed: seed},
	}, cfg)
}

// runEpochs is the one epoch loop under every sweep that drives the real
// stack: launch a Linux guest under cfg, run n epochs of work (handed the
// 1-based epoch number and that epoch's actual interval), fail on an
// error or an incident, and pass each epoch after the warmup to steady.
func runEpochs(what string, pages int, seed int64, cfg core.Config, n, warmup int,
	work func(g *guestos.Guest, e int, interval time.Duration) error, steady func(*core.EpochResult)) error {
	ctl, err := launch(pages, guestos.LinuxProfile(), seed, cfg)
	if err != nil {
		return err
	}
	defer ctl.Close()
	for e := 1; e <= n; e++ {
		interval := ctl.EpochIntervalAt(e)
		res, err := ctl.RunEpoch(func(g *guestos.Guest) error { return work(g, e, interval) })
		if err != nil {
			return fmt.Errorf("%s epoch %d: %w", what, e, err)
		}
		if res.Incident != nil {
			return fmt.Errorf("%s epoch %d: unexpected incident", what, e)
		}
		if e > warmup {
			steady(res)
		}
	}
	return nil
}

// serialConfig is the configuration those sweeps share: the default
// detector set on the exact serial pause path (Workers=1), whose
// accounting is deterministic.
func serialConfig(epoch time.Duration) (core.Config, error) {
	mods, err := detect.ModulesByName("default")
	return core.Config{EpochInterval: epoch, Modules: mods, Workers: 1}, err
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string // e.g. "table1", "fig3"
	Title string
	Text  string // rendered rows/series
	// CSV holds the figure's data series in machine-readable form for
	// replotting; empty for prose-only experiments.
	CSV string
}

// Generator produces one experiment result.
type Generator func() (*Result, error)

// rendering turns a benchmark sweep into its text experiment: run the
// sweep, render what it returned.
func rendering[B interface{ render() *Result }](sweep func() (B, error)) Generator {
	return func() (*Result, error) {
		bench, err := sweep()
		if err != nil {
			return nil, err
		}
		return bench.render(), nil
	}
}

// Experiment is one registry entry.
type Experiment struct {
	ID  string
	Gen Generator
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", Table1CostBreakdown},
		{"table2", Table2ParsecSuite},
		{"table3", Table3VMICosts},
		{"fig3", Fig3ParsecNormalized},
		{"fig4", Fig4SwaptionsBreakdown},
		{"fig5", Fig5IntervalSweep},
		{"fig6a", Fig6aFluidanimate},
		{"fig6b", Fig6bBitmapScan},
		{"fig7", Fig7WebServer},
		{"fig8", Fig8AttackTimeline},
		{"case2", Case2MalwareReport},
		{"remus", RemusComparison},
		{"ablation", AblationSummary},
		{"pause", rendering(PauseBreakdown)},
		{"fleet", rendering(FleetSweep)},
		{"scan", rendering(ScanSweep)},
		{"cow", rendering(CoWSweep)},
		{"delta", rendering(DeltaSweep)},
		{"cluster", rendering(ClusterSweep)},
		{"webscale", rendering(WebSweep)},
	}
}

// ByID returns one generator.
func ByID(id string) (Generator, error) {
	for _, e := range All() {
		if e.ID == id {
			return e.Gen, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Artifact is one machine-readable benchmark file: crimes-bench
// regenerates it behind Flag, and the copy committed at the repo root as
// File is what the drift gate diffs against.
type Artifact struct {
	Flag  string // crimes-bench flag taking the output path
	File  string // committed artifact name
	Sweep func() (any, error)
}

// Artifacts returns the benchmark-artifact registry, in `make
// bench-all` order.
func Artifacts() []Artifact {
	return []Artifact{
		{"pause-json", "BENCH_pause.json", func() (any, error) { return PauseBreakdown() }},
		{"fleet-json", "BENCH_fleet.json", func() (any, error) { return FleetSweep() }},
		{"scan-json", "BENCH_scan.json", func() (any, error) { return ScanSweep() }},
		{"cow-json", "BENCH_cow.json", func() (any, error) { return CoWSweep() }},
		{"remus-json", "BENCH_remus.json", func() (any, error) { return DeltaSweep() }},
		{"cluster-json", "BENCH_cluster.json", func() (any, error) { return ClusterSweep() }},
		{"web-json", "BENCH_web.json", func() (any, error) { return WebSweep() }},
	}
}

// JSON runs the artifact's sweep and renders it as the file's bytes.
func (a Artifact) JSON() ([]byte, error) { return marshal(a.Sweep()) }

// marshal renders a sweep result as indented, newline-terminated JSON —
// the one encoding every BENCH_*.json shares. It takes the sweep's
// (value, error) pair directly.
func marshal(bench any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// --- shared cost helpers ---------------------------------------------------

// epochCounts builds the per-checkpoint operation counts for a workload
// spec at paper scale.
func epochCounts(spec workload.Spec, epoch time.Duration) cost.Counts {
	dirty := spec.DirtyPages(epoch)
	return cost.Counts{
		TotalPages:  workload.PaperVMPages,
		DirtyPages:  dirty,
		BytesCopied: dirty * 4096,
		VMINodes:    12, // processes + modules walked by the audit
		Canaries:    int(spec.AllocsPerSec * epoch.Seconds()),
	}
}

// pause prices one pause, dropping the guest-time overhead: the sweeps
// priced here run eager commits, which have none.
func pause(m cost.Model, opt cost.Optimization, c cost.Counts, ctx cost.PauseCtx) cost.Phases {
	p, _ := m.Pause(opt, c, ctx)
	return p
}

// pausedTime prices one serial checkpoint pause of a workload spec.
func pausedTime(m cost.Model, opt cost.Optimization, spec workload.Spec, epoch time.Duration) cost.Phases {
	return pause(m, opt, epochCounts(spec, epoch), cost.PauseCtx{})
}

// normRuntime is the workload's normalized runtime under checkpointing:
// the VM makes progress only while running, so each epoch of useful
// work costs epoch+pause wall time.
func normRuntime(m cost.Model, opt cost.Optimization, spec workload.Spec, epoch time.Duration) float64 {
	pause := pausedTime(m, opt, spec, epoch).Total()
	return float64(epoch+pause) / float64(epoch)
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func renderHeader(b *strings.Builder, title string) {
	fmt.Fprintf(b, "%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// sheet accumulates one experiment's text and CSV renderings.
type sheet struct{ text, csv strings.Builder }

func newSheet(title string) *sheet {
	s := &sheet{}
	renderHeader(&s.text, title)
	return s
}

func (s *sheet) result(id, title string) *Result {
	return &Result{ID: id, Title: title, Text: s.text.String(), CSV: s.csv.String()}
}

// col declares one table column, once: its text header, the width
// header and cells are padded to (negative = left-aligned) and the
// cell's verb; its CSV name and verb; and the cell's value.
type col[R any] struct {
	head    string
	width   int
	verb    string
	csv     string
	csvVerb string
	val     func(R) any
}

// percent is a fraction that prints as a percentage under %v and as the
// fraction under %f: one value serves a text "cut" column and its CSV
// twin.
type percent float64

func (p percent) String() string { return fmt.Sprintf("%.1f%%", 100*float64(p)) }

// table is one experiment's columns, the only place its text and CSV
// layouts are written down.
type table[R any] []col[R]

// line pads one string per column to the column widths.
func (t table[R]) line(cells ...string) string {
	for i, c := range t {
		cells[i] = fmt.Sprintf("%*s", c.width, cells[i])
	}
	return strings.Join(cells, " ") + "\n"
}

// header writes the text header line and the CSV name line.
func (t table[R]) header(s *sheet) {
	heads, names := make([]string, len(t)), make([]string, len(t))
	for i, c := range t {
		heads[i], names[i] = c.head, c.csv
	}
	s.text.WriteString(t.line(heads...))
	s.csv.WriteString(strings.Join(names, ",") + "\n")
}

// format renders one row as its text line and its CSV line.
func (t table[R]) format(r R) (text, csv string) {
	cells, vals := make([]string, len(t)), make([]string, len(t))
	for i, c := range t {
		v := c.val(r)
		cells[i], vals[i] = fmt.Sprintf(c.verb, v), fmt.Sprintf(c.csvVerb, v)
	}
	return t.line(cells...), strings.Join(vals, ",") + "\n"
}

// rows writes the rows to both renderings.
func (t table[R]) rows(s *sheet, rs ...R) {
	for _, r := range rs {
		text, csv := t.format(r)
		s.text.WriteString(text)
		s.csv.WriteString(csv)
	}
}
