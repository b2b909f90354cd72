package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/mem"
)

// CoW benchmark shape. Like the scan benchmark this runs the real
// controller: for each working-set size, two identical guests rewrite
// the same hot pages every epoch — one committing eagerly (copying
// every dirty page under pause), one with the copy-on-write commit
// (arming write faults and copying lazily). The eager arm's pause grows
// linearly with the working set; the CoW arm's stays near-flat, paying
// instead a per-fault overhead charged to guest time. Workers=1 and a
// fixed seed keep the JSON byte-stable for the bench-drift gate.
const (
	cowBenchPages  = 8192
	cowBenchSeed   = 7
	cowBenchEpochs = 6
	// cowWarmupEpochs are excluded from the steady-state aggregates:
	// the first epoch allocates the arena (dirtying it wholesale) and
	// the second takes the first armed commit.
	cowWarmupEpochs = 2
)

// cowBenchSweep is the working-set sizes swept, in pages.
var cowBenchSweep = []int{64, 256, 1024, 4096}

// CoWPoint compares one working-set size across the two commit
// strategies. Pause figures are steady-state averages per epoch; the
// CoW counters are steady-state per-epoch averages too.
type CoWPoint struct {
	WSSPages   int     `json:"wss_pages"`
	OffPauseMs float64 `json:"off_pause_ms"`
	CowPauseMs float64 `json:"cow_pause_ms"`
	// CowFaultMs is the guest-time overhead of write faults on armed
	// pages — the price of resuming before the copy is done. It never
	// extends the pause.
	CowFaultMs   float64 `json:"cow_fault_overhead_ms"`
	ArmedPages   int     `json:"cow_armed_pages"`
	WriteFaults  int     `json:"cow_write_faults"`
	DrainedPages int     `json:"cow_drained_pages"`
	// PauseReduction is 1 - cow/off steady-state pause.
	PauseReduction float64 `json:"pause_reduction"`
}

// CoWBench is the machine-readable CoW benchmark (BENCH_cow.json).
type CoWBench struct {
	GuestPages int     `json:"guest_pages"`
	EpochMs    float64 `json:"epoch_ms"`
	Epochs     int     `json:"epochs"`
	Warmup     int     `json:"warmup_epochs"`
	// PauseGrowth ratios compare the largest working set's steady-state
	// pause to the smallest's: the eager arm grows linearly with the
	// set, the CoW arm sublinearly.
	OffPauseGrowth float64    `json:"off_pause_growth"`
	CowPauseGrowth float64    `json:"cow_pause_growth"`
	Points         []CoWPoint `json:"points"`
}

// cowArmResult is one arm's steady-state accounting at one sweep point.
type cowArmResult struct {
	pauseMs float64 // avg virtual pause per steady-state epoch
	cow     cost.CoWCounts
}

// runCowArm drives cowBenchEpochs epochs that each rewrite the same
// ws-page hot set, under the eager or CoW commit, and returns the
// steady-state averages.
func runCowArm(ws int, cow bool) (*cowArmResult, error) {
	mods, err := detect.ModulesByName("default")
	if err != nil {
		return nil, err
	}
	epoch := 100 * time.Millisecond
	ctl, err := launch("guest", cowBenchPages, guestos.LinuxProfile(), cowBenchSeed, core.Config{
		EpochInterval: epoch,
		Modules:       mods,
		Workers:       1, // exact serial path: deterministic accounting
		CoW:           cow,
	})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	var pid uint32
	var arena uint64
	out := &cowArmResult{}
	steady := 0
	for e := 1; e <= cowBenchEpochs; e++ {
		res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
			if e == 1 {
				// Set up the hot set inside the first (warmup) epoch:
				// one process whose arena spans the working set.
				if pid, err = g.StartProcess("cowbench", 1000, ws+3); err != nil {
					return err
				}
				if arena, err = g.Malloc(pid, ws*mem.PageSize-64); err != nil {
					return err
				}
			}
			// Rewrite one 8-byte stamp per hot page, skipping a
			// rotating quarter of the set each epoch: the skipped
			// pages stay armed until the background copier settles
			// them, so the steady state exercises both the write-fault
			// and the lazy-drain path.
			var stamp [8]byte
			for p := 0; p < ws; p++ {
				if ws >= 4 && (p+e)%4 == 0 {
					continue
				}
				v := uint64(e)<<32 | uint64(p)
				for i := range stamp {
					stamp[i] = byte(v >> (8 * i))
				}
				if err := g.WriteUser(pid, arena+uint64(p)*mem.PageSize+8, stamp[:]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cow bench (ws=%d cow=%v) epoch %d: %w", ws, cow, e, err)
		}
		if res.Incident != nil {
			return nil, fmt.Errorf("cow bench (ws=%d cow=%v) epoch %d: unexpected incident", ws, cow, e)
		}
		if e <= cowWarmupEpochs {
			continue
		}
		steady++
		out.pauseMs += ms(res.Phases.Total())
		out.cow.Add(res.CoW)
	}
	out.pauseMs /= float64(steady)
	out.cow.ArmedPages /= steady
	out.cow.WriteFaults /= steady
	out.cow.DrainPages /= steady
	return out, nil
}

// CoWSweep runs both arms across the working-set sweep and assembles
// the benchmark.
func CoWSweep() (*CoWBench, error) {
	model := cost.Default()
	bench := &CoWBench{
		GuestPages: cowBenchPages,
		EpochMs:    100,
		Epochs:     cowBenchEpochs,
		Warmup:     cowWarmupEpochs,
	}
	for _, ws := range cowBenchSweep {
		off, err := runCowArm(ws, false)
		if err != nil {
			return nil, err
		}
		on, err := runCowArm(ws, true)
		if err != nil {
			return nil, err
		}
		p := CoWPoint{
			WSSPages:     ws,
			OffPauseMs:   off.pauseMs,
			CowPauseMs:   on.pauseMs,
			CowFaultMs:   model.CowFaultNs * float64(on.cow.WriteFaults) / 1e6,
			ArmedPages:   on.cow.ArmedPages,
			WriteFaults:  on.cow.WriteFaults,
			DrainedPages: on.cow.DrainPages,
		}
		if off.pauseMs > 0 {
			p.PauseReduction = 1 - on.pauseMs/off.pauseMs
		}
		bench.Points = append(bench.Points, p)
	}
	first, last := bench.Points[0], bench.Points[len(bench.Points)-1]
	if first.OffPauseMs > 0 {
		bench.OffPauseGrowth = last.OffPauseMs / first.OffPauseMs
	}
	if first.CowPauseMs > 0 {
		bench.CowPauseGrowth = last.CowPauseMs / first.CowPauseMs
	}
	return bench, nil
}

// CoWComparison regenerates the CoW comparison as a text experiment
// ("cow"): per-working-set pause under the eager and CoW commits.
func CoWComparison() (*Result, error) {
	bench, err := CoWSweep()
	if err != nil {
		return nil, err
	}
	return bench.render(), nil
}

// render is the sweep's text and CSV rendering.
func (bench *CoWBench) render() *Result {
	var b strings.Builder
	renderHeader(&b, fmt.Sprintf(
		"CoW commit: steady-state pause (ms) vs working-set size, eager vs copy-on-write, %d-page guest",
		bench.GuestPages))
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %8s %8s %9s\n",
		"wss-pages", "eager-ms", "cow-ms", "fault-ms", "faults", "drained", "pause-cut")
	var csv strings.Builder
	csv.WriteString("wss_pages,off_pause_ms,cow_pause_ms,cow_fault_overhead_ms,cow_write_faults,cow_drained_pages,pause_reduction\n")
	for _, p := range bench.Points {
		fmt.Fprintf(&b, "%-10d %12.3f %12.3f %12.3f %8d %8d %8.1f%%\n",
			p.WSSPages, p.OffPauseMs, p.CowPauseMs, p.CowFaultMs,
			p.WriteFaults, p.DrainedPages, 100*p.PauseReduction)
		fmt.Fprintf(&csv, "%d,%.3f,%.3f,%.3f,%d,%d,%.3f\n",
			p.WSSPages, p.OffPauseMs, p.CowPauseMs, p.CowFaultMs,
			p.WriteFaults, p.DrainedPages, p.PauseReduction)
	}
	fmt.Fprintf(&b, "pause growth %dx working set: eager %.2fx, cow %.2fx\n",
		cowBenchSweep[len(cowBenchSweep)-1]/cowBenchSweep[0],
		bench.OffPauseGrowth, bench.CowPauseGrowth)
	return &Result{
		ID:    "cow",
		Title: "CoW commit: pause vs working-set size",
		Text:  b.String(),
		CSV:   csv.String(),
	}
}
