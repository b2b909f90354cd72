package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
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
	cowBenchEpoch  = 100 * time.Millisecond
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
	cfg, err := serialConfig(cowBenchEpoch)
	if err != nil {
		return nil, err
	}
	cfg.CoW = cow
	var pid uint32
	var arena uint64
	work := func(g *guestos.Guest, e int, _ time.Duration) error {
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
	}
	out := &cowArmResult{}
	steady := 0
	err = runEpochs(fmt.Sprintf("cow bench (ws=%d cow=%v)", ws, cow), cowBenchPages, cowBenchSeed, cfg,
		cowBenchEpochs, cowWarmupEpochs, work, func(res *core.EpochResult) {
			steady++
			out.pauseMs += ms(res.Phases.Total())
			out.cow.Add(res.CoW)
		})
	if err != nil {
		return nil, err
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
		EpochMs:    ms(cowBenchEpoch),
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

// cowTable is the "cow" experiment's layout.
var cowTable = table[CoWPoint]{
	{"wss-pages", -10, "%d", "wss_pages", "%d", func(p CoWPoint) any { return p.WSSPages }},
	{"eager-ms", 12, "%.3f", "off_pause_ms", "%.3f", func(p CoWPoint) any { return p.OffPauseMs }},
	{"cow-ms", 12, "%.3f", "cow_pause_ms", "%.3f", func(p CoWPoint) any { return p.CowPauseMs }},
	{"fault-ms", 12, "%.3f", "cow_fault_overhead_ms", "%.3f", func(p CoWPoint) any { return p.CowFaultMs }},
	{"faults", 8, "%d", "cow_write_faults", "%d", func(p CoWPoint) any { return p.WriteFaults }},
	{"drained", 8, "%d", "cow_drained_pages", "%d", func(p CoWPoint) any { return p.DrainedPages }},
	{"pause-cut", 9, "%v", "pause_reduction", "%.3f", func(p CoWPoint) any { return percent(p.PauseReduction) }},
}

// render is the "cow" text experiment: per-working-set pause under the
// eager and CoW commits.
func (bench *CoWBench) render() *Result {
	s := newSheet(fmt.Sprintf(
		"CoW commit: steady-state pause (ms) vs working-set size, eager vs copy-on-write, %d-page guest",
		bench.GuestPages))
	cowTable.header(s)
	cowTable.rows(s, bench.Points...)
	fmt.Fprintf(&s.text, "pause growth %dx working set: eager %.2fx, cow %.2fx\n",
		bench.Points[len(bench.Points)-1].WSSPages/bench.Points[0].WSSPages,
		bench.OffPauseGrowth, bench.CowPauseGrowth)
	return s.result("cow", "CoW commit: pause vs working-set size")
}
