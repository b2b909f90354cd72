package experiments

import (
	"time"

	"repro/internal/cost"
	"repro/internal/workload"
)

// pauseWorkerCounts are the worker counts the pause-breakdown
// experiment sweeps.
var pauseWorkerCounts = []int{1, 2, 4, 8}

// PausePoint is one worker count's virtual-time pause breakdown for the
// parallel pause path, in milliseconds.
type PausePoint struct {
	Workers    int     `json:"workers"`
	SuspendMs  float64 `json:"suspend_ms"`
	VMIMs      float64 `json:"vmi_ms"`
	BitscanMs  float64 `json:"bitscan_ms"`
	MapMs      float64 `json:"map_ms"`
	CopyMs     float64 `json:"copy_ms"`
	ResumeMs   float64 `json:"resume_ms"`
	TotalMs    float64 `json:"total_ms"`
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// PauseBench is the machine-readable pause-parallelism benchmark
// (BENCH_pause.json): the swaptions pause breakdown at each worker
// count, priced by the calibrated cost model's parallel path.
type PauseBench struct {
	Workload string       `json:"workload"`
	Opt      string       `json:"opt"`
	EpochMs  float64      `json:"epoch_ms"`
	Points   []PausePoint `json:"points"`
}

// PauseBreakdown computes the pause breakdown for the swaptions
// workload at the Full optimization level across the worker sweep. The
// Workers=1 row is priced by the exact serial path, so it
// matches Figure 4's Full row bit-for-bit.
func PauseBreakdown() (*PauseBench, error) {
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		return nil, err
	}
	m := cost.Default()
	epoch := 200 * time.Millisecond
	counts := epochCounts(spec, epoch)
	bench := &PauseBench{
		Workload: spec.Name,
		Opt:      cost.Full.String(),
		EpochMs:  ms(epoch),
	}
	base := pause(m, cost.Full, counts, cost.PauseCtx{Workers: 1}).Total()
	for _, w := range pauseWorkerCounts {
		p := pause(m, cost.Full, counts, cost.PauseCtx{Workers: w})
		bench.Points = append(bench.Points, PausePoint{
			Workers:    w,
			SuspendMs:  ms(p.Suspend),
			VMIMs:      ms(p.VMI),
			BitscanMs:  ms(p.Bitscan),
			MapMs:      ms(p.Map),
			CopyMs:     ms(p.Copy),
			ResumeMs:   ms(p.Resume),
			TotalMs:    ms(p.Total()),
			SpeedupVs1: float64(base) / float64(p.Total()),
		})
	}
	return bench, nil
}

// pauseTable is the "pause" experiment's layout.
var pauseTable = table[PausePoint]{
	{"workers", -8, "%d", "workers", "%d", func(p PausePoint) any { return p.Workers }},
	{"suspend", 8, "%.3f", "suspend_ms", "%.3f", func(p PausePoint) any { return p.SuspendMs }},
	{"vmi", 8, "%.3f", "vmi_ms", "%.3f", func(p PausePoint) any { return p.VMIMs }},
	{"bitscan", 8, "%.3f", "bitscan_ms", "%.3f", func(p PausePoint) any { return p.BitscanMs }},
	{"map", 8, "%.3f", "map_ms", "%.3f", func(p PausePoint) any { return p.MapMs }},
	{"copy", 8, "%.3f", "copy_ms", "%.3f", func(p PausePoint) any { return p.CopyMs }},
	{"resume", 8, "%.3f", "resume_ms", "%.3f", func(p PausePoint) any { return p.ResumeMs }},
	{"total", 8, "%.3f", "total_ms", "%.3f", func(p PausePoint) any { return p.TotalMs }},
	{"speedup", 8, "%.2fx", "speedup_vs_1", "%.3f", func(p PausePoint) any { return p.SpeedupVs1 }},
}

// render is the "pause" text experiment: the swaptions paused-time
// phases at 1, 2, 4 and 8 workers.
func (bench *PauseBench) render() *Result {
	s := newSheet("Parallel pause path: swaptions breakdown (ms) by worker count, Full opt, 200ms epoch")
	pauseTable.header(s)
	pauseTable.rows(s, bench.Points...)
	return s.result("pause", "Parallel pause path breakdown")
}
