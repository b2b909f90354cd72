package experiments

import (
	"fmt"
	"strings"
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

// PauseParallel regenerates the parallel pause-path breakdown as a
// text experiment ("pause"): the swaptions paused-time phases at 1, 2,
// 4 and 8 workers.
func PauseParallel() (*Result, error) {
	bench, err := PauseBreakdown()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	renderHeader(&b, "Parallel pause path: swaptions breakdown (ms) by worker count, Full opt, 200ms epoch")
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"workers", "suspend", "vmi", "bitscan", "map", "copy", "resume", "total", "speedup")
	var csv strings.Builder
	csv.WriteString("workers,suspend_ms,vmi_ms,bitscan_ms,map_ms,copy_ms,resume_ms,total_ms,speedup_vs_1\n")
	for _, p := range bench.Points {
		fmt.Fprintf(&b, "%-8d %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %7.2fx\n",
			p.Workers, p.SuspendMs, p.VMIMs, p.BitscanMs, p.MapMs, p.CopyMs, p.ResumeMs, p.TotalMs, p.SpeedupVs1)
		fmt.Fprintf(&csv, "%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			p.Workers, p.SuspendMs, p.VMIMs, p.BitscanMs, p.MapMs, p.CopyMs, p.ResumeMs, p.TotalMs, p.SpeedupVs1)
	}
	return &Result{
		ID:    "pause",
		Title: "Parallel pause path breakdown",
		Text:  b.String(),
		CSV:   csv.String(),
	}, nil
}
