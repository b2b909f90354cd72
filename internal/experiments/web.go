package experiments

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/websim"
	"repro/internal/workload"
)

// fig7Horizon is the length of one wrk run.
const fig7Horizon = 10 * time.Second

// wrkRun measures the §5.4 client (websim.WrkClient) over one run
// against a server protected by a fixed {epoch, pause} cycle, or by
// nothing when epoch is zero.
func wrkRun(epoch, pause time.Duration, buffered bool) (websim.LoadStats, error) {
	g, err := websim.NewGen(websim.GenParams{Classes: []websim.Class{websim.WrkClient}, Buffered: buffered})
	if err != nil {
		return websim.LoadStats{}, err
	}
	var cycles []websim.Cycle
	if epoch > 0 {
		cycles = websim.FleetSchedule([][]websim.Cycle{{{Run: epoch, Pause: pause}}}, 1, fig7Horizon)[0]
	}
	websim.DriveGen(g, cycles, 0, fig7Horizon)
	return g.Snapshot(), nil
}

// fig7Row is one epoch interval's latency and throughput under both
// safety modes, normalized to the unprotected baseline.
type fig7Row struct {
	epochMs                          int
	syncLat, syncTput, beLat, beTput float64
}

// fig7Table is Figure 7's layout.
var fig7Table = table[fig7Row]{
	{"epoch(ms)", -10, "%d", "epoch_ms", "%d", func(r fig7Row) any { return r.epochMs }},
	{"sync lat", 12, "%.2f", "sync_lat_norm", "%.4f", func(r fig7Row) any { return r.syncLat }},
	{"sync tput", 12, "%.2f", "sync_tput_norm", "%.4f", func(r fig7Row) any { return r.syncTput }},
	{"BE lat", 12, "%.2f", "be_lat_norm", "%.4f", func(r fig7Row) any { return r.beLat }},
	{"BE tput", 12, "%.2f", "be_tput_norm", "%.4f", func(r fig7Row) any { return r.beTput }},
}

// Fig7WebServer regenerates Figure 7: the web server's normalized
// latency (a) and throughput (b) versus epoch interval, for Synchronous
// Safety and Best Effort Safety, under Full optimization.
func Fig7WebServer() (*Result, error) {
	m := cost.Default()
	spec := workload.Web(workload.WebMedium)

	base, err := wrkRun(0, 0, false)
	if err != nil {
		return nil, err
	}
	s := newSheet("Figure 7: web server under Synchronous vs Best Effort safety (Full opt)")
	fmt.Fprintf(&s.text, "Baseline (no protection): %.0f req/s, %.2f ms avg latency (paper: 17094 req/s, 2.83 ms)\n\n",
		base.Throughput, ms(base.AvgLatency))
	fig7Table.header(s)
	s.text.WriteString(fig7Table.line("", "(norm)", "(norm)", "(norm)", "(norm)"))

	for e := 20; e <= 200; e += 20 {
		epoch := time.Duration(e) * time.Millisecond
		pause := pausedTime(m, cost.Full, spec, epoch).Total()
		sync, err := wrkRun(epoch, pause, true)
		if err != nil {
			return nil, err
		}
		be, err := wrkRun(epoch, pause, false)
		if err != nil {
			return nil, err
		}
		fig7Table.rows(s, fig7Row{
			epochMs:  e,
			syncLat:  float64(sync.AvgLatency) / float64(base.AvgLatency),
			syncTput: sync.Throughput / base.Throughput,
			beLat:    float64(be.AvgLatency) / float64(base.AvgLatency),
			beTput:   be.Throughput / base.Throughput,
		})
	}
	s.text.WriteString(`
Paper shapes: Best Effort stays ~1.0 in both metrics; Synchronous latency
grows and throughput falls monotonically with the interval (the closed-loop
client cannot fill the server while responses are buffered). Magnitudes
exceed the paper's because every buffered response here waits for the full
epoch boundary.
`)
	return s.result("fig7", "Web server safety modes"), nil
}
