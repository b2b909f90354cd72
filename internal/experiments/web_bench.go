package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/guestos"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/slo"
	"repro/internal/websim"
	"repro/internal/workload"
)

// Web-scale benchmark (BENCH_web.json): users served per host at a
// fixed p99 target. Every protection arm's epoch timeline is captured
// from a real controller run (actual — possibly jittered or SLO-tuned —
// intervals and priced pauses), replicated across the host's VMs with
// the fleet's stagger-and-gate schedule, and replayed into the cohort
// load generator under Best Effort safety, where each pause surfaces as
// client tail latency. The headline number per sweep point is the
// largest closed-loop user population whose fleet-merged p99 stays
// under the target; the SLO-adaptive arm re-tunes per load rung while
// the ten static scenario arms keep their fixed configuration.
//
// Everything runs in virtual time with fixed seeds and Workers=1 base
// configs, so the JSON is byte-stable and sits under the bench-drift
// gate next to the other BENCH_*.json artifacts.
const (
	webBenchPages = 1024
	webBenchSeed  = 64
	// webCaptureEpochs of real controller drive the timeline capture;
	// the adaptive arm runs webAdaptEpochs and keeps the last
	// webCaptureEpochs as its steady-state timeline.
	webCaptureEpochs = 8
	webAdaptEpochs   = 24
	// webClusterOutageEpoch is where the cluster arm's failover lands
	// (0-based into the captured timeline): VM 0 goes dark for the
	// promotion time and the spike must show in that arm's tail.
	webClusterOutageEpoch = 4
	webClusterHosts       = 2
)

var (
	webHorizon = 4 * time.Second
	webWarmup  = 1 * time.Second
	// webTargetP99 is the SLO every arm is held to. The latency
	// histogram's log-scale buckets quantize any measured p99 to a bucket
	// bound (2.489, 2.863, 3.292, 3.786 ms in this region), so the target
	// sits just above the 2.863 ms bound: an arm passes while its
	// pause-plus-drain tail holds that bucket and fails the moment the
	// tail spills into the next. The ~3.2 ms pause the 200 ms static arms
	// pay every cycle spills at ~1M users/VM; stretching the interval
	// keeps the spill point near the generator's ~1.35M saturation wall.
	webTargetP99 = 2900 * time.Microsecond
	// webLadder is the per-VM closed-loop user ladder, searched for the
	// largest rung whose merged p99 meets the target. The dense top rungs
	// sit between the static arms' spill point and the saturation wall,
	// where the adaptive controller's stretched interval still holds the
	// target.
	webLadder = []int64{250_000, 500_000, 750_000, 1_000_000, 1_100_000, 1_200_000, 1_250_000, 1_300_000}
	// webVMSweep is the per-host VM count sweep.
	webVMSweep = []int{1, 8, 64}
)

// webStaticArms are the scenario catalog's fixed-config arms the
// adaptive controller is benchmarked against.
func webStaticArms() []string {
	var out []string
	for _, name := range scenario.ArmNames() {
		if name != "slo-adaptive" {
			out = append(out, name)
		}
	}
	return out
}

// WebArmPoint is one (arm, VM-count) sweep cell.
type WebArmPoint struct {
	Arm        string `json:"arm"`
	VMs        int    `json:"vms"`
	UsersPerVM int64  `json:"users_per_vm"`
	// UsersPerHost = UsersPerVM x VMs: the headline capacity metric.
	UsersPerHost      int64   `json:"users_per_host"`
	ThroughputPerHost float64 `json:"throughput_per_host_rps"`
	P99Ms             float64 `json:"p99_ms"`
	// Tuned knobs at steady state; zero for static arms (their config
	// never moves).
	GateK      int     `json:"gate_k,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	IntervalMs float64 `json:"interval_ms,omitempty"`
	SLOSteps   int     `json:"slo_steps,omitempty"`
}

// WebHeadline compares the adaptive arm against the best static arm at
// one sweep point.
type WebHeadline struct {
	VMs                    int     `json:"vms"`
	AdaptiveUsersPerHost   int64   `json:"adaptive_users_per_host"`
	BestStaticArm          string  `json:"best_static_arm"`
	BestStaticUsersPerHost int64   `json:"best_static_users_per_host"`
	Gain                   float64 `json:"adaptive_gain"`
}

// WebBench is the machine-readable web-scale benchmark
// (BENCH_web.json).
type WebBench struct {
	TargetP99Ms float64       `json:"target_p99_ms"`
	GuestPages  int           `json:"guest_pages"`
	HorizonMs   float64       `json:"horizon_ms"`
	WarmupMs    float64       `json:"warmup_ms"`
	LadderPerVM []int64       `json:"ladder_users_per_vm"`
	VMSweep     []int         `json:"vm_sweep"`
	Static      []WebArmPoint `json:"static"`
	Adaptive    []WebArmPoint `json:"adaptive"`
	Headline    []WebHeadline `json:"headline"`
}

// webBaseConfig is the shared controller configuration the arms start
// from: the scan-bench shape (200 ms epochs, serial pause path) with
// the default detector set.
func webBaseConfig() core.Config {
	return core.Config{
		EpochInterval: 200 * time.Millisecond,
		Workers:       1,
	}
}

// runWebCapture drives webCaptureEpochs (or n, if larger) epochs of the
// web workload under cfg and returns each epoch's actual (interval,
// priced pause) pair. The observe hook runs after every epoch so the
// adaptive arm can close its feedback loop.
func runWebCapture(cfg core.Config, n int, observe func(res *core.EpochResult)) ([]websim.Cycle, error) {
	runner := workload.NewRunner(workload.Web(workload.WebMedium), webBenchSeed)
	out := make([]websim.Cycle, 0, n)
	err := runEpochs("web bench", webBenchPages, webBenchSeed, cfg, n, 0,
		func(g *guestos.Guest, _ int, interval time.Duration) error { return runner.RunEpoch(g, interval) },
		func(res *core.EpochResult) {
			out = append(out, websim.Cycle{Run: res.Interval, Pause: res.Phases.Total()})
			if observe != nil {
				observe(res)
			}
		})
	return out, err
}

// webStaticCycles captures a static arm's timeline once; the cluster
// arm is the baseline timeline plus a failover outage (the promotion
// time the cost model prices) on VM 0.
func webStaticCycles(armName string) ([]websim.Cycle, error) {
	arm, err := scenario.ArmByName(armName)
	if err != nil {
		return nil, err
	}
	cfg := webBaseConfig()
	// The cluster arm keeps the base config — its control plane runs each
	// VM with it, and the failover itself is priced in webPerVM.
	if !arm.Cluster {
		arm.Apply(&cfg)
	}
	if cfg.SLO != nil {
		return nil, fmt.Errorf("web bench: arm %q is not static", armName)
	}
	return runWebCapture(cfg, webCaptureEpochs, nil)
}

// webPerVM replicates an arm's timeline across vms VMs, applying the
// cluster arm's promotion outage to VM 0.
func webPerVM(armName string, cycles []websim.Cycle, vms int) [][]websim.Cycle {
	perVM := websim.Replicate(cycles, vms)
	if armName == "cluster" {
		outage := cost.Default().Promote(webBenchPages, webClusterHosts)
		perVM[0] = websim.WithOutage(cycles, webClusterOutageEpoch, outage)
	}
	return perVM
}

// webMeasure drives one generator per VM over the fleet schedule and
// records the host-merged p99 and aggregate completed throughput of the
// measurement window in p.
func webMeasure(p *WebArmPoint, perVM [][]websim.Cycle, k int) error {
	sched := websim.FleetSchedule(perVM, k, webHorizon)
	merged := obs.NewHistogram(websim.LatencyBuckets())
	for i := range sched {
		g, err := websim.NewGen(websim.GenParams{Classes: websim.DefaultClasses(p.UsersPerVM)})
		if err != nil {
			return err
		}
		websim.DriveGen(g, sched[i], webWarmup, webHorizon)
		merged.Merge(g.Hist())
		p.ThroughputPerHost += g.Snapshot().Throughput
	}
	p.P99Ms = ms(time.Duration(merged.Quantile(0.99)))
	return nil
}

// webSearchLadder finds the largest ladder rung at which arm, on vms
// VMs, meets the p99 target. measure completes the point for one rung
// (its user counts are preset); the p99-vs-load curve is monotone, so a
// binary search suffices. When even the bottom rung fails, the point
// carries only the arm and the VM count.
func webSearchLadder(arm string, vms int, measure func(p *WebArmPoint) error) (WebArmPoint, error) {
	best := WebArmPoint{Arm: arm, VMs: vms}
	lo, hi := 0, len(webLadder)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		p := WebArmPoint{Arm: arm, VMs: vms, UsersPerVM: webLadder[mid], UsersPerHost: webLadder[mid] * int64(vms)}
		if err := measure(&p); err != nil {
			return WebArmPoint{}, err
		}
		if p.P99Ms <= ms(webTargetP99) {
			best = p
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best, nil
}

// webStaticPoint benchmarks one static arm at one VM count.
func webStaticPoint(armName string, cycles []websim.Cycle, vms int) (WebArmPoint, error) {
	return webSearchLadder(armName, vms, func(p *WebArmPoint) error {
		return webMeasure(p, webPerVM(armName, cycles, vms), vms)
	})
}

// webAdaptivePoint benchmarks the SLO-adaptive arm at one VM count: for
// each candidate rung a fresh controller re-tunes closed-loop against a
// feedback generator at that load, and the steady-state tuned timeline
// is then measured fleet-wide under the tuned gate K.
func webAdaptivePoint(vms int) (WebArmPoint, error) {
	return webSearchLadder("slo-adaptive", vms, func(p *WebArmPoint) error {
		fb, err := websim.NewGen(websim.GenParams{Classes: websim.DefaultClasses(p.UsersPerVM)})
		if err != nil {
			return err
		}
		// Band 0.13 puts the loosen threshold between the 2.863 and
		// 3.292 ms histogram buckets: a tail in the higher bucket always
		// steers, one in the lower never does. TightenBand 0.16 keeps the
		// 2.489 ms bucket inside the deadband too — epoch windows at the
		// bucket edge alternate between 2.489 and 2.863, and a symmetric
		// band would read the former as slack and tighten straight back
		// into violation. Patience 1 with a 150 ms step reaches the
		// 800 ms ceiling well inside the adaptation run, leaving a
		// homogeneous steady-state tail.
		sctl := slo.New(slo.Config{
			TargetP99:    webTargetP99,
			Band:         0.13,
			TightenBand:  0.16,
			Patience:     1,
			IntervalStep: 150 * time.Millisecond,
			MaxWorkers:   4,
			VMs:          vms,
		})
		cfg := webBaseConfig()
		cfg.SLO = sctl
		cycles, err := runWebCapture(cfg, webAdaptEpochs, func(res *core.EpochResult) {
			// Close the loop: the feedback generator lives through the
			// epoch the clients just saw, and its windowed p99 steers
			// the next epoch's knobs.
			fb.Run(res.Interval)
			fb.Pause(res.Phases.Total())
			p99, n := fb.TakeEpoch()
			sctl.ObserveP99(p99, n)
		})
		if err != nil {
			return err
		}
		steady := cycles[len(cycles)-webCaptureEpochs:]
		tun := sctl.Tunables()
		p.GateK = tun.GateK
		if p.GateK < 1 {
			p.GateK = vms
		}
		p.Workers, p.IntervalMs, p.SLOSteps = tun.Workers, ms(tun.Interval), sctl.Steps()
		return webMeasure(p, websim.Replicate(steady, vms), p.GateK)
	})
}

// WebSweep runs the full benchmark: every static arm and the adaptive
// controller at each VM-count sweep point.
func WebSweep() (*WebBench, error) {
	bench := &WebBench{
		TargetP99Ms: ms(webTargetP99),
		GuestPages:  webBenchPages,
		HorizonMs:   ms(webHorizon),
		WarmupMs:    ms(webWarmup),
		LadderPerVM: webLadder,
		VMSweep:     webVMSweep,
	}
	arms := webStaticArms()
	captured := make(map[string][]websim.Cycle, len(arms))
	for _, arm := range arms {
		cycles, err := webStaticCycles(arm)
		if err != nil {
			return nil, fmt.Errorf("web bench: capture %s: %w", arm, err)
		}
		captured[arm] = cycles
	}
	for _, vms := range webVMSweep {
		bestUsers, bestArm := int64(-1), ""
		for _, arm := range arms {
			p, err := webStaticPoint(arm, captured[arm], vms)
			if err != nil {
				return nil, fmt.Errorf("web bench: %s x %d VMs: %w", arm, vms, err)
			}
			bench.Static = append(bench.Static, p)
			if p.UsersPerHost > bestUsers {
				bestUsers, bestArm = p.UsersPerHost, p.Arm
			}
		}
		ap, err := webAdaptivePoint(vms)
		if err != nil {
			return nil, fmt.Errorf("web bench: adaptive x %d VMs: %w", vms, err)
		}
		bench.Adaptive = append(bench.Adaptive, ap)
		head := WebHeadline{
			VMs:                    vms,
			AdaptiveUsersPerHost:   ap.UsersPerHost,
			BestStaticArm:          bestArm,
			BestStaticUsersPerHost: bestUsers,
		}
		if bestUsers > 0 {
			head.Gain = float64(ap.UsersPerHost) / float64(bestUsers)
		}
		bench.Headline = append(bench.Headline, head)
	}
	return bench, nil
}

// webTable is the "webscale" experiment's layout.
var webTable = table[WebArmPoint]{
	{"arm", -14, "%s", "arm", "%s", func(p WebArmPoint) any { return p.Arm }},
	{"vms", 5, "%d", "vms", "%d", func(p WebArmPoint) any { return p.VMs }},
	{"users/vm", 12, "%d", "users_per_vm", "%d", func(p WebArmPoint) any { return p.UsersPerVM }},
	{"users/host", 14, "%d", "users_per_host", "%d", func(p WebArmPoint) any { return p.UsersPerHost }},
	{"rps/host", 14, "%.0f", "throughput_per_host_rps", "%.0f", func(p WebArmPoint) any { return p.ThroughputPerHost }},
	{"p99(ms)", 9, "%.3f", "p99_ms", "%.3f", func(p WebArmPoint) any { return p.P99Ms }},
	{"gateK", 7, "%d", "gate_k", "%d", func(p WebArmPoint) any { return p.GateK }},
	{"workers", 8, "%d", "workers", "%d", func(p WebArmPoint) any { return p.Workers }},
	{"intvl(ms)", 10, "%.0f", "interval_ms", "%.0f", func(p WebArmPoint) any { return p.IntervalMs }},
}

// render is the "webscale" text experiment: users served per host at
// the p99 target, adaptive vs the static arms, per VM-count sweep point.
func (bench *WebBench) render() *Result {
	s := newSheet(fmt.Sprintf(
		"Web scale: users served per host at p99 <= %.1f ms (Best Effort, %d-page guests)",
		bench.TargetP99Ms, bench.GuestPages))
	webTable.header(s)
	for _, vms := range bench.VMSweep {
		for _, p := range bench.Static {
			if p.VMs == vms {
				webTable.rows(s, p)
			}
		}
		for _, p := range bench.Adaptive {
			if p.VMs == vms {
				webTable.rows(s, p)
			}
		}
		s.text.WriteByte('\n')
	}
	for _, h := range bench.Headline {
		fmt.Fprintf(&s.text, "%d VMs: adaptive %d users/host vs best static (%s) %d — %.2fx\n",
			h.VMs, h.AdaptiveUsersPerHost, h.BestStaticArm, h.BestStaticUsersPerHost, h.Gain)
	}
	return s.result("webscale", "Web scale: SLO-adaptive vs static arms")
}
