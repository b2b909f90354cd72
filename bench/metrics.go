package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef is one catalogue entry. The catalogue is the single list of
// names the benchmark may print; BENCHMARK.json repeats it for the
// driver and the smoke test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the relative worsening that counts as a regression. Only
	// gated metrics have one.
	bound float64
	// gated metrics are BENCHMARK.json's end_to_end list: measured with
	// tracing off, printed for every workload, compared against their
	// bound. Everything else is printed by the traced run.
	gated bool
	// user marks the remaining user-facing metrics: exact or
	// workload-specific, so not gated, but printed by the measured run
	// too.
	user bool
	// exact counters are functions of the inputs alone: the same seed
	// must reproduce them bit-for-bit (-repeat and the smoke test check).
	exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

var catalogue = []metricDef{
	// End to end: what a tenant, an operator or the security team pays.
	{name: "setup_s", unit: "s", better: lower, bound: 0.25, gated: true},
	{name: "epochs_per_s", unit: "1/s", better: higher, bound: 0.24, gated: true},
	{name: "boundary_us_p50", unit: "us", better: lower, bound: 0.24, gated: true},
	{name: "cpu_us_per_epoch", unit: "us", better: lower, bound: 0.24, gated: true},
	{name: "allocs_per_epoch", unit: "count", better: lower, bound: 0.01, gated: true},
	{name: "alloc_bytes_per_epoch", unit: "B", better: lower, bound: 0.01, gated: true},
	{name: "peak_rss_mb", unit: "MiB", better: lower, bound: 0.20, gated: true},
	{name: "vpause_us_per_epoch", unit: "vus", better: lower, user: true, exact: true},
	{name: "wire_bytes_per_dirty_page", unit: "B", better: lower, user: true},
	{name: "incident_ms_p50", unit: "ms", better: lower, user: true},
	{name: "failed_share", unit: "ratio", better: lower, user: true, exact: true},

	// guestos
	{name: "guestos.work.us_per_epoch", unit: "us", better: lower},
	{name: "guestos.work.alloc_bytes_per_epoch", unit: "B", better: lower},
	{name: "guestos.clone_state.us_per_epoch", unit: "us", better: lower},
	{name: "guestos.clone_state.alloc_bytes_per_epoch", unit: "B", better: lower},
	{name: "guestos.boot.ms", unit: "ms", better: lower},
	// hv
	{name: "hv.create_domain.ms", unit: "ms", better: lower},
	{name: "hv.pause_suspend.us_per_epoch", unit: "us", better: lower},
	{name: "hv.harvest_dirty.us_per_epoch", unit: "us", better: lower},
	{name: "hv.resume.us_per_epoch", unit: "us", better: lower},
	{name: "hv.hypercalls.map_per_epoch", unit: "count", better: lower, exact: true},
	{name: "hv.hypercalls.unmap_per_epoch", unit: "count", better: lower, exact: true},
	{name: "hv.hypercalls.translate_per_epoch", unit: "count", better: lower, exact: true},
	{name: "hv.hypercalls.dirty_read_per_epoch", unit: "count", better: lower, exact: true},
	{name: "hv.hypercalls.event_config_per_epoch", unit: "count", better: lower, exact: true},
	{name: "hv.scancache.hit_ratio", unit: "ratio", better: higher, exact: true},
	{name: "hv.scancache.misses_per_epoch", unit: "count", better: lower, exact: true},
	{name: "hv.scancache.invalidate.us_per_epoch", unit: "us", better: lower},
	{name: "hv.dump_memory.ms", unit: "ms", better: lower},
	// mem
	{name: "mem.bitmap_scan.us_per_epoch", unit: "us", better: lower},
	{name: "mem.bitmap_scan.ns_per_guest_page", unit: "ns", better: lower},
	{name: "mem.dirty_pages_per_epoch", unit: "count", better: lower, exact: true},
	// vmi
	{name: "vmi.init_preprocess.ms", unit: "ms", better: lower},
	{name: "vmi.process_list.us", unit: "us", better: lower},
	{name: "vmi.pid_hash_list.us", unit: "us", better: lower},
	{name: "vmi.module_list.us", unit: "us", better: lower},
	{name: "vmi.syscall_table.us", unit: "us", better: lower},
	{name: "vmi.canary_table.us", unit: "us", better: lower},
	{name: "vmi.nodes_walked_per_epoch", unit: "count", better: lower, exact: true},
	{name: "vmi.bytes_read_per_epoch", unit: "B", better: lower, exact: true},
	{name: "vmi.memo.hit_ratio", unit: "ratio", better: higher, exact: true},
	{name: "vmi.memo.invalidate.us_per_epoch", unit: "us", better: lower},
	// detect
	{name: "detect.scan.us_per_epoch", unit: "us", better: lower},
	{name: "detect.scan.alloc_bytes_per_epoch", unit: "B", better: lower},
	{name: "detect.canaries_checked_per_epoch", unit: "count", better: lower, exact: true},
	{name: "detect.canary-overflow.us_per_epoch", unit: "us", better: lower},
	{name: "detect.malware-blacklist.us_per_epoch", unit: "us", better: lower},
	{name: "detect.syscall-integrity.us_per_epoch", unit: "us", better: lower},
	{name: "detect.hidden-process.us_per_epoch", unit: "us", better: lower},
	// checkpoint
	{name: "checkpoint.new.ms", unit: "ms", better: lower},
	{name: "checkpoint.commit.us_per_epoch", unit: "us", better: lower},
	{name: "checkpoint.commit.ns_per_dirty_page", unit: "ns", better: lower},
	{name: "checkpoint.commit.alloc_bytes_per_epoch", unit: "B", better: lower},
	{name: "checkpoint.scan.us_per_epoch", unit: "us", better: lower},
	{name: "checkpoint.undo.us_per_epoch", unit: "us", better: lower},
	{name: "checkpoint.memcopy.us_per_epoch", unit: "us", better: lower},
	{name: "checkpoint.diskcopy.us_per_epoch", unit: "us", better: lower},
	{name: "checkpoint.remote_ship.us_per_epoch", unit: "us", better: lower},
	{name: "checkpoint.cow.quiesce.us_per_epoch", unit: "us", better: lower},
	{name: "checkpoint.cow.armed_per_epoch", unit: "count", better: lower, exact: true},
	{name: "checkpoint.cow.write_faults_per_epoch", unit: "count", better: lower, exact: true},
	// remus
	{name: "remus.send.us_per_epoch", unit: "us", better: lower},
	{name: "remus.send.ns_per_page", unit: "ns", better: lower},
	{name: "remus.wire_bytes_per_epoch", unit: "B", better: lower, exact: true},
	{name: "remus.raw_bytes_per_epoch", unit: "B", better: lower, exact: true},
	{name: "remus.pages.raw_share", unit: "ratio", better: lower, exact: true},
	{name: "remus.pages.delta_share", unit: "ratio", better: higher, exact: true},
	{name: "remus.pages.same_share", unit: "ratio", better: higher, exact: true},
	{name: "remus.pages.dup_share", unit: "ratio", better: higher, exact: true},
	{name: "remus.pages.zero_share", unit: "ratio", better: higher, exact: true},
	// netbuf
	{name: "netbuf.release.us_per_epoch", unit: "us", better: lower},
	{name: "netbuf.release.alloc_bytes_per_epoch", unit: "B", better: lower},
	{name: "netbuf.outputs_per_epoch", unit: "count", better: higher, exact: true},
	// analyze / volatility
	{name: "analyze.capture_dumps.ms", unit: "ms", better: lower},
	{name: "analyze.replay_pinpoint.ms", unit: "ms", better: lower},
	{name: "analyze.ops_replayed", unit: "count", better: lower, exact: true},
	{name: "analyze.postmortem.ms", unit: "ms", better: lower},
	{name: "volatility.render.ms", unit: "ms", better: lower},
	// core
	{name: "core.new.ms", unit: "ms", better: lower},
	{name: "core.overhead.us_per_epoch", unit: "us", better: lower},
	// fleet
	{name: "fleet.new.ms", unit: "ms", better: lower},
	{name: "fleet.gate_wait.us_per_epoch", unit: "us", better: lower},
	{name: "fleet.vm_skew_ratio", unit: "ratio", better: lower},
	// cluster
	{name: "cluster.new.ms", unit: "ms", better: lower},
	{name: "cluster.round.us_p50", unit: "us", better: lower},
	{name: "cluster.round.us_p95", unit: "us", better: lower},
	{name: "cluster.failover.ms_mean", unit: "ms", better: lower},
	{name: "cluster.failover.promotions", unit: "count", better: lower, exact: true},
	{name: "cluster.failover.rearms", unit: "count", better: lower, exact: true},
	// obs
	{name: "obs.overhead_ratio", unit: "ratio", better: higher},
	// cost: measured ns over the cost.Model constant for the same count
	{name: "cost.ratio.memcopy_per_page", unit: "ratio", better: lower},
	{name: "cost.ratio.bitmap_scan_per_page", unit: "ratio", better: lower},
	{name: "cost.ratio.vmi_per_node", unit: "ratio", better: lower},
	{name: "cost.ratio.canary_check", unit: "ratio", better: lower},
	// trace
	{name: "trace.coverage", unit: "ratio", better: higher},
	{name: "trace.overhead_ratio", unit: "ratio", better: lower},
	{name: "trace.fidelity", unit: "count", better: higher, exact: true},
	// tail: reported, never gated
	{name: "tail.boundary_us_p95", unit: "us", better: lower},
	{name: "tail.boundary_us_p99", unit: "us", better: lower},
	{name: "tail.boundary_us_max", unit: "us", better: lower},
	{name: "tail.gc_cycles", unit: "count", better: lower},
	{name: "tail.gc_pause_us_total", unit: "us", better: lower},
}

var catalogueIndex = func() map[string]int {
	m := make(map[string]int, len(catalogue))
	for i, d := range catalogue {
		if _, dup := m[d.name]; dup {
			panic("bench: duplicate metric " + d.name)
		}
		m[d.name] = i
	}
	return m
}()

// sample is one reported value with its sample count.
type sample struct {
	value float64
	n     int
}

// result is what one run of one workload produced.
type result struct {
	workload string
	traced   bool
	metrics  map[string]sample
	checks   checker

	// Carried from the measured region to the traced run's derived
	// metrics; not printed: each segment's mean boundary and wall time,
	// and the region's overall epochs per second.
	segBoundaryNs []float64
	segWall       []time.Duration
	regionEPS     float64

	// print records every fingerprint input: same seed, same print.
	print fingerprint
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, metrics: make(map[string]sample)}
}

// set records a metric. Names outside the catalogue and double sets are
// programming errors: each metric is printed exactly once.
func (r *result) set(name string, v float64, n int) {
	if _, ok := catalogueIndex[name]; !ok {
		panic("bench: metric not in catalogue: " + name)
	}
	if _, dup := r.metrics[name]; dup {
		panic("bench: metric set twice: " + name)
	}
	r.metrics[name] = sample{v, n}
}

// keep drops the metrics a run computed but does not report in its mode.
func (r *result) keep(pred func(metricDef) bool) {
	for name := range r.metrics {
		if !pred(catalogue[catalogueIndex[name]]) {
			delete(r.metrics, name)
		}
	}
}

// names returns the recorded metric names in catalogue order.
func (r *result) names() []string {
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool { return catalogueIndex[out[i]] < catalogueIndex[out[j]] })
	return out
}

// render prints every recorded metric by name with its unit and sample
// count, then the check summary.
func (r *result) render(w io.Writer) {
	mode := "measured"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s)\n", r.workload, mode)
	for _, name := range r.names() {
		d := catalogue[catalogueIndex[name]]
		s := r.metrics[name]
		fmt.Fprintf(w, "  %-44s %16.4f %-6s n=%d\n", name, s.value, d.unit, s.n)
	}
	fmt.Fprintf(w, "  checks: %d attempted, %d failed\n", r.checks.attempted, r.checks.failed)
	for _, m := range r.checks.msgs {
		fmt.Fprintf(w, "  FAILED: %s\n", m)
	}
}
