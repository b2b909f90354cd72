package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Boundary time, the definition every timing metric uses: for one VM,
// the wall time from the return of one epoch's work callback to the
// entry of that VM's next work callback. The harness owns the callback,
// so this is measured from outside for a bare controller, a fleet and a
// cluster alike.

// boundaryClock collects one driver's boundary samples, bucketed by
// measured-region segment. Each driver goroutine owns one; the segment
// index is only changed while no driver runs.
type boundaryClock struct {
	lastEnd time.Time
	entered time.Time
	seg     *int // shared current segment; -1 outside the measured region
	samples [segments][]int64
	workNs  int64 // time inside the work callback, measured region only
}

// enter is called on entry to the work callback.
func (c *boundaryClock) enter() {
	c.entered = time.Now()
	if c.lastEnd.IsZero() || *c.seg < 0 {
		return
	}
	c.samples[*c.seg] = append(c.samples[*c.seg], int64(c.entered.Sub(c.lastEnd)))
}

// leave is called when the work callback returns.
func (c *boundaryClock) leave() {
	c.lastEnd = time.Now()
	if *c.seg >= 0 {
		c.workNs += int64(c.lastEnd.Sub(c.entered))
	}
}

// cycleNs is the driver's mean epoch cycle (work plus boundary) over the
// measured region.
func (c *boundaryClock) cycleNs() float64 {
	var sum int64
	n := 0
	for _, s := range c.samples {
		n += len(s)
		for _, v := range s {
			sum += v
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum+c.workNs) / float64(n)
}

// reset forgets the pending work-return time, so the next enter does
// not record a sample (used across barriers that are not boundaries).
func (c *boundaryClock) reset() { c.lastEnd = time.Time{} }

// edge is the process-wide accounting at a segment edge.
type edge struct {
	t       time.Time
	cpu     time.Duration // user+sys of every thread: GC, CoW copier, shipper included
	mallocs uint64
	bytes   uint64
	numGC   uint32
	gcPause uint64
}

func takeEdge() edge {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return edge{
		t: time.Now(), cpu: cpuTime(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC, gcPause: ms.PauseTotalNs,
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// region is one measured region: each segment's opening and closing
// edge, clean VM-epochs per segment, and every driver's boundary clock.
// Segments need not be contiguous: the traced run does its own work
// between two segments of its reference pass.
type region struct {
	seg    int // current segment, shared with the clocks; -1 between segments
	start  [segments]edge
	stop   [segments]edge
	epochs [segments]int // clean committed VM-epochs
	clocks []*boundaryClock
}

func newRegion(drivers, samplesPerSeg int) *region {
	r := &region{seg: -1}
	for i := 0; i < drivers; i++ {
		c := &boundaryClock{seg: &r.seg}
		for s := range c.samples {
			c.samples[s] = make([]int64, 0, samplesPerSeg)
		}
		r.clocks = append(r.clocks, c)
	}
	return r
}

// begin opens segment s (0-based). The region starts from a collected
// heap so that GC pacing does not depend on how much garbage set-up left
// behind. The clocks are reset: whatever happened since the previous
// segment closed — the edge accounting itself, another pass — is not a
// boundary.
func (r *region) begin(s int) {
	if s == 0 {
		runtime.GC()
	}
	for _, c := range r.clocks {
		c.reset()
	}
	r.start[s] = takeEdge()
	r.seg = s
}

// end closes segment s.
func (r *region) end(s int) {
	r.stop[s] = takeEdge()
	r.seg = -1
}

// total is the region's clean committed VM-epochs.
func (r *region) total() int {
	n := 0
	for _, e := range r.epochs {
		n += e
	}
	return n
}

// segmentSamples merges every driver's samples of one segment, sorted.
func (r *region) segmentSamples(s int) []int64 {
	var all []int64
	for _, c := range r.clocks {
		all = append(all, c.samples[s]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// percentile of an ascending slice (nearest rank).
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum int64
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}

// quartileSegment picks, from one value per segment, the value of the
// segment a quarter of the way from the best to the worst: the third
// best of ten. Interference on a shared machine only ever slows a
// segment down, and during a noisy spell it slows more than half of
// them, so the median segment follows the neighbours; the best-quartile
// segment follows the code. It is not the best segment, so a cost that
// lands in most segments (a GC cycle, a slow shipment) still counts.
func quartileSegment(v []float64, better string) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := (len(s) - 1) / 4
	if better == higher {
		i = len(s) - 1 - i
	}
	return s[i]
}

// report turns the region into the timing, CPU and allocation metrics.
// Every gated timing metric is computed per segment and reported as the
// best-quartile segment.
func (r *region) report(out *result) {
	var eps, p50, cpu []float64
	var all []int64
	var wall time.Duration
	var mallocs, bytes, gcPause uint64
	var numGC uint32
	total := 0
	for s := 0; s < segments; s++ {
		a, b := r.start[s], r.stop[s]
		n := r.epochs[s]
		total += n
		wall += b.t.Sub(a.t)
		mallocs += b.mallocs - a.mallocs
		bytes += b.bytes - a.bytes
		numGC += b.numGC - a.numGC
		gcPause += b.gcPause - a.gcPause
		sm := r.segmentSamples(s)
		all = append(all, sm...)
		out.segBoundaryNs = append(out.segBoundaryNs, mean(sm))
		out.segWall = append(out.segWall, b.t.Sub(a.t))
		if n == 0 {
			continue
		}
		eps = append(eps, float64(n)/b.t.Sub(a.t).Seconds())
		cpu = append(cpu, float64((b.cpu-a.cpu).Microseconds())/float64(n))
		p50 = append(p50, percentile(sm, 0.50)/1e3)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	perSeg := len(all) / segments
	out.set("epochs_per_s", quartileSegment(eps, higher), total/segments)
	out.set("boundary_us_p50", quartileSegment(p50, lower), perSeg)
	out.set("cpu_us_per_epoch", quartileSegment(cpu, lower), total/segments)
	if total > 0 {
		out.set("allocs_per_epoch", float64(mallocs)/float64(total), total)
		out.set("alloc_bytes_per_epoch", float64(bytes)/float64(total), total)
	}
	out.set("tail.boundary_us_p95", percentile(all, 0.95)/1e3, len(all))
	out.set("tail.boundary_us_p99", percentile(all, 0.99)/1e3, len(all))
	out.set("tail.boundary_us_max", percentile(all, 1)/1e3, len(all))
	out.set("tail.gc_cycles", float64(numGC), 1)
	out.set("tail.gc_pause_us_total", float64(gcPause)/1e3, int(numGC))
	out.regionEPS = float64(total) / wall.Seconds()
}
