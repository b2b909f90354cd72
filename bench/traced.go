package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/cost"
	"repro/internal/guestos"
	"repro/internal/obs"
	"repro/internal/remus"
)

// The traced run. End-to-end metrics are measured with tracing off; this
// is the separate run that produces the per-layer numbers. Its parts:
//
//  1. a reference pass: the measured run at a third of the length, whose
//     exact counters, boundary means and fingerprint the rest is held to;
//  2. the traced pass: the unrolled epoch (single-VM workloads, run
//     interleaved with the reference pass segment by segment) or the
//     real fleet/cluster driven one epoch at a time with the existing
//     obs.Observer attached, spans around every call;
//  3. a short side pass that brackets the same spans with ReadMemStats
//     and ships every epoch through a stand-alone conduit;
//  4. an observer pass: the measured run at a tenth of the length with
//     the Observer attached.
//
// The traced pass must reproduce the reference pass's per-epoch dirty
// counts, finding counts and final digests exactly (trace.fidelity), or
// its span numbers are not reported.

// sideEpochs is the length of the side pass.
const sideEpochs = 200

// discardObserver is the existing observability layer writing nowhere:
// full event encoding and metric updates, no I/O.
func discardObserver() *obs.Observer {
	return &obs.Observer{
		Trace:   obs.NewTracer(obs.NewJSONLSink(io.Discard)),
		Metrics: obs.NewRegistry(),
	}
}

// shortened returns the (already sized) workload at a fraction of its
// measured length, same warm-up, set up once.
func shortened(w workloadDef, fraction float64) workloadDef {
	t := w.sized(10 * fraction)
	t.warmup = w.warmup
	t.setups = 1
	return t
}

func third(w workloadDef) workloadDef { return shortened(w, 1.0/3) }
func tenth(w workloadDef) workloadDef { return shortened(w, 0.1) }

func runTraced(w workloadDef, opt options) (*result, error) {
	var out *result
	var recs []*recorder
	var err error
	switch w.kind {
	case kindFleet:
		out, recs, err = tracedFleet(w, opt.seed)
	case kindCluster:
		out, recs, err = tracedCluster(w, opt.seed)
	case kindIncident:
		out, recs, err = tracedIncident(w, opt.seed)
	default:
		out, recs, err = tracedSingle(w, opt.seed)
	}
	if err != nil {
		return nil, err
	}
	out.traced = true
	if err := writeSpans(opt.outDir, w.name, recs...); err != nil {
		return nil, err
	}
	return out, nil
}

// warmUnrolled launches an unrolled VM and runs its warm-up epochs.
func warmUnrolled(p vmParams, seed int64, warmup int, rec *recorder) (*unrolledVM, error) {
	u, err := launchUnrolled(p, seed, rec)
	if err != nil {
		return nil, err
	}
	for e := 0; e < warmup; e++ {
		if _, err := u.epoch(tagClean, nil, 0); err != nil {
			return nil, fmt.Errorf("unrolled warm-up epoch %d: %w", e+1, err)
		}
	}
	u.tot = unrolledTotals{}
	return u, nil
}

// timedEpochs runs `epochs` clean unrolled epochs, with the diagnostic
// walks on every diagEvery-th, and returns the wall time they took.
func (u *unrolledVM) timedEpochs(epochs, diagEvery int, print *fingerprint) (time.Duration, error) {
	start := time.Now()
	for e := 0; e < epochs; e++ {
		var diag diagMode
		if e%diagEvery == 0 {
			diag = diagWalks
		}
		o, err := u.epoch(tagClean, nil, diag)
		if err != nil {
			return 0, fmt.Errorf("unrolled epoch: %w", err)
		}
		if len(o.findings) > 0 {
			return 0, fmt.Errorf("unrolled epoch: unexpected findings %v", kinds(o.findings))
		}
		if print != nil {
			print.epoch(0, o.dirtyPages, 0)
		}
	}
	return time.Since(start), nil
}

// interleaved is the bookkeeping of a traced pass run segment by segment
// between the segments of its reference pass: where each segment's spans
// start and how long it took.
type interleaved struct {
	rec   *recorder
	first [segments + 1]int // span index where each segment starts
	wall  [segments]time.Duration
}

// segment runs one traced segment between two reference segments.
func (iv *interleaved) segment(s int, run func() (time.Duration, error)) error {
	iv.first[s] = len(iv.rec.spans)
	wall, err := run()
	iv.wall[s] = wall
	iv.first[s+1] = len(iv.rec.spans)
	return err
}

// compare holds the traced pass against the reference pass, segment by
// segment — each traced segment ran right after its reference segment,
// so machine noise hit both alike — and reports the median segment:
// trace.coverage (spans inside the boundary over the real boundary),
// core.overhead (their difference) and trace.overhead_ratio (wall time).
func (iv *interleaved) compare(out *result) {
	var coverage, overhead, slowdown []float64
	n := 0
	for s := 0; s < segments; s++ {
		b := iv.rec.aggregate(iv.first[s], iv.first[s+1])["boundary"]
		if b == nil || b.count == 0 || out.segBoundaryNs[s] == 0 {
			continue
		}
		n += b.count
		layers := float64(b.total-b.self) / float64(b.count)
		coverage = append(coverage, layers/out.segBoundaryNs[s])
		overhead = append(overhead, (out.segBoundaryNs[s]-layers)/1e3)
		slowdown = append(slowdown, iv.wall[s].Seconds()/out.segWall[s].Seconds())
	}
	out.set("trace.coverage", median(coverage), n)
	out.set("core.overhead.us_per_epoch", median(overhead), n)
	out.set("trace.overhead_ratio", median(slowdown), n)
}

// settle closes the unrolled VM and records its digests and output
// tallies the way singleVM.settleAndCheck does.
func (u *unrolledVM) settle(label string, out *result, print *fingerprint) error {
	if err := u.close(); err != nil {
		return err
	}
	if err := checkpointDigests(label, u.ckpt, &out.checks, print); err != nil {
		return err
	}
	print.load(u.load)
	out.checks.outputs(label+" (traced)", u.sent.snapshot(), u.deliv.got.snapshot())
	return nil
}

// tracedSingle is the traced run of a single-VM workload.
func tracedSingle(w workloadDef, seed int64) (*result, []*recorder, error) {
	t := third(w)
	rec := newRecorder(time.Now(), "guest", (t.epochs+t.warmup)*24)
	u, err := warmUnrolled(w.vm, seed, t.warmup, rec)
	if err != nil {
		return nil, nil, err
	}
	iv := &interleaved{rec: rec}
	print := newFingerprint()
	per := t.epochs / segments
	out, err := runSingle(t, seed, nil, func(s int) error {
		return iv.segment(s, func() (time.Duration, error) { return u.timedEpochs(per, w.diagEvery, &print) })
	})
	if err != nil {
		return nil, nil, fmt.Errorf("reference pass: %w", err)
	}
	tot := u.tot
	if err := u.settle(w.name, out, &print); err != nil {
		return nil, nil, err
	}
	if !setFidelity(out, &print) {
		return out, []*recorder{rec}, nil
	}
	setup := rec.aggregate(0, iv.first[0])
	out.set("vmi.init_preprocess.ms", ms(time.Duration(setup["vmi.init_preprocess"].total)), 1)
	out.set("checkpoint.new.ms", ms(time.Duration(setup["checkpoint.new"].total)), 1)
	layerMetrics(out, w.vm, rec.aggregate(iv.first[0], len(rec.spans)), tot)
	iv.compare(out)

	side, err := sidePass(w.vm, seed, t.warmup, min(sideEpochs, t.epochs), out)
	if err != nil {
		return nil, nil, err
	}
	o, err := runSingle(tenth(w), seed, discardObserver(), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("observer pass: %w", err)
	}
	out.set("obs.overhead_ratio", o.regionEPS/out.regionEPS, o.metrics["epochs_per_s"].n)
	return out, []*recorder{rec, side}, nil
}

// setFidelity compares the traced pass's fingerprint with the reference
// pass's and records trace.fidelity; a mismatch is a failed check.
func setFidelity(out *result, traced *fingerprint) bool {
	out.checks.attempted++
	if !out.print.equal(traced) {
		out.checks.fail("traced pass diverged from the reference pass: dirty %x vs %x, findings %d vs %d, digests %v vs %v",
			traced.Dirty, out.print.Dirty, traced.Findings, out.print.Findings, traced.Digests, out.print.Digests)
		out.set("trace.fidelity", 0, 1)
		return false
	}
	out.set("trace.fidelity", 1, 1)
	return true
}

// sidePass runs a fresh unrolled VM for the measurements that would
// disturb the timed pass: every span bracketed by ReadMemStats (the
// *.alloc_bytes_per_epoch metrics), and every epoch's dirty pages shipped
// through the stand-alone conduit (remus.send.* and the exact wire
// accounting).
func sidePass(p vmParams, seed int64, warmup, epochs int, out *result) (*recorder, error) {
	rec := newRecorder(time.Now(), "guest-side", (epochs+warmup)*24)
	u, err := warmUnrolled(p, seed, warmup, rec)
	if err != nil {
		return nil, fmt.Errorf("side pass: %w", err)
	}
	if err := u.openConduit(); err != nil {
		return nil, err
	}
	first := len(rec.spans)
	rec.allocs = true
	for e := 0; e < epochs; e++ {
		if _, err := u.epoch(tagClean, nil, diagShip); err != nil {
			return nil, fmt.Errorf("side pass epoch %d: %w", e+1, err)
		}
	}
	wire := u.conduit.Stats()
	tot := u.tot
	if err := u.close(); err != nil {
		return nil, err
	}
	agg := rec.aggregate(first, len(rec.spans))
	setAllocMetrics(out, agg)
	setShipMetrics(out, agg, tot, wire)
	return rec, nil
}

// setShipMetrics records the stand-alone conduit's timing and, for the
// delta wire modes, its exact stream accounting. (A raw-mode conduit
// keeps no stream statistics.)
func setShipMetrics(out *result, agg map[string]*spanStats, tot unrolledTotals, wire remus.StreamStats) {
	if st := agg["remus.send"]; st != nil && st.count > 0 && tot.sentPage > 0 {
		out.set("remus.send.us_per_epoch", float64(st.total)/float64(st.count)/1e3, st.count)
		out.set("remus.send.ns_per_page", float64(st.total)/float64(tot.sentPage), tot.sentPage)
	}
	if wire.Pages == 0 {
		return
	}
	pages, sends := float64(wire.Pages), float64(tot.diags)
	out.set("remus.wire_bytes_per_epoch", float64(wire.WireBytes)/sends, tot.diags)
	out.set("remus.raw_bytes_per_epoch", float64(wire.RawBytes)/sends, tot.diags)
	out.set("remus.pages.raw_share", float64(wire.RawPages)/pages, wire.Pages)
	out.set("remus.pages.delta_share", float64(wire.DeltaPages)/pages, wire.Pages)
	out.set("remus.pages.same_share", float64(wire.SamePages)/pages, wire.Pages)
	out.set("remus.pages.dup_share", float64(wire.DupPages)/pages, wire.Pages)
	out.set("remus.pages.zero_share", float64(wire.ZeroPages)/pages, wire.Pages)
	out.set("wire_bytes_per_dirty_page", float64(wire.WireBytes)/pages, wire.Pages)
}

// setAllocMetrics records the heap allocated inside each bracketed span,
// per call (one call per epoch).
func setAllocMetrics(out *result, agg map[string]*spanStats) {
	for _, layer := range []string{"guestos.work", "guestos.clone_state", "detect.scan", "checkpoint.commit", "netbuf.release"} {
		if st := agg[layer]; st != nil && st.count > 0 {
			out.set(layer+".alloc_bytes_per_epoch", float64(st.alloc)/float64(st.count), st.count)
		}
	}
}

// layerMetrics turns the timed unrolled epochs' spans and exact counters
// into the per-layer metrics.
func layerMetrics(out *result, p vmParams, agg map[string]*spanStats, tot unrolledTotals) {
	n := float64(tot.epochs)
	perEpoch := func(metric, span string) {
		if st := agg[span]; st != nil && tot.epochs > 0 {
			out.set(metric, float64(st.total)/1e3/n, tot.epochs)
		}
	}
	perCall := func(metric, span string, div float64) {
		if st := agg[span]; st != nil && st.count > 0 {
			out.set(metric, float64(st.total)/float64(st.count)/div, st.count)
		}
	}
	perEpoch("guestos.work.us_per_epoch", "guestos.work")
	perEpoch("guestos.clone_state.us_per_epoch", "guestos.clone_state")
	perEpoch("hv.pause_suspend.us_per_epoch", "hv.pause_suspend")
	perEpoch("hv.harvest_dirty.us_per_epoch", "hv.harvest_dirty")
	perEpoch("hv.resume.us_per_epoch", "hv.resume")
	perEpoch("hv.scancache.invalidate.us_per_epoch", "hv.scancache.invalidate")
	perEpoch("vmi.memo.invalidate.us_per_epoch", "vmi.memo.invalidate")
	perEpoch("detect.scan.us_per_epoch", "detect.scan")
	for _, m := range defaultModules() {
		perEpoch("detect."+m.Name()+".us_per_epoch", "detect."+m.Name())
	}
	perEpoch("checkpoint.commit.us_per_epoch", "checkpoint.commit")
	perEpoch("checkpoint.scan.us_per_epoch", "checkpoint.scan")
	perEpoch("checkpoint.undo.us_per_epoch", "checkpoint.undo")
	perEpoch("checkpoint.memcopy.us_per_epoch", "checkpoint.memcopy")
	perEpoch("checkpoint.diskcopy.us_per_epoch", "checkpoint.diskcopy")
	perEpoch("checkpoint.remote_ship.us_per_epoch", "checkpoint.remote_ship")
	perEpoch("checkpoint.cow.quiesce.us_per_epoch", "checkpoint.cow.quiesce")
	perEpoch("netbuf.release.us_per_epoch", "netbuf.release")
	perCall("hv.dump_memory.ms", "hv.dump_memory", 1e6)
	perCall("mem.bitmap_scan.us_per_epoch", "mem.bitmap_scan", 1e3)
	perCall("mem.bitmap_scan.ns_per_guest_page", "mem.bitmap_scan", float64(p.pages))
	perCall("vmi.process_list.us", "vmi.process_list", 1e3)
	perCall("vmi.pid_hash_list.us", "vmi.pid_hash_list", 1e3)
	perCall("vmi.module_list.us", "vmi.module_list", 1e3)
	perCall("vmi.syscall_table.us", "vmi.syscall_table", 1e3)
	perCall("vmi.canary_table.us", "vmi.canary_table", 1e3)
	if tot.epochs == 0 {
		return
	}

	out.set("mem.dirty_pages_per_epoch", float64(tot.dirtyPages)/n, tot.epochs)
	out.set("vmi.nodes_walked_per_epoch", float64(tot.nodes)/n, tot.epochs)
	out.set("vmi.bytes_read_per_epoch", float64(tot.bytesRead)/n, tot.epochs)
	out.set("detect.canaries_checked_per_epoch", float64(tot.canaries)/n, tot.epochs)
	out.set("netbuf.outputs_per_epoch", float64(tot.outputs)/n, tot.epochs)
	if reads := tot.cacheHits + tot.cacheMisses; reads > 0 {
		out.set("hv.scancache.hit_ratio", float64(tot.cacheHits)/float64(reads), reads)
		out.set("hv.scancache.misses_per_epoch", float64(tot.cacheMisses)/n, tot.epochs)
	}
	if walks := tot.memoHits + tot.memoMisses; walks > 0 {
		out.set("vmi.memo.hit_ratio", float64(tot.memoHits)/float64(walks), walks)
	}
	if p.core.CoW {
		out.set("checkpoint.cow.armed_per_epoch", float64(tot.armed)/n, tot.epochs)
		out.set("checkpoint.cow.write_faults_per_epoch", float64(tot.faults)/n, tot.epochs)
	}
	if st := agg["checkpoint.commit"]; st != nil && tot.dirtyPages > 0 {
		out.set("checkpoint.commit.ns_per_dirty_page", float64(st.total)/float64(tot.dirtyPages), tot.dirtyPages)
	}
	// The calibration table: measured cost over the cost.Model constant
	// for the same count.
	m := cost.Default()
	if st := agg["checkpoint.memcopy"]; st != nil && tot.dirtyPages > 0 {
		out.set("cost.ratio.memcopy_per_page",
			float64(st.total)/float64(tot.dirtyPages)/(m.MemcpyByteNs*4096), tot.dirtyPages)
	}
	if st := agg["mem.bitmap_scan"]; st != nil && st.count > 0 {
		model := float64(m.BitmapScan(p.pages, tot.diagDirty/st.count, true))
		out.set("cost.ratio.bitmap_scan_per_page", float64(st.total)/float64(st.count)/model, st.count)
	}
	if tot.diagNodes > 0 {
		walk := agg["vmi.process_list"].total + agg["vmi.pid_hash_list"].total + agg["vmi.module_list"].total
		out.set("cost.ratio.vmi_per_node", float64(walk)/float64(tot.diagNodes)/m.VMIPerNodeNs, tot.diagNodes)
	}
	if st := agg["detect.canary-overflow"]; st != nil && tot.canaries > 0 {
		out.set("cost.ratio.canary_check", float64(st.total)/float64(tot.canaries)/m.CanaryCheckNs, tot.canaries)
	}
}

// tracedIncident is the traced run of incident-forensics: every
// iteration assembled and driven through the unrolled epoch, interleaved
// with the reference pass segment by segment.
func tracedIncident(w workloadDef, seed int64) (*result, []*recorder, error) {
	t := third(w)
	rec := newRecorder(time.Now(), "guest", t.epochs*(w.cleanEpochs+1)*40)
	print := newFingerprint()
	var tracedChecks checker
	pass := &incidentPass{w: w, seed: seed, plan: newAttackPlan(seed), rec: rec, checks: &tracedChecks, print: &print, last: t.epochs - 1}
	iv := &interleaved{rec: rec}
	per := t.epochs / segments
	out, err := runIncident(t, seed, func(s int) error {
		return iv.segment(s, func() (time.Duration, error) { return pass.run(s*per, (s+1)*per) })
	})
	if err != nil {
		return nil, nil, fmt.Errorf("reference pass: %w", err)
	}
	out.checks.merge(tracedChecks)
	if !setFidelity(out, &print) {
		return out, []*recorder{rec}, nil
	}
	agg := rec.aggregate(0, len(rec.spans))
	iters := agg["checkpoint.new"].count
	out.set("vmi.init_preprocess.ms", ms(time.Duration(agg["vmi.init_preprocess"].total))/float64(iters), iters)
	out.set("checkpoint.new.ms", ms(time.Duration(agg["checkpoint.new"].total))/float64(iters), iters)
	layerMetrics(out, w.vm, agg, pass.tot)
	iv.compare(out)
	for metric, span := range map[string]string{
		"analyze.capture_dumps.ms":   "analyze.capture_dumps",
		"analyze.replay_pinpoint.ms": "analyze.replay_pinpoint",
		"analyze.postmortem.ms":      "analyze.postmortem",
		"volatility.render.ms":       "volatility.render",
	} {
		if st := agg[span]; st != nil {
			out.set(metric, float64(st.total)/float64(st.count)/1e6, st.count)
		}
	}
	if pass.pinned > 0 {
		out.set("analyze.ops_replayed", float64(pass.replayed)/float64(pass.pinned), pass.pinned)
	}

	side := newRecorder(time.Now(), "guest-side", 10*(w.cleanEpochs+1)*40)
	side.allocs = true
	var sideChecks checker
	sidePrint := newFingerprint()
	sp := &incidentPass{w: w, seed: seed, plan: newAttackPlan(seed), rec: side, checks: &sideChecks, print: &sidePrint, last: -1}
	if _, err := sp.run(0, min(10, t.epochs)); err != nil {
		return nil, nil, fmt.Errorf("side pass: %w", err)
	}
	sideAgg := side.aggregate(0, len(side.spans))
	setAllocMetrics(out, sideAgg)
	setShipMetrics(out, sideAgg, sp.tot, remus.StreamStats{})
	return out, []*recorder{rec, side}, nil
}

// incidentPass drives incident-forensics iterations through the
// unrolled epoch, checking each the way the measured run does.
type incidentPass struct {
	w      workloadDef
	seed   int64
	plan   *attackPlan
	rec    *recorder
	checks *checker
	print  *fingerprint
	last   int // the iteration whose final digests go into the fingerprint

	tot              unrolledTotals
	pinned, replayed int
}

// run drives iterations [from, to) and returns the wall time they took.
func (p *incidentPass) run(from, to int) (time.Duration, error) {
	start := time.Now()
	for it := from; it < to; it++ {
		label := fmt.Sprintf("traced iteration %d", it+1)
		u, err := launchUnrolled(p.w.vm, iterationSeed(p.seed, it), p.rec)
		if err != nil {
			return 0, err
		}
		for e := 0; e < p.w.cleanEpochs; e++ {
			diag := diagWalks
			if p.rec.allocs {
				diag = diagShip // the side pass
			}
			o, err := u.epoch(tagClean, nil, diag)
			if err != nil || len(o.findings) > 0 {
				return 0, fmt.Errorf("%s: clean epoch %d: findings %v, error %v", label, e+1, kinds(o.findings), err)
			}
			p.print.epoch(it, o.dirtyPages, 0)
		}
		var a attack
		family := p.plan.family(it)
		o, err := u.epoch(tagAttacked, func(g *guestos.Guest) error {
			var ierr error
			a, ierr = p.plan.inject(g, family, u.load.pid)
			return ierr
		}, 0)
		p.checks.incident(label, a, o.findings, o.pin, o.rendered, err)
		p.checks.outputs(label, u.sent.snapshot(), u.deliv.got.snapshot())
		p.print.epoch(it, 0, len(o.findings))
		p.print.load(u.load)
		if o.pin != nil {
			p.pinned++
			p.replayed += o.replayed
		}
		if it == p.last {
			if err := checkpointDigests("last", u.ckpt, nil, p.print); err != nil {
				return 0, err
			}
		}
		p.tot.add(u.tot)
		if err := u.close(); err != nil {
			return 0, err
		}
		runtime.GC() // the iteration-edge collection, see incident.go
	}
	return time.Since(start), nil
}
