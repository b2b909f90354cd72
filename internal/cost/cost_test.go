package cost

import (
	"testing"
	"time"
)

// swaptionsCounts reproduces the Figure 4 configuration: a 1 GiB VM
// dirtying ~2200 pages in a 200 ms epoch.
func swaptionsCounts() Counts {
	return Counts{
		TotalPages:  1 << 30 / 4096,
		DirtyPages:  2200,
		BytesCopied: 2200 * 4096,
		VMINodes:    12,
		Canaries:    400,
	}
}

// pause prices one pause and drops the guest overhead, which is zero
// whenever ctx.CoW is off.
func pause(m Model, opt Optimization, c Counts, ctx PauseCtx) Phases {
	p, _ := m.Pause(opt, c, ctx)
	return p
}

func TestOptimizationOrdering(t *testing.T) {
	m := Default()
	c := swaptionsCounts()
	var prev time.Duration = 1 << 62
	for _, opt := range []Optimization{NoOpt, Memcpy, Premap, Full} {
		total := pause(m, opt, c, PauseCtx{}).Total()
		if total >= prev {
			t.Fatalf("%v pause %v not cheaper than previous %v", opt, total, prev)
		}
		prev = total
	}
}

func TestFigure4Calibration(t *testing.T) {
	m := Default()
	c := swaptionsCounts()
	noopt := pause(m, NoOpt, c, PauseCtx{}).Total()
	full := pause(m, Full, c, PauseCtx{}).Total()
	// Paper: 29.86 ms -> 10.21 ms (67% reduction). Accept +-20%.
	if got := noopt.Seconds() * 1000; got < 24 || got > 36 {
		t.Fatalf("No-opt pause = %.2f ms, want ~30", got)
	}
	if got := full.Seconds() * 1000; got < 8 || got > 13 {
		t.Fatalf("Full pause = %.2f ms, want ~10", got)
	}
	reduction := 1 - float64(full)/float64(noopt)
	if reduction < 0.55 || reduction > 0.8 {
		t.Fatalf("pause reduction = %.0f%%, want ~67%%", 100*reduction)
	}
}

func TestCopyDominatesNoOpt(t *testing.T) {
	// Paper: "Copying data from the primary to backup alone takes about
	// 70% of the total time spent in the paused state."
	m := Default()
	p := pause(m, NoOpt, swaptionsCounts(), PauseCtx{})
	share := float64(p.Copy) / float64(p.Total())
	if share < 0.6 || share > 0.85 {
		t.Fatalf("copy share = %.2f, want ~0.7", share)
	}
}

func TestBitscanOptimization(t *testing.T) {
	m := Default()
	c := swaptionsCounts()
	slow := pause(m, Premap, c, PauseCtx{}).Bitscan
	fast := pause(m, Full, c, PauseCtx{}).Bitscan
	if fast*5 > slow {
		t.Fatalf("word scan %v not much faster than bit scan %v", fast, slow)
	}
	// Paper: 2.7 ms -> 0.14 ms for the 1 GiB VM.
	if msv := slow.Seconds() * 1000; msv < 2 || msv > 4 {
		t.Fatalf("bit scan = %.2f ms, want ~2.7", msv)
	}
	if msv := fast.Seconds() * 1000; msv > 0.5 {
		t.Fatalf("word scan = %.2f ms, want ~0.15", msv)
	}
}

func TestMemcpyMapsBothVMs(t *testing.T) {
	m := Default()
	c := swaptionsCounts()
	memcpyMap := pause(m, Memcpy, c, PauseCtx{}).Map
	nooptMap := pause(m, NoOpt, c, PauseCtx{}).Map
	ratio := float64(memcpyMap) / float64(nooptMap)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("memcpy/no-opt map ratio = %.2f, want ~2 (maps both VMs)", ratio)
	}
	if premap := pause(m, Premap, c, PauseCtx{}).Map; premap >= nooptMap/10 {
		t.Fatalf("premap map cost %v not near-constant", premap)
	}
}

func TestSocketSaturation(t *testing.T) {
	m := Default()
	small := Counts{TotalPages: 1000, DirtyPages: 100, BytesCopied: 100 * 4096}
	big := Counts{TotalPages: 1000, DirtyPages: 100, BytesCopied: 100 * 4096 * 300}
	perByteSmall := float64(pause(m, NoOpt, small, PauseCtx{}).Copy) / float64(small.BytesCopied)
	perByteBig := float64(pause(m, NoOpt, big, PauseCtx{}).Copy) / float64(big.BytesCopied)
	if perByteBig <= perByteSmall {
		t.Fatal("socket path does not saturate with epoch size")
	}
	// The memcpy path must stay linear.
	mSmall := float64(pause(m, Full, small, PauseCtx{}).Copy) / float64(small.BytesCopied)
	mBig := float64(pause(m, Full, big, PauseCtx{}).Copy) / float64(big.BytesCopied)
	if mBig != mSmall {
		t.Fatal("memcpy path is not linear")
	}
}

func TestCanaryRateMatchesPaper(t *testing.T) {
	// §5.5: 90,000 canaries validated per millisecond -> ~11ns each.
	m := Default()
	perMs := 1e6 / m.CanaryCheckNs
	if perMs < 80000 || perMs > 100000 {
		t.Fatalf("canary rate = %.0f/ms, want ~90,000", perMs)
	}
}

func TestVMISetupCostsMatchTable3(t *testing.T) {
	m := Default()
	if m.VMIInitNs < 60e6 || m.VMIInitNs > 75e6 {
		t.Fatalf("VMI init = %.1f ms, want ~67", m.VMIInitNs/1e6)
	}
	if m.VMIPreprocessNs < 45e6 || m.VMIPreprocessNs > 60e6 {
		t.Fatalf("VMI preprocess = %.1f ms, want ~54", m.VMIPreprocessNs/1e6)
	}
}

func TestPhasesTotal(t *testing.T) {
	p := Phases{Suspend: 1, VMI: 2, Bitscan: 3, Map: 4, Copy: 5, Resume: 6}
	if p.Total() != 21 {
		t.Fatalf("Total = %d", p.Total())
	}
}

func TestOptimizationStrings(t *testing.T) {
	for opt, want := range map[Optimization]string{
		NoOpt: "No-opt", Memcpy: "Memcpy", Premap: "Pre-map", Full: "Full",
	} {
		if opt.String() != want {
			t.Errorf("%d.String() = %q, want %q", opt, opt.String(), want)
		}
	}
}

func TestBitmapScanStandalone(t *testing.T) {
	m := Default()
	pages := 16 << 30 / 4096 // 16 GiB VM
	slow := m.BitmapScan(pages, pages/100, false)
	fast := m.BitmapScan(pages, pages/100, true)
	if fast >= slow {
		t.Fatal("optimized scan not faster")
	}
	// Figure 6b: tens of ms unoptimized at 16 GiB.
	if msv := slow.Seconds() * 1000; msv < 20 || msv > 100 {
		t.Fatalf("16GiB bit scan = %.1f ms, want tens of ms", msv)
	}
}

func TestPremapStartupScalesWithVMSize(t *testing.T) {
	m := Default()
	if m.Setup(Full, 2000) <= m.Setup(Full, 1000) {
		t.Fatal("premap startup not increasing with pages")
	}
	if vmi := ns(m.VMIInitNs + m.VMIPreprocessNs); m.Setup(Memcpy, 1000) != vmi || m.Setup(Memcpy, 2000) != vmi {
		t.Fatal("setup below Premap is not the VMI init + preprocess alone")
	}
}

// TestCheckpointParallelSerialInvariant pins the reproduction
// guarantee: at one worker (or fewer) the parallel pricing is
// bit-identical to the serial path's, so Table 1 / Figure 3 / Figure 4
// are unaffected by the parallel pause path.
func TestCheckpointParallelSerialInvariant(t *testing.T) {
	m := Default()
	counts := Counts{TotalPages: 1 << 18, DirtyPages: 9000, BytesCopied: 9000 * 4096,
		VMINodes: 12, Canaries: 500, RemotePages: 9000}
	for _, opt := range []Optimization{NoOpt, Memcpy, Premap, Full} {
		want := pause(m, opt, counts, PauseCtx{})
		for _, w := range []int{-1, 0, 1} {
			if got := pause(m, opt, counts, PauseCtx{Workers: w}); got != want {
				t.Fatalf("%s workers=%d: %+v != serial %+v", opt, w, got, want)
			}
		}
	}
}

// TestCheckpointParallelSpeedup: on a copy-dominated 64 MiB dirty set
// the modeled pause shrinks at least 2x from 1 to 4 workers, the
// Amdahl speedup is monotone, and the remote ship leaves the pause.
func TestCheckpointParallelSpeedup(t *testing.T) {
	m := Default()
	const pages = 16384 // 64 MiB dirty
	counts := Counts{TotalPages: pages, DirtyPages: pages, BytesCopied: pages * 4096}
	p1 := pause(m, Full, counts, PauseCtx{Workers: 1}).Total()
	p4 := pause(m, Full, counts, PauseCtx{Workers: 4}).Total()
	if ratio := float64(p1) / float64(p4); ratio < 2 {
		t.Fatalf("4-worker pause speedup = %.2fx, want >= 2x (p1=%v p4=%v)", ratio, p1, p4)
	}
	if s2, s4 := m.Speedup(2), m.Speedup(4); !(1 < s2 && s2 < s4) {
		t.Fatalf("Speedup not monotone: s2=%.2f s4=%.2f", s2, s4)
	}
	remote := counts
	remote.RemotePages = pages
	if got := pause(m, Full, remote, PauseCtx{Workers: 4}); got != pause(m, Full, counts, PauseCtx{Workers: 4}) {
		t.Fatal("remote pages still charged inside the parallel pause window")
	}
}

// TestCheckpointContendedIdentity pins the fleet reproduction
// guarantee: with at most one concurrent checkpoint there is no
// contention, so the contended pricing is bit-identical to the
// uncontended one at every worker count — a one-VM fleet reproduces the
// single-VM numbers exactly.
func TestCheckpointContendedIdentity(t *testing.T) {
	m := Default()
	counts := Counts{TotalPages: 1 << 18, DirtyPages: 9000, BytesCopied: 9000 * 4096,
		VMINodes: 12, Canaries: 500}
	for _, opt := range []Optimization{NoOpt, Memcpy, Premap, Full} {
		for _, w := range []int{1, 2, 4, 8} {
			want := pause(m, opt, counts, PauseCtx{Workers: w})
			for _, conc := range []int{-1, 0, 1} {
				if got := pause(m, opt, counts, PauseCtx{Workers: w, Concurrent: conc}); got != want {
					t.Fatalf("%s workers=%d concurrent=%d: %+v != uncontended %+v",
						opt, w, conc, got, want)
				}
			}
		}
	}
}

// TestCheckpointContendedDegrades: splitting the pool across concurrent
// checkpoints can only slow each one down, monotonically in the number
// of contenders, and oversubscription (more VMs than workers) costs
// extra queueing on top of the serial floor.
func TestCheckpointContendedDegrades(t *testing.T) {
	m := Default()
	const pages = 16384
	counts := Counts{TotalPages: pages, DirtyPages: pages, BytesCopied: pages * 4096}
	const workers = 8
	prev := pause(m, Full, counts, PauseCtx{Workers: workers, Concurrent: 1}).Total()
	for _, conc := range []int{2, 4, 8, 16} {
		cur := pause(m, Full, counts, PauseCtx{Workers: workers, Concurrent: conc}).Total()
		if cur < prev {
			t.Fatalf("contended pause shrank at concurrency %d: %v < %v", conc, cur, prev)
		}
		prev = cur
	}
	// Pool fully divided (8 VMs on 8 workers) == each running serial.
	serial := pause(m, Full, counts, PauseCtx{Workers: 1}).Total()
	if got := pause(m, Full, counts, PauseCtx{Workers: workers, Concurrent: workers}).Total(); got != serial {
		t.Fatalf("fully divided pool %v != serial %v", got, serial)
	}
	// Oversubscribed (16 VMs on 8 workers) must exceed the serial floor.
	if got := pause(m, Full, counts, PauseCtx{Workers: workers, Concurrent: 16}).Total(); got <= serial {
		t.Fatalf("oversubscribed pause %v not above serial floor %v", got, serial)
	}
}

func TestScanCacheOverheadPricing(t *testing.T) {
	m := Default()

	if got := m.ScanCacheOverhead(ScanCacheCounts{}); got != 0 {
		t.Fatalf("zero counts priced at %v, want 0", got)
	}

	// The uncached baseline maps and unmaps every touched page each
	// epoch; the cached steady state pays hits plus a handful of misses
	// for the dirtied pages. Cached must price strictly cheaper.
	pages := 200
	uncached := m.ScanCacheOverhead(ScanCacheCounts{
		CacheMisses: pages,
		CacheUnmaps: pages,
	})
	cached := m.ScanCacheOverhead(ScanCacheCounts{
		CacheHits:   pages - 10,
		CacheMisses: 10,
		CacheUnmaps: 10,
		CacheSwept:  pages,
		MemoHits:    4,
	})
	if cached >= uncached {
		t.Fatalf("cached overhead %v >= uncached %v", cached, uncached)
	}

	// A miss prices exactly one MapPage; a drop exactly one UnmapPage.
	one := m.ScanCacheOverhead(ScanCacheCounts{CacheMisses: 1, CacheUnmaps: 1})
	if want := ns(m.MapPageNs + m.UnmapPageNs); one != want {
		t.Fatalf("miss+unmap priced at %v, want %v", one, want)
	}
}

func TestScanCacheCountsAdd(t *testing.T) {
	a := ScanCacheCounts{CacheHits: 1, CacheMisses: 2, CacheUnmaps: 3, CacheSwept: 4, MemoHits: 5, MemoMisses: 6}
	b := a
	b.Add(a)
	want := ScanCacheCounts{CacheHits: 2, CacheMisses: 4, CacheUnmaps: 6, CacheSwept: 8, MemoHits: 10, MemoMisses: 12}
	if b != want {
		t.Fatalf("Add = %+v, want %+v", b, want)
	}
}

// pinCounts is the operation-count set the Pause table is pinned on: a
// 1 GiB VM, a 9000-page epoch, remote HA replication on.
var pinCounts = Counts{TotalPages: 1 << 18, DirtyPages: 9000, BytesCopied: 9000 * 4096,
	VMINodes: 12, Canaries: 500, RemotePages: 9000}

// TestPauseTable walks {opt} x {workers 1,4} x {concurrent 1,2,8} x
// {hosts 1,3} x {CoW off,on} and checks, in every cell, the identities
// the single entry point inherits from the delegation chain it replaced:
// workers <= 1 is the serial path, concurrent <= 1 the uncontended one,
// hosts <= 1 the single-host one; more hosts add exactly the cross-host
// ship; CoW with zero counts is the eager commit plus the arm base; and
// write faults are charged to the guest, never to the pause.
func TestPauseTable(t *testing.T) {
	m := Default()
	c := pinCounts
	cw := CoWCounts{ArmedPages: 4000, WriteFaults: 10, DrainPages: 100}
	for _, opt := range []Optimization{NoOpt, Memcpy, Premap, Full} {
		for _, w := range []int{1, 4} {
			for _, conc := range []int{1, 2, 8} {
				for _, hosts := range []int{1, 3} {
					for _, cow := range []bool{false, true} {
						ctx := PauseCtx{Workers: w, Concurrent: conc, Hosts: hosts, CoW: cow, Epoch: 200 * time.Millisecond}
						if cow {
							ctx.CoWCounts = cw
						}
						got, over := m.Pause(opt, c, ctx)
						same := func(what string, alt PauseCtx) {
							t.Helper()
							if p, o := m.Pause(opt, c, alt); p != got || o != over {
								t.Errorf("%v %+v: %s gives %+v/%v, want %+v/%v", opt, ctx, what, p, o, got, over)
							}
						}
						for _, d := range []int{0, -1} {
							if alt := ctx; w == 1 {
								alt.Workers = d
								same("degenerate workers", alt)
							}
							if alt := ctx; conc == 1 {
								alt.Concurrent = d
								same("degenerate concurrent", alt)
							}
							if alt := ctx; hosts == 1 {
								alt.Hosts = d
								same("degenerate hosts", alt)
							}
						}
						if hosts > 1 {
							alt := ctx
							alt.Hosts = 1
							want := pause(m, opt, c, alt)
							want.Copy += m.ReplicateCrossHost(c.DirtyPages, hosts)
							if got != want {
								t.Errorf("%v %+v: %+v, want single-host plus cross-host ship %+v", opt, ctx, got, want)
							}
						}
						if !cow {
							alt := ctx
							alt.CoWCounts = cw
							same("CoW counts with CoW off", alt)
							continue
						}
						if want := ns(m.CowFaultNs * float64(cw.WriteFaults)); over != want {
							t.Errorf("%v %+v: guest overhead %v, want %v", opt, ctx, over, want)
						}
						zero, eager := ctx, ctx
						zero.CoWCounts = CoWCounts{}
						eager.CoW = false
						want := pause(m, opt, c, eager)
						want.Copy += ns(m.CowArmBaseNs)
						if p, o := m.Pause(opt, c, zero); p != want || o != 0 {
							t.Errorf("%v %+v: zero CoW counts give %+v/%v, want eager plus arm base %+v", opt, ctx, p, o, want)
						}
					}
				}
			}
		}
	}
}

// TestPausePinned holds Pause to literal values captured at the parent
// commit from the delegation chain of five Checkpoint* methods it
// replaced (the cluster-level one for the eager rows, the CoW one for
// the CoW rows), so the fold is pinned independently of the BENCH
// artifacts.
func TestPausePinned(t *testing.T) {
	pin := pinCounts
	delta := pin
	delta.BytesCopied += 64 * 4096
	delta.DiskBlocks = 64
	delta.LocalRepl = ReplicationCounts{Batches: 1, Pages: 9000, RawPages: 1000, DeltaPages: 5000,
		SamePages: 3000, EncodedPages: 6000, WireBytes: 5 << 20, RawBytes: 9000 * 4096}
	delta.RemoteRepl = ReplicationCounts{Batches: 2, Pages: 9000, RawPages: 500, DeltaPages: 8500,
		EncodedPages: 9000, WireBytes: 3 << 20, RawBytes: 9000 * 4096}
	for i, row := range []struct {
		opt      Optimization
		c        Counts
		ctx      PauseCtx
		want     Phases
		overhead time.Duration
	}{
		{NoOpt, pin, PauseCtx{Workers: 1, Concurrent: 1, Hosts: 1}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 2621440, Map: 11750000, Copy: 226147200, Resume: 1500000}, 0},
		{Memcpy, pin, PauseCtx{Workers: 1, Concurrent: 1, Hosts: 1}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 2621440, Map: 23450000, Copy: 142564800, Resume: 1500000}, 0},
		{Premap, pin, PauseCtx{Workers: 4, Concurrent: 1, Hosts: 1}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 2621440, Map: 50000, Copy: 8558720, Resume: 1500000}, 0},
		{Full, pin, PauseCtx{Workers: 1, Concurrent: 1, Hosts: 1}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 212880, Map: 50000, Copy: 142564800, Resume: 1500000}, 0},
		{Full, pin, PauseCtx{Workers: 4, Concurrent: 1, Hosts: 1}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 141202, Map: 50000, Copy: 8558720, Resume: 1500000}, 0},
		{Full, pin, PauseCtx{Workers: 4, Concurrent: 2, Hosts: 1}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 151762, Map: 50000, Copy: 15522880, Resume: 1500000}, 0},
		{Full, pin, PauseCtx{Workers: 4, Concurrent: 8, Hosts: 1}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 425760, Map: 50000, Copy: 285129600, Resume: 1500000}, 0},
		{Full, pin, PauseCtx{Workers: 8, Concurrent: 1, Hosts: 3}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 195923, Map: 50000, Copy: 123301440, Resume: 1500000}, 0},
		{Full, pin, PauseCtx{Workers: 4, Concurrent: 8, Hosts: 3}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 425760, Map: 50000, Copy: 403294400, Resume: 1500000}, 0},
		{NoOpt, delta, PauseCtx{Workers: 1, Concurrent: 1, Hosts: 1}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 2621440, Map: 11750000, Copy: 60251500, Resume: 1500000}, 0},
		{NoOpt, pin, PauseCtx{Workers: 4, Concurrent: 8, Hosts: 3}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 5242880, Map: 11750000, Copy: 570459200, Resume: 1500000}, 0},
		{Memcpy, pin, PauseCtx{Workers: 4, Concurrent: 2, Hosts: 1}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 2621440, Map: 23450000, Copy: 15522880, Resume: 1500000}, 0},
		{NoOpt, delta, PauseCtx{Workers: 4, Concurrent: 1, Hosts: 3}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 2621440, Map: 11750000, Copy: 148057606, Resume: 1500000}, 0},
		{Full, pin, PauseCtx{Workers: 1, CoW: true, CoWCounts: CoWCounts{ArmedPages: 9000, WriteFaults: 750, DrainPages: 8000}, Epoch: 20 * time.Millisecond}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 212880, Map: 50000, Copy: 120418000, Resume: 1500000}, 6000000},
		{Premap, pin, PauseCtx{Workers: 4, CoW: true, CoWCounts: CoWCounts{ArmedPages: 4000, WriteFaults: 10, DrainPages: 100}, Epoch: 200 * time.Millisecond}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 2621440, Map: 50000, Copy: 5320399, Resume: 1500000}, 80000},
		{Full, pin, PauseCtx{Workers: 4, CoW: true, Epoch: 200 * time.Millisecond}, Phases{Suspend: 1000000, VMI: 329500, Bitscan: 141202, Map: 50000, Copy: 8608720, Resume: 1500000}, 0},
	} {
		if got, over := Default().Pause(row.opt, row.c, row.ctx); got != row.want || over != row.overhead {
			t.Errorf("row %d (%v %+v): %+v/%v, want %+v/%v", i, row.opt, row.ctx, got, over, row.want, row.overhead)
		}
	}
}

// TestPauseVMIAdjustments: what core.runEpoch used to do inline to the
// VMI phase — module concurrency, the async audit, scan-cache traffic —
// in the order it did it.
func TestPauseVMIAdjustments(t *testing.T) {
	m := Default()
	base := pause(m, Full, pinCounts, PauseCtx{Workers: 4})
	sc := ScanCacheCounts{CacheHits: 190, CacheMisses: 10, CacheUnmaps: 10, CacheSwept: 200, MemoHits: 4}
	for _, tc := range []struct {
		name string
		ctx  PauseCtx
		want time.Duration
	}{
		{"one module is a serial audit", PauseCtx{Workers: 4, AuditModules: 1}, base.VMI},
		{"one worker is a serial audit", PauseCtx{Workers: 1, AuditModules: 4}, base.VMI},
		{"modules bound the audit's concurrency", PauseCtx{Workers: 4, AuditModules: 2}, time.Duration(float64(base.VMI) / m.Speedup(2))},
		{"workers bound the audit's concurrency", PauseCtx{Workers: 4, AuditModules: 9}, time.Duration(float64(base.VMI) / m.Speedup(4))},
		{"async audit leaves the pause", PauseCtx{Workers: 4, AuditModules: 4, AsyncScan: true}, 0},
		{"scan cache adds its traffic after the split", PauseCtx{Workers: 4, AuditModules: 2, ScanCache: sc},
			time.Duration(float64(base.VMI)/m.Speedup(2)) + m.ScanCacheOverhead(sc)},
	} {
		got := pause(m, Full, pinCounts, tc.ctx)
		if got.VMI != tc.want {
			t.Errorf("%s: VMI = %v, want %v", tc.name, got.VMI, tc.want)
		}
		if want := pause(m, Full, pinCounts, PauseCtx{Workers: tc.ctx.Workers}); got.Total()-got.VMI != want.Total()-want.VMI {
			t.Errorf("%s: a VMI adjustment moved another phase", tc.name)
		}
	}
}

func TestRollbackAndResponse(t *testing.T) {
	m := Default()
	const memBytes = 512 * 4096
	if got, want := m.Rollback(memBytes), ns(m.MemcpyByteNs*memBytes); got != want {
		t.Fatalf("Rollback = %v, want a full-VM memcpy %v", got, want)
	}
	detect, replay, dump, toDisk := m.Response(12, 400, memBytes)
	if want := ns(m.SuspendNs + m.VMIScanBaseNs + m.VMIPerNodeNs*12 + m.CanaryCheckNs*400); detect != want {
		t.Fatalf("suspend-and-scan = %v, want %v", detect, want)
	}
	if want := detect + ns(m.MemcpyByteNs*memBytes+m.ResumeNs); replay != want {
		t.Fatalf("replay-ready = %v, want %v", replay, want)
	}
	if dump != ns(m.VolatilityDumpNs) || toDisk != ns(m.CheckpointToDiskNs) {
		t.Fatalf("dump = %v, to disk = %v", dump, toDisk)
	}
}
