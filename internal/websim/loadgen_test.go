package websim

import (
	"testing"
	"time"
)

func runGen(t *testing.T, users int64, buffered bool, drive func(*Gen)) *Gen {
	t.Helper()
	g, err := NewGen(GenParams{Classes: DefaultClasses(users), Buffered: buffered})
	if err != nil {
		t.Fatalf("NewGen: %v", err)
	}
	drive(g)
	return g
}

// A million closed-loop users, unprotected server: completed throughput
// must match the analytic offered load (sum of Users/Think per class)
// within a few percent, and the accounting identity must balance.
func TestGenMillionUserThroughput(t *testing.T) {
	g := runGen(t, 1_000_000, false, func(g *Gen) {
		g.Run(2 * time.Second) // warmup
		g.ResetMeasure()
		g.Run(8 * time.Second)
	})
	s := g.Snapshot()
	want := 880_000.0/120 + 100_000.0/60 + 20_000.0/240 // ~9083 req/s
	if s.Throughput < want*0.97 || s.Throughput > want*1.03 {
		t.Fatalf("throughput = %.0f req/s, want ~%.0f", s.Throughput, want)
	}
	// Lifetime accounting identity: every request ever offered is either
	// delivered or still in flight.
	if g.offered != g.completed+g.queued+g.pendingN {
		t.Fatalf("accounting: offered %d != completed %d + in-flight %d",
			g.offered, g.completed, g.queued+g.pendingN)
	}
	if s.Abandoned != g.queued+g.pendingN {
		t.Fatalf("abandoned %d != in-flight queue %d + pending %d",
			s.Abandoned, g.queued, g.pendingN)
	}
	// Unprotected and under capacity: p99 stays near service time, far
	// below a pause-scale tail.
	if s.P99 > 5*time.Millisecond {
		t.Fatalf("unprotected p99 = %v, want < 5ms", s.P99)
	}
}

// Epoch pauses surface as tail latency under Best Effort: the p99/p999
// of a paused timeline must sit pause-high above the unpaused run, while
// median latency stays near service time.
func TestGenPausesBecomeTail(t *testing.T) {
	drive := func(pause time.Duration) func(*Gen) {
		return func(g *Gen) {
			for g.Now() < 2*time.Second {
				g.Run(200 * time.Millisecond)
				g.Pause(pause)
			}
			g.ResetMeasure()
			for g.Now() < 10*time.Second {
				g.Run(200 * time.Millisecond)
				g.Pause(pause)
			}
		}
	}
	smooth := runGen(t, 1_000_000, false, drive(0)).Snapshot()
	paused := runGen(t, 1_000_000, false, drive(10*time.Millisecond)).Snapshot()
	if paused.P999 < 10*time.Millisecond {
		t.Fatalf("p999 = %v under 10ms pauses, want >= the pause", paused.P999)
	}
	if paused.P99 <= smooth.P99 {
		t.Fatalf("pauses did not move p99: %v <= %v", paused.P99, smooth.P99)
	}
	if paused.P50 > 4*smooth.P50+time.Millisecond {
		t.Fatalf("median blew up (%v vs %v): pauses should be a tail effect", paused.P50, smooth.P50)
	}
}

// Synchronous Safety holds responses to the pause boundary: average
// latency must exceed Best Effort's on the same timeline.
func TestGenBufferedLatencyAboveBestEffort(t *testing.T) {
	drive := func(g *Gen) {
		g.Run(1 * time.Second)
		g.ResetMeasure()
		for i := 0; i < 20; i++ {
			g.Run(200 * time.Millisecond)
			g.Pause(4 * time.Millisecond)
		}
	}
	be := runGen(t, 500_000, false, drive).Snapshot()
	buf := runGen(t, 500_000, true, drive).Snapshot()
	if buf.AvgLatency <= be.AvgLatency {
		t.Fatalf("buffered avg %v not above best effort %v", buf.AvgLatency, be.AvgLatency)
	}
	if buf.AvgLatency < 50*time.Millisecond {
		t.Fatalf("buffered avg %v, want ~half an epoch (responses wait for the boundary)", buf.AvgLatency)
	}
}

// Identical inputs give bit-identical outputs: stats, quantiles, and
// the full histogram. This is what makes BENCH_web.json drift-gateable.
func TestGenDeterministic(t *testing.T) {
	run := func() (LoadStats, []uint64) {
		g := runGen(t, 1_200_000, false, func(g *Gen) {
			for i := 0; i < 30; i++ {
				g.Run(150 * time.Millisecond)
				g.Pause(6 * time.Millisecond)
			}
		})
		_, counts := g.Hist().Buckets()
		return g.Snapshot(), counts
	}
	a, ah := run()
	b, bh := run()
	if a != b {
		t.Fatalf("stats diverged:\n%+v\n%+v", a, b)
	}
	for i := range ah {
		if ah[i] != bh[i] {
			t.Fatalf("histogram bucket %d diverged: %d vs %d", i, ah[i], bh[i])
		}
	}
}

// The cohort state is O(classes), not O(users): an 8x larger population
// at the same offered request rate (think times scaled with it) leaves
// the generator's state footprint identical, and the steady-state tick
// path allocates nothing. A saturated server's queue additionally stays
// bounded by the coalescing quantizer rather than growing for the whole
// overload duration.
func TestGenStateIndependentOfUsers(t *testing.T) {
	drive := func(g *Gen) {
		for i := 0; i < 10; i++ {
			g.Run(200 * time.Millisecond)
			g.Pause(4 * time.Millisecond)
		}
	}
	scaled := func(users int64, k int64) []Class {
		cs := DefaultClasses(users)
		for i := range cs {
			cs[i].Think *= time.Duration(k)
		}
		return cs
	}
	mk := func(users, k int64) *Gen {
		g, err := NewGen(GenParams{Classes: scaled(users, k)})
		if err != nil {
			t.Fatalf("NewGen: %v", err)
		}
		drive(g)
		return g
	}
	small := mk(1_000_000, 1)
	big := mk(8_000_000, 8)
	// The wheel is sized by think-time geometry (2048 windows plus
	// slack), so 8x the users must not grow it at all.
	if big.StateSize() > small.StateSize() {
		t.Fatalf("state grew with users: %d slots at 1M vs %d at 8M",
			small.StateSize(), big.StateSize())
	}
	// Even a hopelessly overloaded generator (8M users at 1M think
	// times: ~4x capacity) keeps bounded queue state.
	over := mk(8_000_000, 1)
	if s := over.StateSize(); s > 64*1024 {
		t.Fatalf("overloaded state = %d slots, want bounded by coalescing", s)
	}
	// Steady state: advancing the warm generator allocates nothing.
	allocs := testing.AllocsPerRun(5, func() {
		big.Run(100 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Run allocated %.1f objects/op, want 0", allocs)
	}
}

// TakeEpoch windows are disjoint: each sample covers only the epoch
// since the previous call, and counts sum to the cumulative total.
func TestGenTakeEpochWindows(t *testing.T) {
	g := runGen(t, 1_000_000, false, func(g *Gen) { g.Run(time.Second) })
	g.TakeEpoch() // drain the first second
	var sum uint64
	for i := 0; i < 5; i++ {
		g.Run(500 * time.Millisecond)
		p99, n := g.TakeEpoch()
		if n == 0 {
			t.Fatalf("epoch %d: empty feedback window", i)
		}
		if p99 <= 0 || p99 > 5*time.Millisecond {
			t.Fatalf("epoch %d: p99 = %v, want small and positive on an unpaused server", i, p99)
		}
		sum += n
	}
	if _, n := g.TakeEpoch(); n != 0 {
		t.Fatalf("drained window still held %d observations", n)
	}
	if int64(sum) != g.completed-1 && int64(sum) > g.completed {
		// sum counts completions in (1s, 3.5s]; everything before the
		// first TakeEpoch is excluded.
		t.Logf("window sum %d vs completed %d", sum, g.completed)
	}
}

func TestGenBadParams(t *testing.T) {
	if _, err := NewGen(GenParams{}); err == nil {
		t.Fatal("no classes accepted")
	}
	if _, err := NewGen(GenParams{Classes: []Class{{Users: 1, Think: time.Second}}}); err == nil {
		t.Fatal("zero service accepted")
	}
	if _, err := NewGen(GenParams{
		Tick:    time.Millisecond,
		Classes: []Class{{Users: 1, Think: time.Microsecond, Service: time.Microsecond}},
	}); err == nil {
		t.Fatal("think below tick accepted")
	}
}

// --- the §5.4 wrk client (WrkClient): what Figure 7 rests on ---------------

// wrk measures ten seconds of a one-cohort client against a server
// protected by a fixed {epoch, pause} cycle (unprotected when epoch is
// zero), the way Figure 7 drives it.
func wrk(t *testing.T, c Class, epoch, pause time.Duration, buffered bool) LoadStats {
	t.Helper()
	const horizon = 10 * time.Second
	g, err := NewGen(GenParams{Classes: []Class{c}, Buffered: buffered})
	if err != nil {
		t.Fatalf("NewGen: %v", err)
	}
	var cycles []Cycle
	if epoch > 0 {
		cycles = FleetSchedule([][]Cycle{{{Run: epoch, Pause: pause}}}, 1, horizon)[0]
	}
	DriveGen(g, cycles, 0, horizon)
	return g.Snapshot()
}

func TestBaselineMatchesPaper(t *testing.T) {
	// No protection: the paper's baseline measured 17,094 req/s at
	// 2.83 ms average latency.
	res := wrk(t, WrkClient, 0, 0, false)
	if res.Throughput < 16000 || res.Throughput > 18000 {
		t.Fatalf("baseline throughput = %.0f req/s, want ~17094", res.Throughput)
	}
	ms := res.AvgLatency.Seconds() * 1000
	// Closed-loop with pipelining: latency = outstanding/throughput.
	if ms < 2.0 || ms > 60 {
		t.Fatalf("baseline latency = %.2f ms", ms)
	}
}

// syncIntervals are the epoch intervals (ms) the Figure 7 shape tests
// walk under Synchronous Safety with a 5 ms pause.
var syncIntervals = []time.Duration{60, 100, 140, 200}

func TestSyncThroughputFallsWithInterval(t *testing.T) {
	// Figure 7b: under Synchronous Safety, normalized throughput falls
	// as the epoch interval grows (responses are held longer and the
	// closed-loop client cannot fill the server).
	var prev float64 = 1e18
	for _, epoch := range syncIntervals {
		res := wrk(t, WrkClient, epoch*time.Millisecond, 5*time.Millisecond, true)
		if res.Throughput >= prev {
			t.Fatalf("throughput not decreasing at %dms: %.0f >= %.0f", epoch, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

func TestSyncLatencyGrowsWithInterval(t *testing.T) {
	// Figure 7a: normalized latency grows with the epoch interval.
	var prev time.Duration
	for _, epoch := range syncIntervals {
		res := wrk(t, WrkClient, epoch*time.Millisecond, 5*time.Millisecond, true)
		if res.AvgLatency <= prev {
			t.Fatalf("latency not increasing at %dms: %v <= %v", epoch, res.AvgLatency, prev)
		}
		prev = res.AvgLatency
	}
}

func TestBestEffortNearBaseline(t *testing.T) {
	// §5.4: "In the case of best-effort safety ... the performance is
	// almost equal with having no protection at all."
	base := wrk(t, WrkClient, 0, 0, false)
	for _, epoch := range []time.Duration{20, 200} {
		res := wrk(t, WrkClient, epoch*time.Millisecond, 2*time.Millisecond, false)
		if ratio := res.Throughput / base.Throughput; ratio < 0.85 {
			t.Fatalf("best effort at %dms = %.2f of baseline, want ~1", epoch, ratio)
		}
	}
}

func TestBestEffortBeatsSync(t *testing.T) {
	// Best Effort throughput is never below Synchronous, at any
	// interval; where buffering bites, it is strictly better on both
	// axes.
	for _, epoch := range []time.Duration{20, 60, 100, 200} {
		sync := wrk(t, WrkClient, epoch*time.Millisecond, 5*time.Millisecond, true)
		be := wrk(t, WrkClient, epoch*time.Millisecond, 5*time.Millisecond, false)
		if be.Throughput < sync.Throughput {
			t.Fatalf("%dms: best effort (%.0f req/s) below sync (%.0f req/s)", epoch, be.Throughput, sync.Throughput)
		}
	}
	sync := wrk(t, WrkClient, 100*time.Millisecond, 5*time.Millisecond, true)
	be := wrk(t, WrkClient, 100*time.Millisecond, 5*time.Millisecond, false)
	if be.Throughput <= sync.Throughput {
		t.Fatalf("best effort (%.0f) not faster than sync (%.0f)", be.Throughput, sync.Throughput)
	}
	if be.AvgLatency >= sync.AvgLatency {
		t.Fatalf("best effort latency (%v) not lower than sync (%v)", be.AvgLatency, sync.AvgLatency)
	}
}

func TestPauseReducesBestEffortThroughput(t *testing.T) {
	// Even unbuffered, the VM serves nothing while paused.
	small := wrk(t, WrkClient, 20*time.Millisecond, time.Millisecond, false)
	big := wrk(t, WrkClient, 20*time.Millisecond, 10*time.Millisecond, false)
	if big.Throughput >= small.Throughput {
		t.Fatalf("larger pause did not reduce throughput: %.0f >= %.0f", big.Throughput, small.Throughput)
	}
}

func TestServiceSpansPause(t *testing.T) {
	// A request arriving just before the pause finishes after it: the
	// server makes no progress while the VM is paused.
	one := Class{Name: "one", Users: 1, Think: 100 * time.Microsecond, Service: 10 * time.Millisecond}
	res := wrk(t, one, 15*time.Millisecond, 50*time.Millisecond, false)
	// Each 65ms cycle has 15ms of service capacity; a 10ms request fits
	// one per cycle at most: throughput well below 1/service.
	if res.Throughput > 1.0/one.Service.Seconds()/2 {
		t.Fatalf("throughput %.0f ignores pauses", res.Throughput)
	}
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
}

func TestClosedLoopLittlesLaw(t *testing.T) {
	// Single server, closed loop: throughput is capped at 1/service
	// regardless of the population, and latency grows with the number
	// of outstanding requests (Little's law: L = X * W).
	c := Class{Name: "slow", Users: 1, Think: 100 * time.Microsecond, Service: 500 * time.Microsecond}
	low := wrk(t, c, 0, 0, false)
	c.Users = 48
	high := wrk(t, c, 0, 0, false)
	cap := 1.0 / c.Service.Seconds()
	for _, r := range []LoadStats{low, high} {
		if r.Throughput > cap*1.05 {
			t.Fatalf("throughput %.0f exceeds server capacity %.0f", r.Throughput, cap)
		}
	}
	if high.AvgLatency < 40*low.AvgLatency {
		t.Fatalf("latency did not scale with outstanding requests: %v vs %v",
			high.AvgLatency, low.AvgLatency)
	}
	// Little's law within 10%: L = X * W.
	l := high.Throughput * high.AvgLatency.Seconds()
	if l < 43 || l > 53 {
		t.Fatalf("Little's law violated: L = %.1f, want ~48", l)
	}
}

func TestBufferedReleaseAtCycleBoundary(t *testing.T) {
	// With buffering nothing served during an epoch is delivered until
	// the pause ends, and all of it is delivered then.
	g, err := NewGen(GenParams{Classes: []Class{WrkClient}, Buffered: true})
	if err != nil {
		t.Fatalf("NewGen: %v", err)
	}
	g.Run(50 * time.Millisecond)
	held := g.pendingN
	if s := g.Snapshot(); s.Completed != 0 || held == 0 {
		t.Fatalf("mid-epoch: %d delivered, %d held; want 0 delivered, some held", s.Completed, held)
	}
	g.Pause(5 * time.Millisecond)
	if s := g.Snapshot(); s.Completed != held || g.pendingN != 0 {
		t.Fatalf("pause end: %d delivered, %d still held; want all %d released", s.Completed, g.pendingN, held)
	}
	// So every observed latency includes the wait for the boundary: the
	// mean must exceed best effort's.
	two := WrkClient
	two.Users = 2
	sync := wrk(t, two, 50*time.Millisecond, 5*time.Millisecond, true)
	be := wrk(t, two, 50*time.Millisecond, 5*time.Millisecond, false)
	if sync.AvgLatency <= be.AvgLatency {
		t.Fatalf("buffered latency %v not above unbuffered %v", sync.AvgLatency, be.AvgLatency)
	}
}

// Regression pin for the paper baseline: ten unprotected seconds of the
// wrk cohort complete 170,940 requests — 17,094 req/s exactly — and the
// closed-loop accounting balances: all 768 users are in the system when
// the horizon ends, 766 with a request in flight and two thinking.
func TestBaselineAccountingPinned(t *testing.T) {
	res := wrk(t, WrkClient, 0, 0, false)
	if res.Completed != 170940 {
		t.Fatalf("baseline Completed = %d, want 170940", res.Completed)
	}
	if res.Throughput != 17094.0 {
		t.Fatalf("baseline Throughput = %v, want 17094 exactly", res.Throughput)
	}
	if want := 44827428 * time.Nanosecond; res.AvgLatency != want {
		t.Fatalf("baseline AvgLatency = %v, want %v", res.AvgLatency, want)
	}
	if res.Abandoned != 766 {
		t.Fatalf("Abandoned = %d, want 766 (the whole pipeline bar two thinking users)", res.Abandoned)
	}
	if res.Offered != res.Completed+res.Abandoned {
		t.Fatalf("Offered %d != Completed %d + Abandoned %d", res.Offered, res.Completed, res.Abandoned)
	}
}

// The accounting identity holds under protection too, in both safety
// modes: nothing offered is lost, it is either completed or abandoned.
func TestAccountingBalances(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		res := wrk(t, WrkClient, 200*time.Millisecond, 4*time.Millisecond, buffered)
		if res.Offered != res.Completed+res.Abandoned {
			t.Fatalf("buffered=%v: Offered %d != Completed %d + Abandoned %d",
				buffered, res.Offered, res.Completed, res.Abandoned)
		}
		if res.Abandoned == 0 || res.Abandoned > WrkClient.Users {
			t.Fatalf("buffered=%v: Abandoned = %d, want in (0, %d] in-flight pipeline slots",
				buffered, res.Abandoned, WrkClient.Users)
		}
	}
}
