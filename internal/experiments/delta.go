package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/guestos"
	"repro/internal/mem"
)

// Delta-replication benchmark shape. Like the CoW benchmark this runs
// the real controller: each sweep point fixes a dirty working set and a
// rewrite locality (a few bytes per page vs. full-page rewrites with
// epoch-fresh content) and drives the same deterministic guest under
// the three conduit wire protocols — raw full-page copies, XOR-delta
// encoding, and delta plus content-hash dedup. The artifact records
// steady-state wire bytes per epoch against the raw-protocol baseline
// plus the priced pause, so both the bandwidth cut and its pause-time
// consequence are regression-gated. Workers=1, Opt=NoOpt (every dirty
// page goes through the encrypted conduit), and a fixed seed keep the
// JSON byte-stable for the bench-drift gate.
const (
	deltaBenchPages  = 4096
	deltaBenchSeed   = 11
	deltaBenchEpochs = 6
	deltaBenchEpoch  = 100 * time.Millisecond
	// deltaWarmupEpochs are excluded from the steady-state aggregates:
	// the first epoch allocates the arena (dirtying it wholesale) and
	// the second ships the first stamped copies into the version table.
	deltaWarmupEpochs = 2
)

// deltaBenchSweep is the (working set, rewrite locality) grid: the
// dirty ratio sweeps ws/deltaBenchPages, and writeBytes selects small
// in-place stamps (delta-friendly) or full-page rewrites with content
// that never repeats (the raw-fallback worst case).
var deltaBenchSweep = []struct {
	ws         int
	writeBytes int
}{
	{64, 16},            // small writes, small set — the headline steady state
	{256, 16},           // small writes, medium set
	{1024, 16},          // small writes, large set
	{256, mem.PageSize}, // full rewrites, epoch-fresh content: raw fallback
}

// DeltaPoint compares one sweep point across the three wire protocols.
// Byte figures are steady-state averages per epoch; the raw baseline is
// what the v1 protocol ships for the identical page stream.
type DeltaPoint struct {
	WSSPages   int `json:"wss_pages"`
	WriteBytes int `json:"write_bytes"`
	// RawWireBytes is the v1 full-page protocol's bytes per epoch.
	RawWireBytes int64 `json:"raw_wire_bytes"`
	// DeltaWireBytes / DedupWireBytes are the v2 protocol's bytes per
	// epoch under delta and delta+dedup.
	DeltaWireBytes int64 `json:"delta_wire_bytes"`
	DedupWireBytes int64 `json:"dedup_wire_bytes"`
	// Reductions are 1 - wire/raw.
	DeltaReduction float64 `json:"delta_reduction"`
	DedupReduction float64 `json:"dedup_reduction"`
	// Steady-state per-epoch priced pause under each protocol.
	RawPauseMs   float64 `json:"raw_pause_ms"`
	DeltaPauseMs float64 `json:"delta_pause_ms"`
	DedupPauseMs float64 `json:"dedup_pause_ms"`
	// The dedup arm's per-opcode page mix across the steady state.
	Pages dedupPages `json:"dedup_pages"`
}

// dedupPages is the artifact's own schema for the dedup arm's counters:
// BENCH_remus.json has carried them under these names, in this order,
// zeros included, since it was first committed, and a counter added to
// (or a trace key renamed on) cost.ReplicationCounts must not move the
// file.
type dedupPages struct {
	Batches, Pages, RawPages, DeltaPages, SamePages, DupPages, ZeroPages, EncodedPages int
	WireBytes, RawBytes                                                                int64
}

// DeltaBench is the machine-readable delta-replication benchmark
// (BENCH_remus.json).
type DeltaBench struct {
	GuestPages int     `json:"guest_pages"`
	EpochMs    float64 `json:"epoch_ms"`
	Epochs     int     `json:"epochs"`
	Warmup     int     `json:"warmup_epochs"`
	// SmallWriteSteadyReduction is the headline figure: the delta+dedup
	// wire-byte cut at the small-write steady-state point. The
	// acceptance floor (>= 0.5) is asserted in delta_test.go.
	SmallWriteSteadyReduction float64      `json:"small_write_steady_reduction"`
	Points                    []DeltaPoint `json:"points"`
}

// deltaArmResult is one protocol arm's steady-state accounting.
type deltaArmResult struct {
	pauseMs float64 // avg virtual pause per steady-state epoch
	repl    cost.ReplicationCounts
	steady  int
}

// runDeltaArm drives deltaBenchEpochs epochs of the sweep-point
// workload under one wire protocol and returns steady-state averages.
func runDeltaArm(ws, writeBytes int, mode core.RemusMode) (*deltaArmResult, error) {
	cfg := serialConfig(deltaBenchEpoch)
	cfg.Opt = cost.NoOpt // every dirty page goes through the conduit
	cfg.Remus = mode
	var (
		pid   uint32
		arena uint64
		err   error
	)
	buf := make([]byte, writeBytes)
	work := func(g *guestos.Guest, e int, _ time.Duration) error {
		if e == 1 {
			if pid, err = g.StartProcess("deltabench", 1000, ws+3); err != nil {
				return err
			}
			if arena, err = g.Malloc(pid, ws*mem.PageSize-64); err != nil {
				return err
			}
		}
		// Full-page writes land at arena+8, so each one spills 8 bytes
		// into the next page; stop one page short so the last write
		// stays inside the allocation instead of smashing its canary.
		pmax := ws
		if writeBytes >= mem.PageSize {
			pmax = ws - 1
		}
		for p := 0; p < pmax; p++ {
			// The stamp keys on the page *pair*, so neighboring pages
			// carry identical content (cross-page dups for the dedup
			// arm); every fourth page takes an epoch-independent
			// stamp, so it is dirtied but unchanged after the first
			// write (the unchanged-content case). Full-page rewrites
			// instead key on (epoch, page): content never repeats, so
			// deltas cannot compress and the encoder must fall back
			// to raw.
			v := uint64(e)<<32 | uint64(p/2)
			if writeBytes >= mem.PageSize {
				v = uint64(e)<<32 | uint64(p)
			} else if p%4 == 3 {
				v = uint64(p / 2)
			}
			for i := range buf {
				buf[i] = byte(v >> (8 * (i % 8)))
				if writeBytes >= mem.PageSize {
					// Scramble every byte with the epoch so successive
					// rewrites share nothing: the XOR delta is a full-
					// page literal and the encoder must fall back to
					// shipping the raw page.
					buf[i] ^= byte(i*31 + e*131)
				}
			}
			if err := g.WriteUser(pid, arena+uint64(p)*mem.PageSize+8, buf); err != nil {
				return err
			}
		}
		return nil
	}
	out := &deltaArmResult{}
	err = runEpochs(fmt.Sprintf("delta bench (ws=%d wb=%d mode=%v)", ws, writeBytes, mode), deltaBenchPages, deltaBenchSeed, cfg,
		deltaBenchEpochs, deltaWarmupEpochs, work, func(res *core.EpochResult) {
			out.steady++
			out.pauseMs += ms(res.Phases.Total())
			out.repl.Add(res.Replication)
		})
	if err != nil {
		return nil, err
	}
	out.pauseMs /= float64(out.steady)
	return out, nil
}

// DeltaSweep runs the three protocol arms across the sweep grid and
// assembles the benchmark.
func DeltaSweep() (*DeltaBench, error) {
	bench := &DeltaBench{
		GuestPages: deltaBenchPages,
		EpochMs:    ms(deltaBenchEpoch),
		Epochs:     deltaBenchEpochs,
		Warmup:     deltaWarmupEpochs,
	}
	for _, sp := range deltaBenchSweep {
		raw, err := runDeltaArm(sp.ws, sp.writeBytes, core.RemusRaw)
		if err != nil {
			return nil, err
		}
		delta, err := runDeltaArm(sp.ws, sp.writeBytes, core.RemusDelta)
		if err != nil {
			return nil, err
		}
		dedup, err := runDeltaArm(sp.ws, sp.writeBytes, core.RemusDeltaDedup)
		if err != nil {
			return nil, err
		}
		n, r := int64(dedup.steady), dedup.repl
		p := DeltaPoint{
			WSSPages:   sp.ws,
			WriteBytes: sp.writeBytes,
			// The raw baseline comes from the v2 arms' RawBytes counter,
			// which prices the identical page stream at v1 framing.
			RawWireBytes:   dedup.repl.RawBytes / n,
			DeltaWireBytes: delta.repl.WireBytes / n,
			DedupWireBytes: dedup.repl.WireBytes / n,
			DeltaReduction: delta.repl.Reduction(),
			DedupReduction: dedup.repl.Reduction(),
			RawPauseMs:     raw.pauseMs,
			DeltaPauseMs:   delta.pauseMs,
			DedupPauseMs:   dedup.pauseMs,
			Pages: dedupPages{r.Batches, r.Pages, r.RawPages, r.DeltaPages, r.SamePages, r.DupPages,
				r.ZeroPages, r.EncodedPages, r.WireBytes, r.RawBytes},
		}
		bench.Points = append(bench.Points, p)
	}
	bench.SmallWriteSteadyReduction = bench.Points[0].DedupReduction
	return bench, nil
}

// deltaTable is the "delta" experiment's layout.
var deltaTable = table[DeltaPoint]{
	{"wss-pages", -10, "%d", "wss_pages", "%d", func(p DeltaPoint) any { return p.WSSPages }},
	{"wr-bytes", 8, "%d", "write_bytes", "%d", func(p DeltaPoint) any { return p.WriteBytes }},
	{"raw-B", 12, "%d", "raw_wire_bytes", "%d", func(p DeltaPoint) any { return p.RawWireBytes }},
	{"delta-B", 12, "%d", "delta_wire_bytes", "%d", func(p DeltaPoint) any { return p.DeltaWireBytes }},
	{"dedup-B", 12, "%d", "dedup_wire_bytes", "%d", func(p DeltaPoint) any { return p.DedupWireBytes }},
	{"delta-cut", 9, "%v", "delta_reduction", "%.4f", func(p DeltaPoint) any { return percent(p.DeltaReduction) }},
	{"dedup-cut", 9, "%v", "dedup_reduction", "%.4f", func(p DeltaPoint) any { return percent(p.DedupReduction) }},
	{"raw-ms", 10, "%.3f", "raw_pause_ms", "%.3f", func(p DeltaPoint) any { return p.RawPauseMs }},
	{"dedup-ms", 10, "%.3f", "dedup_pause_ms", "%.3f", func(p DeltaPoint) any { return p.DedupPauseMs }},
}

// render is the "delta" text experiment: per-sweep-point wire bytes and
// pause under raw, delta, and delta+dedup replication.
func (bench *DeltaBench) render() *Result {
	s := newSheet(fmt.Sprintf(
		"Delta replication: steady-state wire bytes/epoch and pause vs dirty set and rewrite locality, %d-page guest",
		bench.GuestPages))
	deltaTable.header(s)
	deltaTable.rows(s, bench.Points...)
	fmt.Fprintf(&s.text, "small-write steady-state dedup cut: %.1f%%\n", 100*bench.SmallWriteSteadyReduction)
	return s.result("delta", "Delta replication: wire bytes vs dirty set and locality")
}
