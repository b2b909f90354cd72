package cost

import "fmt"

// The three counter sets below and hv.Hypercalls are the one declaration
// each of what an epoch counts: the producer fills the struct,
// core.EpochResult carries it, fleet.Stats sums it (Add), the reports
// print it (Summary), and each field's tags export it — json is its key
// in the trace event, series ("metric,label=value") its metric series,
// bound by obs.BindCounters. Adding a counter is one field line and its
// line in Add; obs.TestCounterSets fails on a field exported to only one
// of the two, or to neither without an entry in its not-exported list.
// (DESIGN.md, "Accounting: from counter to report".)

// ScanCacheCounts are the real scan-path cache operation counts one
// epoch's audit produced: page-cache traffic from hv.CachedMapping and
// walk-memo traffic from vmi.WalkMemo.
type ScanCacheCounts struct {
	CacheHits   int `json:"hits,omitempty" series:"crimes_scan_cache_total,op=hit"`              // page reads served by a live mapping
	CacheMisses int `json:"misses,omitempty" series:"crimes_scan_cache_total,op=miss"`           // page reads that performed a MapPage
	CacheUnmaps int `json:"unmaps,omitempty" series:"crimes_scan_cache_total,op=unmap"`          // mappings dropped (evicted, invalidated, or flushed)
	CacheSwept  int `json:"swept,omitempty" series:"crimes_scan_cache_total,op=sweep"`           // cached entries examined by invalidation sweeps
	MemoHits    int `json:"memo_hits,omitempty" series:"crimes_scan_cache_total,op=memo_hit"`    // structure walks answered from the memo
	MemoMisses  int `json:"memo_misses,omitempty" series:"crimes_scan_cache_total,op=memo_miss"` // structure walks that ran against guest memory
}

// Add accumulates another counter set into s.
func (s *ScanCacheCounts) Add(o ScanCacheCounts) {
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheUnmaps += o.CacheUnmaps
	s.CacheSwept += o.CacheSwept
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
}

// Summary renders the report line, ending in the caller's view of the
// live mapping footprint — or "" when the cache did no work, so a
// cache-off report is unchanged.
func (s ScanCacheCounts) Summary(live string) string {
	if s == (ScanCacheCounts{}) {
		return ""
	}
	rate := 0.0
	if reads := s.CacheHits + s.CacheMisses; reads > 0 {
		rate = 100 * float64(s.CacheHits) / float64(reads)
	}
	return fmt.Sprintf("scan cache: hits=%d misses=%d (%.1f%% hit) unmaps=%d swept=%d memo=%d/%d live=%s pages\n",
		s.CacheHits, s.CacheMisses, rate, s.CacheUnmaps, s.CacheSwept, s.MemoHits, s.MemoHits+s.MemoMisses, live)
}

// CoWCounts are the real copy-on-write commit counts one epoch
// produced. All three are deterministic functions of the guest's
// behavior, so CoW pricing is reproducible run to run.
type CoWCounts struct {
	ArmedPages  int `json:"armed,omitempty" series:"crimes_cow_total,op=armed"`              // dirty pages write-protected at this commit
	WriteFaults int `json:"write_faults,omitempty" series:"crimes_cow_total,op=write_fault"` // write faults taken on armed pages since the previous commit
	DrainPages  int `json:"drained,omitempty" series:"crimes_cow_total,op=drained"`          // previous commit's armed pages settled lazily (armed - faulted)
}

// Add accumulates another counter set into c.
func (c *CoWCounts) Add(o CoWCounts) {
	c.ArmedPages += o.ArmedPages
	c.WriteFaults += o.WriteFaults
	c.DrainPages += o.DrainPages
}

// Summary renders the report line, or "" when no CoW commit did work.
func (c CoWCounts) Summary() string {
	if c == (CoWCounts{}) {
		return ""
	}
	return fmt.Sprintf("cow: armed=%d write_faults=%d drained=%d\n", c.ArmedPages, c.WriteFaults, c.DrainPages)
}

// ReplicationCounts is the v2 (delta / delta+dedup) wire protocol's
// accounting: what a conduit sent, per batch or cumulatively, and what
// one epoch's replication cost. RawBytes is what the v1 protocol would
// have shipped for the same batches, so RawBytes-WireBytes is the
// protocol's saving. All fields stay zero on a raw-mode conduit.
// Batches, Pages and EncodedPages feed pricing only; the trace and the
// series carry the byte totals and the per-opcode page mix.
type ReplicationCounts struct {
	WireBytes    int64 `json:"wire_bytes,omitempty" series:"crimes_remus_bytes_total,kind=wire"` // bytes actually on the wire
	RawBytes     int64 `json:"raw_bytes,omitempty" series:"crimes_remus_bytes_total,kind=raw"`   // bytes the v1 raw protocol would have shipped
	Batches      int   `json:"-"`                                                                // checkpoint batches sent
	Pages        int   `json:"-"`                                                                // pages carried (each one content-hashed)
	RawPages     int   `json:"raw,omitempty" series:"crimes_remus_pages_total,op=raw"`           // full raw records
	DeltaPages   int   `json:"delta,omitempty" series:"crimes_remus_pages_total,op=delta"`       // XOR-delta records
	SamePages    int   `json:"same,omitempty" series:"crimes_remus_pages_total,op=same"`         // unchanged-page references
	DupPages     int   `json:"dup,omitempty" series:"crimes_remus_pages_total,op=dup"`           // cross-page duplicate references
	ZeroPages    int   `json:"zero,omitempty" series:"crimes_remus_pages_total,op=zero"`         // zero-page references
	EncodedPages int   `json:"-"`                                                                // pages run through the XOR encoder (deltas + raw fallbacks)
}

// Add accumulates another counter set into r.
func (r *ReplicationCounts) Add(o ReplicationCounts) {
	r.WireBytes += o.WireBytes
	r.RawBytes += o.RawBytes
	r.Batches += o.Batches
	r.Pages += o.Pages
	r.RawPages += o.RawPages
	r.DeltaPages += o.DeltaPages
	r.SamePages += o.SamePages
	r.DupPages += o.DupPages
	r.ZeroPages += o.ZeroPages
	r.EncodedPages += o.EncodedPages
}

// Reduction is the fraction of raw bytes the wire protocol saved
// (0 when nothing was shipped).
func (r ReplicationCounts) Reduction() float64 {
	if r.RawBytes == 0 {
		return 0
	}
	return 1 - float64(r.WireBytes)/float64(r.RawBytes)
}

// Summary renders the report line, or "" when the v2 wire shipped
// nothing.
func (r ReplicationCounts) Summary() string {
	if r == (ReplicationCounts{}) {
		return ""
	}
	return fmt.Sprintf("replication: wire=%d raw=%d (%.1f%% cut) pages raw=%d delta=%d same=%d dup=%d zero=%d\n",
		r.WireBytes, r.RawBytes, 100*r.Reduction(), r.RawPages, r.DeltaPages, r.SamePages, r.DupPages, r.ZeroPages)
}
