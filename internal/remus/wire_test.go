package remus

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/hv"
	"repro/internal/mem"
)

func newModeConduitPair(t *testing.T, pages int, mode Mode, budget int) (*hv.Hypervisor, *hv.Domain, *hv.Domain, *Conduit) {
	t.Helper()
	h := hv.New(2*pages + 4)
	primary, err := h.CreateDomain("primary", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	backup, err := h.CreateDomain("backup", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := NewConduitMode(h, backup, []byte("0123456789abcdef"), mode, budget)
	if err != nil {
		t.Fatalf("NewConduitMode: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return h, primary, backup, c
}

func domainPagesEqual(t *testing.T, a, b *hv.Domain, pages int) {
	t.Helper()
	pa := make([]byte, mem.PageSize)
	pb := make([]byte, mem.PageSize)
	for pfn := 0; pfn < pages; pfn++ {
		if err := a.ReadPhys(uint64(pfn)*mem.PageSize, pa); err != nil {
			t.Fatalf("ReadPhys a pfn %d: %v", pfn, err)
		}
		if err := b.ReadPhys(uint64(pfn)*mem.PageSize, pb); err != nil {
			t.Fatalf("ReadPhys b pfn %d: %v", pfn, err)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatalf("pfn %d differs between domains", pfn)
		}
	}
}

// The v2 modes must reproduce the primary exactly on the backup, for
// workloads exercising every record kind: fresh pages (raw), small
// rewrites (delta), unchanged pages (same), zero pages, and duplicated
// content (dup).
func TestModeFidelity(t *testing.T) {
	for _, mode := range []Mode{ModeDelta, ModeDeltaDedup} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const pages = 16
			h, primary, backup, c := newModeConduitPair(t, pages, mode, 0)
			rng := rand.New(rand.NewSource(7))
			all := make([]mem.PFN, pages)
			for i := range all {
				all[i] = mem.PFN(i)
			}
			page := make([]byte, mem.PageSize)
			// Initial sync: mostly zero pages, a few with content.
			for _, pfn := range []mem.PFN{1, 3} {
				rng.Read(page)
				if err := primary.WritePhys(uint64(pfn)*mem.PageSize, page); err != nil {
					t.Fatalf("WritePhys: %v", err)
				}
			}
			if err := c.SendCheckpoint(all, pageReader(h, primary)); err != nil {
				t.Fatalf("initial SendCheckpoint: %v", err)
			}
			// Epochs: small rewrites, duplicated pages, zeroed pages,
			// resends of unchanged pages.
			for e := 0; e < 5; e++ {
				if err := primary.WritePhys(1*mem.PageSize+100, []byte{byte(e), 1, 2, 3}); err != nil {
					t.Fatalf("WritePhys: %v", err)
				}
				src := make([]byte, mem.PageSize)
				if err := primary.ReadPhys(1*mem.PageSize, src); err != nil {
					t.Fatalf("ReadPhys: %v", err)
				}
				if err := primary.WritePhys(5*mem.PageSize, src); err != nil { // duplicate of page 1
					t.Fatalf("WritePhys: %v", err)
				}
				if e == 3 {
					if err := primary.WritePhys(3*mem.PageSize, make([]byte, mem.PageSize)); err != nil {
						t.Fatalf("WritePhys: %v", err)
					}
				}
				if err := c.SendCheckpoint([]mem.PFN{1, 3, 5, 7}, pageReader(h, primary)); err != nil {
					t.Fatalf("SendCheckpoint epoch %d: %v", e, err)
				}
			}
			domainPagesEqual(t, primary, backup, pages)
			s := c.Stats()
			if s.Batches != 6 || s.Pages != pages+5*4 {
				t.Fatalf("stats batches=%d pages=%d, want 6/%d", s.Batches, s.Pages, pages+5*4)
			}
			if s.WireBytes >= s.RawBytes {
				t.Fatalf("wire bytes %d not below raw bytes %d", s.WireBytes, s.RawBytes)
			}
			// The wire format is pinned: a codec change that moves one byte
			// of this stream is a protocol change, not an optimisation.
			if want := map[Mode]int64{ModeDelta: 74142, ModeDeltaDedup: 8608}[mode]; s.WireBytes != want {
				t.Fatalf("wire bytes = %d, want %d", s.WireBytes, want)
			}
			if s.DeltaPages == 0 {
				t.Fatal("no delta records emitted")
			}
			if mode == ModeDeltaDedup {
				if s.ZeroPages == 0 || s.DupPages == 0 || s.SamePages == 0 {
					t.Fatalf("dedup stats zero=%d dup=%d same=%d, want all > 0", s.ZeroPages, s.DupPages, s.SamePages)
				}
			}
			if got := s.RawPages + s.DeltaPages + s.SamePages + s.DupPages + s.ZeroPages; got != s.Pages {
				t.Fatalf("per-op pages sum %d != total pages %d", got, s.Pages)
			}
		})
	}
}

// Randomized fidelity across all three modes: whatever mix of writes,
// the backup must converge to the primary.
func TestModeFidelityRandom(t *testing.T) {
	for _, mode := range []Mode{ModeRaw, ModeDelta, ModeDeltaDedup} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const pages = 12
			h, primary, backup, c := newModeConduitPair(t, pages, mode, 0)
			rng := rand.New(rand.NewSource(42))
			for epoch := 0; epoch < 20; epoch++ {
				seen := map[mem.PFN]bool{}
				var pfns []mem.PFN
				for n := rng.Intn(6); n >= 0; n-- {
					pfn := mem.PFN(rng.Intn(pages))
					data := make([]byte, 1+rng.Intn(64))
					rng.Read(data)
					off := rng.Intn(mem.PageSize - len(data))
					if err := primary.WritePhys(uint64(pfn)*mem.PageSize+uint64(off), data); err != nil {
						t.Fatalf("WritePhys: %v", err)
					}
					if !seen[pfn] {
						seen[pfn] = true
						pfns = append(pfns, pfn)
					}
				}
				if err := c.SendCheckpoint(pfns, pageReader(h, primary)); err != nil {
					t.Fatalf("SendCheckpoint: %v", err)
				}
			}
			domainPagesEqual(t, primary, backup, pages)
		})
	}
}

// A bounded shipped-version table evicts least-recently-shipped pages;
// an evicted page must transparently fall back to a raw record (no
// stale base, no corruption).
func TestVersionTableBudgetEviction(t *testing.T) {
	const pages = 8
	h, primary, backup, c := newModeConduitPair(t, pages, ModeDelta, 2)
	fill := func(pfn int, b byte) {
		page := bytes.Repeat([]byte{b}, mem.PageSize)
		if err := primary.WritePhys(uint64(pfn)*mem.PageSize, page); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	fill(0, 1)
	fill(1, 2)
	fill(2, 3)
	// Ships pages 0,1,2 raw; budget 2 keeps only {1,2}.
	if err := c.SendCheckpoint([]mem.PFN{0, 1, 2}, pageReader(h, primary)); err != nil {
		t.Fatalf("SendCheckpoint: %v", err)
	}
	base := c.Stats()
	if base.RawPages != 3 {
		t.Fatalf("first batch raw pages = %d, want 3", base.RawPages)
	}
	// Small rewrites everywhere: 1 and 2 still have bases (delta), 0
	// was evicted (raw again). 0 goes last so its table re-insertion
	// doesn't evict 1 or 2 before they are encoded.
	for pfn := 0; pfn < 3; pfn++ {
		if err := primary.WritePhys(uint64(pfn)*mem.PageSize+9, []byte{0xEE}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	if err := c.SendCheckpoint([]mem.PFN{1, 2, 0}, pageReader(h, primary)); err != nil {
		t.Fatalf("SendCheckpoint: %v", err)
	}
	now := c.Stats()
	if raw, delta := now.RawPages-base.RawPages, now.DeltaPages-base.DeltaPages; raw != 1 || delta != 2 {
		t.Fatalf("after eviction raw=%d delta=%d, want 1/2", raw, delta)
	}
	domainPagesEqual(t, primary, backup, pages)
}

// encode/apply round-trip over adversarial page pairs.
func TestEncodeApplyDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]byte, mem.PageSize)
	page := make([]byte, mem.PageSize)
	work := make([]byte, mem.PageSize)
	for trial := 0; trial < 200; trial++ {
		rng.Read(base)
		copy(page, base)
		// Sprinkle 0..40 mutations of 1..32 bytes.
		for n := rng.Intn(40); n > 0; n-- {
			l := 1 + rng.Intn(32)
			off := rng.Intn(mem.PageSize - l)
			for i := 0; i < l; i++ {
				page[off+i] = byte(rng.Intn(256))
			}
		}
		delta, ok := encodeDelta(nil, base, page)
		if !ok {
			continue // raw fallback; nothing to verify
		}
		if len(delta) >= mem.PageSize {
			t.Fatalf("accepted delta of %d bytes", len(delta))
		}
		copy(work, base)
		if err := applyDelta(work, delta); err != nil {
			t.Fatalf("applyDelta: %v", err)
		}
		if !bytes.Equal(work, page) {
			t.Fatal("delta round trip diverged")
		}
	}
	// Identical pages encode to an empty delta.
	copy(page, base)
	delta, ok := encodeDelta(nil, base, page)
	if !ok || len(delta) != 0 {
		t.Fatalf("identical pages: delta len=%d ok=%v, want empty/ok", len(delta), ok)
	}
	// A fully rewritten page must fall back to raw.
	for i := range page {
		page[i] = base[i] ^ 0xFF
	}
	if _, ok := encodeDelta(nil, base, page); ok {
		t.Fatal("full-page rewrite did not fall back to raw")
	}
}

// Satellite: one large epoch must not pin a maximum-sized send buffer
// for the conduit's lifetime.
func TestSendBufShrinksAfterLargeBatch(t *testing.T) {
	for _, mode := range []Mode{ModeRaw, ModeDelta} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const pages = 256
			h, primary, _, c := newModeConduitPair(t, pages, mode, 0)
			all := make([]mem.PFN, pages)
			for i := range all {
				all[i] = mem.PFN(i)
			}
			if err := c.SendCheckpoint(all, pageReader(h, primary)); err != nil {
				t.Fatalf("SendCheckpoint(all): %v", err)
			}
			c.mu.Lock()
			peak := cap(c.sendBuf)
			c.mu.Unlock()
			if peak < pages*mem.PageSize {
				t.Fatalf("peak cap %d unexpectedly small", peak)
			}
			// A small follow-up batch must release the peak capacity.
			if err := primary.WritePhys(0, []byte{1}); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
			if err := c.SendCheckpoint([]mem.PFN{0}, pageReader(h, primary)); err != nil {
				t.Fatalf("SendCheckpoint(small): %v", err)
			}
			c.mu.Lock()
			now := cap(c.sendBuf)
			c.mu.Unlock()
			if now >= peak {
				t.Fatalf("send buffer cap %d did not shrink from peak %d", now, peak)
			}
		})
	}
}

// Satellite: when the backup-side write fails, AwaitAck must surface
// the restore goroutine's terminal error, not a bare pipe error — and
// must not hang on the half-dead conduit.
func TestAwaitAckSurfacesRestoreError(t *testing.T) {
	for _, mode := range []Mode{ModeRaw, ModeDeltaDedup} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const pages = 4
			h := hv.New(2*pages + 4)
			primary, err := h.CreateDomain("primary", pages)
			if err != nil {
				t.Fatalf("CreateDomain: %v", err)
			}
			backup, err := h.CreateDomain("backup", pages)
			if err != nil {
				t.Fatalf("CreateDomain: %v", err)
			}
			c, err := NewConduitMode(h, backup, []byte("0123456789abcdef"), mode, 0)
			if err != nil {
				t.Fatalf("NewConduitMode: %v", err)
			}
			defer c.Close()
			if err := primary.WritePhys(0, []byte{7}); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
			// Kill the backup domain so the restore-side WritePhys fails.
			if err := h.DestroyDomain(backup.ID()); err != nil {
				t.Fatalf("DestroyDomain: %v", err)
			}
			if _, err := c.Send([]mem.PFN{0}, pageReader(h, primary)); err != nil {
				t.Fatalf("Send: %v", err)
			}
			err = c.AwaitAck()
			if err == nil {
				t.Fatal("AwaitAck succeeded against a destroyed backup")
			}
			if !errors.Is(err, hv.ErrBadState) {
				t.Fatalf("AwaitAck error %v does not wrap the restore cause (hv.ErrBadState)", err)
			}
		})
	}
}

// A batch that ends inside the restore side's read buffer — the sending
// host died mid-write — must not leave an ack waiter hanging on a
// half-read record: the restore loop records the truncation as the
// conduit's terminal error and tears its pipe ends down, and AwaitAck
// surfaces that cause.
func TestTruncatedBatchUnblocksAckWaiter(t *testing.T) {
	raw := bytes.Repeat([]byte{0xC3}, mem.PageSize)
	batch := fuzzBatch(fuzzRecord(1, opRaw, raw...), fuzzRecord(2, opRaw, raw...))
	for name, cut := range map[string]int{
		"in-record-header": 4 + 9 + mem.PageSize + 5,
		"in-raw-payload":   4 + 9 + mem.PageSize + 9 + 1000,
	} {
		cut := cut
		t.Run(name, func(t *testing.T) {
			const pages = 4
			h := hv.New(pages + 4)
			backup, err := h.CreateDomain("backup", pages)
			if err != nil {
				t.Fatalf("CreateDomain: %v", err)
			}
			c, err := NewConduitMode(h, backup, []byte("0123456789abcdef"), ModeDeltaDedup, 0)
			if err != nil {
				t.Fatalf("NewConduitMode: %v", err)
			}
			defer c.Close()
			wire := append([]byte(nil), batch[:cut]...)
			c.enc.XORKeyStream(wire, wire)
			if _, err := c.conn.Write(wire); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if err := c.conn.Close(); err != nil {
				t.Fatalf("Close sender side: %v", err)
			}
			err = c.AwaitAck()
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("AwaitAck error %v does not wrap the recorded truncation (io.ErrUnexpectedEOF)", err)
			}
			// Neither record was applied: the batch is exchanged whole or
			// not at all, so the complete record before the cut stays
			// staged with the cut one.
			got := make([]byte, mem.PageSize)
			for _, pfn := range []uint64{1, 2} {
				if err := backup.ReadPhys(pfn*mem.PageSize, got); err != nil || !bytes.Equal(got, make([]byte, mem.PageSize)) {
					t.Fatalf("pfn %d of a truncated batch applied (err=%v)", pfn, err)
				}
			}
		})
	}
}
