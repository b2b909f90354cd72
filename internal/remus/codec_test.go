package remus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hv"
	"repro/internal/mem"
)

// refEncodeDelta is the byte-at-a-time encoder the word-parallel
// encodeDelta replaced, kept as the differential reference: the wire
// format is defined by what this loop emits.
func refEncodeDelta(dst, base, page []byte) (_ []byte, ok bool) {
	pos, i := 0, 0
	for i < mem.PageSize {
		for i < mem.PageSize && page[i] == base[i] {
			i++
		}
		if i == mem.PageSize {
			break
		}
		start := i
		end := i + 1
		for j := i + 1; j < mem.PageSize; j++ {
			if page[j] != base[j] {
				end = j + 1
			} else if j-end+1 >= minGap {
				break
			}
		}
		dst = binary.AppendUvarint(dst, uint64(start-pos))
		dst = binary.AppendUvarint(dst, uint64(end-start))
		for k := start; k < end; k++ {
			dst = append(dst, page[k]^base[k])
		}
		if len(dst) >= mem.PageSize {
			return dst, false
		}
		pos, i = end, end
	}
	return dst, true
}

// refHashPage is hashPage with every word assembled a byte at a time:
// the hash must be a function of the bytes, not of how the platform
// loads words.
func refHashPage(p []byte) uint64 {
	word := func(b []byte) (w uint64) {
		for i := 7; i >= 0; i-- {
			w = w<<8 | uint64(b[i])
		}
		return w
	}
	v := [4]uint64{hashSeed, hashSeed + hashPrime1, hashSeed + hashPrime2, hashSeed + hashPrime3}
	n := uint64(len(p))
	for ; len(p) >= 32; p = p[32:] {
		for l := range v {
			v[l] = hashLane(v[l], word(p[8*l:]))
		}
	}
	rot := func(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }
	h := rot(v[0], 1) + rot(v[1], 7) + rot(v[2], 12) + rot(v[3], 18) + n
	for _, b := range p {
		h = rot(h^uint64(b)*hashPrime3, 11) * hashPrime1
	}
	h ^= h >> 33
	h *= hashPrime2
	h ^= h >> 29
	h *= hashPrime3
	h ^= h >> 32
	return h
}

func TestHashPage(t *testing.T) {
	if zeroHash != hashPage(zeroPage[:]) {
		t.Fatal("zeroHash is not the hash of the zero page")
	}
	rng := rand.New(rand.NewSource(11))
	page := make([]byte, mem.PageSize)
	rng.Read(page)
	for _, n := range []int{0, 1, 7, 8, 31, 32, 33, 63, 100, mem.PageSize - 1, mem.PageSize} {
		if got, want := hashPage(page[:n]), refHashPage(page[:n]); got != want {
			t.Fatalf("len %d: hashPage %#x != byte-wise reference %#x", n, got, want)
		}
	}
	// Every single-bit flip of a page must move the hash: a lane that
	// dropped input would show here as a run of collisions.
	want := hashPage(page)
	seen := map[uint64]bool{want: true}
	for i := 0; i < mem.PageSize; i++ {
		bit := byte(1) << uint(i%8)
		page[i] ^= bit
		h := hashPage(page)
		page[i] ^= bit
		if seen[h] {
			t.Fatalf("flipping a bit of byte %d collides (hash %#x)", i, h)
		}
		seen[h] = true
	}
	if hashPage(page) != want {
		t.Fatal("hashPage is not a pure function of the page bytes")
	}
}

// mutate XORs n bytes of page starting at off so that each differs from
// its previous value.
func mutate(page []byte, off, n int) {
	for i := off; i < off+n; i++ {
		page[i] ^= 0x5A
	}
}

// deltaCases builds the seeded (base, page) pairs the codec is held to.
func deltaCases() map[string][2][]byte {
	rng := rand.New(rand.NewSource(5))
	fresh := func() (base, page []byte) {
		base = make([]byte, mem.PageSize)
		rng.Read(base)
		return base, append([]byte(nil), base...)
	}
	cases := map[string][2][]byte{}
	add := func(name string, base, page []byte) { cases[name] = [2][]byte{base, page} }

	base, page := fresh()
	add("identical", base, page)

	// Runs starting and ending at every offset mod 8, at the page start,
	// mid-page and flush against the page end.
	for s := 0; s < 8; s++ {
		for l := 1; l <= 17; l++ {
			base, page = fresh()
			mutate(page, s, l)
			mutate(page, 2048+s, l)
			mutate(page, mem.PageSize-l-s, l)
			add(fmt.Sprintf("run/start%d/len%d", s, l), base, page)
		}
	}
	// Two changed bytes separated by an unchanged gap of minGap-1 (folds
	// into one literal), minGap and minGap+1 (two runs), the gap placed
	// at every offset across a word boundary.
	for gap := minGap - 1; gap <= minGap+1; gap++ {
		for at := 1000; at < 1000+16; at++ {
			base, page = fresh()
			mutate(page, at, 1)
			mutate(page, at+1+gap, 1)
			add(fmt.Sprintf("gap%d/at%d", gap, at), base, page)
		}
	}
	// A gap of minGap-1 at the very end of the page: the tail is shorter
	// than minGap, so the run ends at the last changed byte.
	base, page = fresh()
	mutate(page, mem.PageSize-minGap, 1)
	add("tail-gap", base, page)

	for off := 0; off < mem.PageSize; off += 509 {
		base, page = fresh()
		mutate(page, off, 1)
		add(fmt.Sprintf("stamp1/at%d", off), base, page)
		base, page = fresh()
		mutate(page, off&^7, 8)
		add(fmt.Sprintf("stamp8/at%d", off&^7), base, page)
	}

	// Full-random rewrite: nothing in common with the base, raw fallback.
	base, _ = fresh()
	_, page = fresh()
	add("random", base, page)
	// All but the page tail rewritten, as the benchmark's guest does.
	base, page = fresh()
	mutate(page, 0, mem.PageSize-128)
	add("random-usable", base, page)
	base, _ = fresh()
	add("zeroed", base, make([]byte, mem.PageSize))

	// One literal of L bytes encodes to 1+2+L bytes: L = PageSize-4 is the
	// largest accepted delta, L = PageSize-3 crosses the budget on its
	// last byte.
	for _, l := range []int{mem.PageSize - 5, mem.PageSize - 4, mem.PageSize - 3, mem.PageSize - 2} {
		base, page = fresh()
		mutate(page, 0, l)
		add(fmt.Sprintf("budget/one-run%d", l), base, page)
	}
	// The same edge crossed in a second run, where the budget left is what
	// the first run did not spend: 1+2+2000 bytes, then 1+2+l.
	for l := 2088; l <= 2092; l++ {
		base, page = fresh()
		mutate(page, 0, 2000)
		mutate(page, 2000+minGap, l)
		add(fmt.Sprintf("budget/two-runs%d", l), base, page)
	}

	// Seeded mutation soup.
	for trial := 0; trial < 300; trial++ {
		base, page = fresh()
		for n := rng.Intn(60); n > 0; n-- {
			l := 1 + rng.Intn(1+rng.Intn(200))
			off := rng.Intn(mem.PageSize - l)
			for i := 0; i < l; i++ {
				page[off+i] = byte(rng.Intn(256)) // may equal the base byte
			}
		}
		add(fmt.Sprintf("soup/%d", trial), base, page)
	}
	return cases
}

// The word-parallel encoder must emit exactly the bytes of the byte-wise
// reference (the wire format does not change), agree with it on every
// raw fallback, and round-trip through applyDelta.
func TestEncodeDeltaMatchesReference(t *testing.T) {
	accepted, rejected := 0, 0
	work := make([]byte, mem.PageSize)
	cases := deltaCases()
	for name, c := range cases {
		base, page := c[0], c[1]
		want, wantOK := refEncodeDelta(nil, base, page)
		got, ok := encodeDelta(nil, base, page)
		if ok != wantOK {
			t.Fatalf("%s: ok=%v, reference ok=%v (reference length %d)", name, ok, wantOK, len(want))
		}
		if !ok {
			rejected++
			continue
		}
		accepted++
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d-byte delta differs from the %d-byte reference", name, len(got), len(want))
		}
		copy(work, base)
		if err := applyDelta(work, got); err != nil {
			t.Fatalf("%s: applyDelta: %v", name, err)
		}
		if !bytes.Equal(work, page) {
			t.Fatalf("%s: applyDelta(encodeDelta) diverged", name)
		}
	}
	if accepted < 300 || rejected < 5 {
		t.Fatalf("cases cover %d deltas and %d raw fallbacks, want both well exercised", accepted, rejected)
	}
	// The largest accepted delta and the smallest rejected one sit one
	// literal byte apart.
	edge := func(name string) bool {
		_, ok := encodeDelta(nil, cases[name][0], cases[name][1])
		return ok
	}
	if !edge(fmt.Sprintf("budget/one-run%d", mem.PageSize-4)) || edge(fmt.Sprintf("budget/one-run%d", mem.PageSize-3)) {
		t.Fatal("literal budget edge moved: a PageSize-1 byte delta must be accepted, a PageSize byte one rejected")
	}
}

// A non-empty dst counts against the budget exactly as in the reference.
func TestEncodeDeltaAppends(t *testing.T) {
	c := deltaCases()["stamp8/at1016"]
	prefix := []byte{0xAA, 0xBB, 0xCC}
	want, wantOK := refEncodeDelta(append([]byte(nil), prefix...), c[0], c[1])
	got, ok := encodeDelta(append([]byte(nil), prefix...), c[0], c[1])
	if ok != wantOK || !bytes.Equal(got, want) {
		t.Fatalf("with a prefix: got %x ok=%v, want %x ok=%v", got, ok, want, wantOK)
	}
}

// benchPages builds a 522-page batch and its previous version with the
// wall-clock benchmark's rewrite mix: 50 % 8-byte stamp, 25 % rewritten
// with noise, 15 % copy of another page, 10 % zero-fill.
func benchPages(seed int64) (prev, next [][]byte) {
	const pages, usable = 522, mem.PageSize - 128
	rng := rand.New(rand.NewSource(seed))
	prev = make([][]byte, pages)
	next = make([][]byte, pages)
	for i := range prev {
		prev[i] = make([]byte, mem.PageSize)
		rng.Read(prev[i][:usable]) // the guest never writes a page's tail
		next[i] = append([]byte(nil), prev[i]...)
	}
	for i, p := range next {
		switch r := i * 100 / pages; {
		case r < 50:
			rng.Read(p[(i*16)%usable:][:8])
		case r < 75:
			rng.Read(p[:usable])
		case r < 90:
			copy(p[:usable], prev[rng.Intn(pages)])
		default:
			for k := range p[:usable] {
				p[k] = 0
			}
		}
	}
	return prev, next
}

var benchSink uint64

func BenchmarkHashPage(b *testing.B) {
	page := make([]byte, mem.PageSize)
	rand.New(rand.NewSource(1)).Read(page)
	b.SetBytes(mem.PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += hashPage(page)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
}

func BenchmarkEncodeDelta(b *testing.B) {
	prev, next := benchPages(1)
	for _, bc := range []struct {
		name string
		page int // index into the mix
	}{{"stamp", 10}, {"random", 300}, {"copy", 420}, {"zero", 500}} {
		b.Run(bc.name, func(b *testing.B) {
			base, page := prev[bc.page], next[bc.page]
			dst := make([]byte, 0, 2*mem.PageSize)
			b.SetBytes(mem.PageSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _ := encodeDelta(dst[:0], base, page)
				benchSink += uint64(len(out))
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
		})
	}
}

func BenchmarkApplyDelta(b *testing.B) {
	prev, next := benchPages(1)
	delta, ok := encodeDelta(nil, prev[300], next[300])
	if !ok {
		b.Fatal("benchmark page fell back to raw")
	}
	page := append([]byte(nil), prev[300]...)
	b.SetBytes(mem.PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := applyDelta(page, delta); err != nil { // XOR: alternates prev/next
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
}

// benchConduit returns a delta+dedup conduit whose backup already holds
// prev, plus the accessor that serves version v of the batch.
func benchConduit(tb testing.TB, versions ...[][]byte) (*Conduit, []mem.PFN, func(v int) func(mem.PFN) ([]byte, error)) {
	tb.Helper()
	pages := len(versions[0])
	h := hv.New(pages + 4)
	backup, err := h.CreateDomain("backup", pages)
	if err != nil {
		tb.Fatalf("CreateDomain: %v", err)
	}
	c, err := NewConduitMode(h, backup, []byte("0123456789abcdef"), ModeDeltaDedup, 0)
	if err != nil {
		tb.Fatalf("NewConduitMode: %v", err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	pfns := make([]mem.PFN, pages)
	for i := range pfns {
		pfns[i] = mem.PFN(i)
	}
	serve := func(v int) func(mem.PFN) ([]byte, error) {
		return func(pfn mem.PFN) ([]byte, error) { return versions[v][pfn], nil }
	}
	if err := c.SendCheckpoint(pfns, serve(0)); err != nil {
		tb.Fatalf("initial SendCheckpoint: %v", err)
	}
	return c, pfns, serve
}

// BenchmarkSendV2 ships the 522-page mix back and forth between two
// versions, so every batch is a steady-state epoch: encode, encrypt,
// pipe, decode, apply, ack.
func BenchmarkSendV2(b *testing.B) {
	prev, next := benchPages(1)
	c, pfns, serve := benchConduit(b, prev, next)
	b.SetBytes(int64(len(pfns)) * mem.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendCheckpoint(pfns, serve((i+1)%2)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(pfns))/b.Elapsed().Seconds(), "pages/s")
}

// Once the shipped-version table holds every page of the batch, encoding
// a page — hash, classify, delta, table update — allocates nothing.
func TestEncodePageSteadyStateAllocs(t *testing.T) {
	prev, next := benchPages(2)
	c, pfns, _ := benchConduit(t, prev, next)
	versions := [2][][]byte{prev, next}
	buf := make([]byte, 0, 2*len(pfns)*mem.PageSize)
	var d StreamStats
	round := 0
	encodeAll := func() {
		round++
		out := buf[:0]
		for _, pfn := range pfns {
			out = c.encodePage(out, pfn, versions[round%2][pfn], &d)
		}
	}
	encodeAll() // warm: delta scratch and dedup buckets reach their size
	encodeAll()
	if avg := testing.AllocsPerRun(20, encodeAll); avg != 0 {
		t.Fatalf("steady-state encodePage allocates %.1f times per %d-page batch, want 0", avg, len(pfns))
	}
	if d.DeltaPages == 0 || d.DupPages == 0 || d.ZeroPages == 0 {
		t.Fatalf("mix did not exercise every record kind: %+v", d)
	}
}
