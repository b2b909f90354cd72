// The v2 wire protocol: instead of shipping every dirty page as a full
// raw 4KiB record (the v1/Remus baseline), the sender keeps a
// shipped-version table — per-PFN content hash plus the last-shipped
// copy, bounded by a page budget — and emits each page as whichever
// record is smallest: an XOR delta against the last-shipped version
// (zero-run/varint encoded), a hash-match reference (unchanged page,
// zero page, or duplicate of another shipped page), or the raw page
// when the encoded form would be no smaller. The restore side needs no
// table of its own: the backup domain IS the mirror of every
// last-shipped version, so deltas decode against its current pages and
// duplicate references read from it — or from a page staged earlier in
// the same batch, which the sender's table already holds.
package remus

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/cost"
	"repro/internal/mem"
)

// Mode selects the conduit's wire protocol. The zero value is ModeRaw,
// so an unset configuration ships every dirty page as a full encrypted
// copy, byte-for-byte the v1 channel.
type Mode int

const (
	// ModeRaw is the v1 baseline: full 4KiB records for every page.
	ModeRaw Mode = iota
	// ModeDelta ships XOR deltas against the last-shipped version of
	// each page, falling back to raw when the delta is not smaller.
	ModeDelta
	// ModeDeltaDedup adds hash-match references: unchanged pages,
	// all-zero pages, and cross-page duplicates ship as references
	// instead of payloads.
	ModeDeltaDedup
)

// String renders the mode as its flag value.
func (m Mode) String() string {
	switch m {
	case ModeDelta:
		return "delta"
	case ModeDeltaDedup:
		return "delta+dedup"
	default:
		return "raw"
	}
}

// ParseMode parses "raw", "delta", or "delta+dedup".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "raw", "":
		return ModeRaw, nil
	case "delta":
		return ModeDelta, nil
	case "delta+dedup", "dedup":
		return ModeDeltaDedup, nil
	default:
		return 0, fmt.Errorf("remus: unknown mode %q (want raw|delta|delta+dedup)", s)
	}
}

// v2 per-record opcodes. Each record is an 8-byte little-endian PFN,
// one opcode byte, and an opcode-dependent payload.
const (
	opRaw   = 0x00 // payload: mem.PageSize raw bytes
	opDelta = 0x01 // payload: 2-byte LE length + XOR-delta runs
	opSame  = 0x02 // no payload: page equals its last-shipped version
	opZero  = 0x03 // no payload: page is all zeroes
	opDup   = 0x04 // payload: 8-byte LE PFN whose last-shipped copy to clone
)

var zeroPage [mem.PageSize]byte
var zeroHash = hashPage(zeroPage[:])

// Lane multipliers and the fixed seed of hashPage (the 64-bit primes
// xxHash uses; any odd constants with good bit dispersion would do).
const (
	hashPrime1 = 0x9E3779B185EBCA87
	hashPrime2 = 0xC2B2AE3D27D4EB4F
	hashPrime3 = 0x165667B19E3779F9
	hashSeed   = 0x27D4EB2F165667C5
)

// hashPage is a deterministic, fixed-seed 64-bit content hash read a
// word at a time into four independent multiply-rotate lanes, so the
// multiplies of one 32-byte stripe overlap instead of forming one
// 4096-step dependency chain. It is not cryptographic and need not be:
// every hash match is confirmed with bytes.Equal before a reference
// record is emitted, so a collision costs a missed dedup, never a wrong
// page.
func hashPage(p []byte) uint64 {
	v1 := uint64(hashSeed)
	v2 := v1 + hashPrime1
	v3 := v1 + hashPrime2
	v4 := v1 + hashPrime3
	n := uint64(len(p))
	for len(p) >= 32 {
		v1 = hashLane(v1, binary.LittleEndian.Uint64(p[0:8]))
		v2 = hashLane(v2, binary.LittleEndian.Uint64(p[8:16]))
		v3 = hashLane(v3, binary.LittleEndian.Uint64(p[16:24]))
		v4 = hashLane(v4, binary.LittleEndian.Uint64(p[24:32]))
		p = p[32:]
	}
	h := bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
		bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18) + n
	for _, b := range p { // sub-stripe tail; empty for whole pages
		h = bits.RotateLeft64(h^uint64(b)*hashPrime3, 11) * hashPrime1
	}
	h ^= h >> 33
	h *= hashPrime2
	h ^= h >> 29
	h *= hashPrime3
	h ^= h >> 32
	return h
}

func hashLane(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*hashPrime2, 31) * hashPrime1
}

// ventry is one shipped-version table entry: the last content shipped
// for a PFN, which is exactly what the backup domain holds at that PFN.
type ventry struct {
	pfn  mem.PFN
	hash uint64
	data []byte // mem.PageSize copy of the last-shipped contents

	// Dedup bucket links: entries sharing a hash form a ring in insertion
	// order, so re-indexing a page on every content change allocates
	// nothing.
	hnext, hprev *ventry
}

// versionTable is the sender-side shipped-version table: per-PFN hash
// and last-shipped copy under an LRU page budget, plus a hash index for
// cross-page dedup. Invariant: an entry exists only for pages whose
// recorded contents the backup domain currently holds, so any entry is
// a valid delta base and a valid opDup reference.
type versionTable struct {
	budget  int                       // max entries; <= 0 is unbounded
	entries map[mem.PFN]*list.Element // element value is *ventry
	lru     *list.List                // front = most recently shipped
	byHash  map[uint64]*ventry        // dedup index: oldest entry of each hash's ring
}

func newVersionTable(budget int) *versionTable {
	return &versionTable{
		budget:  budget,
		entries: make(map[mem.PFN]*list.Element),
		lru:     list.New(),
		byHash:  make(map[uint64]*ventry),
	}
}

// lookup returns the entry for pfn without touching LRU order (every
// lookup is followed by an update, which refreshes it).
func (t *versionTable) lookup(pfn mem.PFN) *ventry {
	if el, ok := t.entries[pfn]; ok {
		return el.Value.(*ventry)
	}
	return nil
}

// findDup returns another PFN whose last-shipped contents equal page.
// Bucket order is deterministic (insertion order), so the chosen
// reference is reproducible run to run.
func (t *versionTable) findDup(pfn mem.PFN, hash uint64, page []byte) (mem.PFN, bool) {
	head := t.byHash[hash]
	for e := head; e != nil; {
		if e.pfn != pfn && bytes.Equal(e.data, page) {
			return e.pfn, true
		}
		if e = e.hnext; e == head {
			break
		}
	}
	return 0, false
}

// update records page as pfn's last-shipped version, evicting the
// least-recently-shipped entry when the budget is exceeded. An evicted
// page simply loses its delta/dedup base and ships raw next time.
func (t *versionTable) update(pfn mem.PFN, hash uint64, page []byte) {
	if el, ok := t.entries[pfn]; ok {
		e := el.Value.(*ventry)
		if e.hash != hash {
			t.unindex(e)
			e.hash = hash
			t.index(e)
		}
		copy(e.data, page)
		t.lru.MoveToFront(el)
		return
	}
	if t.budget > 0 && t.lru.Len() >= t.budget {
		back := t.lru.Back()
		old := back.Value.(*ventry)
		t.unindex(old)
		delete(t.entries, old.pfn)
		t.lru.Remove(back)
	}
	e := &ventry{pfn: pfn, hash: hash, data: append(make([]byte, 0, mem.PageSize), page...)}
	t.entries[pfn] = t.lru.PushFront(e)
	t.index(e)
}

// index appends e to its hash's ring (the head's hprev is the tail).
func (t *versionTable) index(e *ventry) {
	head := t.byHash[e.hash]
	if head == nil {
		e.hnext, e.hprev = e, e
		t.byHash[e.hash] = e
		return
	}
	e.hnext, e.hprev = head, head.hprev
	head.hprev.hnext = e
	head.hprev = e
}

func (t *versionTable) unindex(e *ventry) {
	if e.hnext == e {
		delete(t.byHash, e.hash)
	} else {
		e.hprev.hnext, e.hnext.hprev = e.hnext, e.hprev
		if t.byHash[e.hash] == e {
			t.byHash[e.hash] = e.hnext
		}
	}
	e.hnext, e.hprev = nil, nil
}

// minGap is the shortest unchanged run worth encoding as a skip: a
// skip/length varint pair costs at least two bytes, so unchanged gaps
// shorter than this fold into the surrounding literal.
const minGap = 4

// encodeDelta appends the XOR delta of page against base to dst as
// (skip uvarint, literal-length uvarint, XOR literal bytes) runs; bytes
// not covered by any run are unchanged. ok is false when the encoding
// would reach mem.PageSize — the caller falls back to a raw record, and
// the page is abandoned as soon as its literals alone spend that budget.
// dst is returned either way so its capacity is reused.
func encodeDelta(dst, baseb, pageb []byte) (_ []byte, ok bool) {
	base, page := (*[mem.PageSize]byte)(baseb), (*[mem.PageSize]byte)(pageb)
	pos := 0
	for {
		start := nextDiff(base, page, pos)
		if start == mem.PageSize {
			return dst, true
		}
		// A run costs its literal bytes plus at least two varint bytes.
		end := runEnd(base, page, start, mem.PageSize-2-len(dst))
		if end < 0 {
			return dst, false
		}
		dst = binary.AppendUvarint(dst, uint64(start-pos))
		dst = binary.AppendUvarint(dst, uint64(end-start))
		if len(dst)+end-start >= mem.PageSize {
			return dst, false
		}
		n := len(dst)
		dst = append(dst, page[start:end]...)
		subtle.XORBytes(dst[n:], dst[n:], base[start:end])
		pos = end
	}
}

// nextDiff returns the first index >= i at which page and base differ,
// or mem.PageSize. Unchanged stretches are skipped eight bytes at a time.
func nextDiff(base, page *[mem.PageSize]byte, i int) int {
	for ; i+8 <= mem.PageSize; i += 8 {
		if x := binary.LittleEndian.Uint64(page[i:]) ^ binary.LittleEndian.Uint64(base[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < mem.PageSize && page[i] == base[i] {
		i++
	}
	return i
}

// runEnd returns the end of the literal run starting at the differing
// byte start: one past the last differing byte before minGap unchanged
// bytes (or the page end). It returns -1 once the run outgrows budget
// bytes, without looking further. Words with no unchanged byte extend
// the run, an all-unchanged word ends it; only mixed words are walked
// byte by byte.
func runEnd(base, page *[mem.PageSize]byte, start, budget int) int {
	end := start + 1
	j := end
	for ; j+8 <= mem.PageSize; j += 8 {
		if end-start >= budget {
			return -1
		}
		x := binary.LittleEndian.Uint64(page[j:]) ^ binary.LittleEndian.Uint64(base[j:])
		if x == 0 {
			return end // eight unchanged bytes: a gap of at least minGap
		}
		const lo, hi = 0x0101010101010101, 0x8080808080808080
		if (x-lo)&^x&hi == 0 {
			end = j + 8 // no unchanged byte in this word
			continue
		}
		for k := j; k < j+8; k, x = k+1, x>>8 {
			if byte(x) != 0 {
				end = k + 1
			} else if k-end+1 >= minGap {
				return end
			}
		}
	}
	for ; j < mem.PageSize; j++ {
		if page[j] != base[j] {
			end = j + 1
		} else if j-end+1 >= minGap {
			return end
		}
	}
	if end-start >= budget {
		return -1
	}
	return end
}

// applyDelta applies an encoded XOR delta in place to page (the
// receiver's copy of the last-shipped version). Every offset is
// validated before the page is touched, so malformed input fails closed
// without corrupting the page or reading out of bounds.
func applyDelta(page, delta []byte) error {
	pos, off := 0, 0
	for off < len(delta) {
		skip, n := binary.Uvarint(delta[off:])
		if n <= 0 {
			return errors.New("remus: delta: bad skip varint")
		}
		off += n
		lit, n := binary.Uvarint(delta[off:])
		if n <= 0 || lit == 0 {
			return errors.New("remus: delta: bad literal length")
		}
		off += n
		if skip > mem.PageSize || lit > mem.PageSize || pos+int(skip)+int(lit) > mem.PageSize {
			return errors.New("remus: delta: runs exceed page")
		}
		if off+int(lit) > len(delta) {
			return errors.New("remus: delta: truncated literal")
		}
		pos += int(skip)
		run := page[pos : pos+int(lit)]
		subtle.XORBytes(run, run, delta[off:off+int(lit)])
		off += int(lit)
		pos += int(lit)
	}
	return nil
}

// StreamStats is a conduit's v2 wire accounting, cumulative (Stats) or
// per batch (Send); the one declaration is cost.ReplicationCounts. All
// fields stay zero on a ModeRaw conduit.
type StreamStats = cost.ReplicationCounts

// Stats returns a snapshot of the conduit's cumulative wire accounting.
// Nil-safe; a ModeRaw conduit always reports zeroes.
func (c *Conduit) Stats() StreamStats {
	if c == nil {
		return StreamStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// sendV2 serializes one batch in the v2 wire format under c.mu and
// returns the batch's own wire accounting.
func (c *Conduit) sendV2(pfns []mem.PFN, page func(mem.PFN) ([]byte, error)) (StreamStats, error) {
	buf := append(c.sendBuf[:0], 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(pfns)))
	var d StreamStats
	for _, pfn := range pfns {
		p, err := page(pfn)
		if err != nil {
			c.sendBuf = buf
			return StreamStats{}, fmt.Errorf("remus: read pfn %d: %w", pfn, err)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pfn))
		buf = c.encodePage(buf, pfn, p, &d)
	}
	c.sendBuf = buf
	err := c.writeChunk(buf, 0)
	c.tamperArmed = false
	if err != nil {
		return StreamStats{}, err
	}
	d.Batches = 1
	d.Pages = len(pfns)
	d.WireBytes = int64(len(buf))
	d.RawBytes = int64(4 + len(pfns)*(8+mem.PageSize))
	c.stats.Add(d)
	c.trimSendBuf(len(buf))
	return d, nil
}

// encodePage appends one page's record (opcode + payload; the PFN is
// already written) and updates the shipped-version table so the entry
// matches what the backup will hold once this batch is applied.
func (c *Conduit) encodePage(buf []byte, pfn mem.PFN, p []byte, d *StreamStats) []byte {
	h := hashPage(p)
	if c.mode == ModeDeltaDedup {
		if e := c.table.lookup(pfn); e != nil && e.hash == h && bytes.Equal(e.data, p) {
			d.SamePages++
			c.table.update(pfn, h, p)
			return append(buf, opSame)
		}
		if h == zeroHash && bytes.Equal(p, zeroPage[:]) {
			d.ZeroPages++
			c.table.update(pfn, h, p)
			return append(buf, opZero)
		}
		if ref, found := c.table.findDup(pfn, h, p); found {
			d.DupPages++
			c.table.update(pfn, h, p)
			buf = append(buf, opDup)
			return binary.LittleEndian.AppendUint64(buf, uint64(ref))
		}
	}
	if e := c.table.lookup(pfn); e != nil {
		d.EncodedPages++
		delta, ok := encodeDelta(c.deltaBuf[:0], e.data, p)
		c.deltaBuf = delta
		if ok {
			d.DeltaPages++
			c.table.update(pfn, h, p)
			buf = append(buf, opDelta)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(delta)))
			return append(buf, delta...)
		}
	}
	d.RawPages++
	c.table.update(pfn, h, p)
	buf = append(buf, opRaw)
	return append(buf, p...)
}

// wireChunk is the restore side's read size: one pipe rendezvous and one
// bulk decrypt per chunk instead of one per record field.
const wireChunk = 64 << 10

// wireReader is the restore side's view of the encrypted stream (v1 and
// v2): the pipe is read a chunk at a time, each chunk decrypted as it
// arrives (CTR is positional, so chunking does not change the
// plaintext), and record fields are handed out as slices of the buffer.
type wireReader struct{ *bufio.Reader }

func newWireReader(src io.Reader, dec cipher.Stream) wireReader {
	return wireReader{bufio.NewReaderSize(cipher.StreamReader{S: dec, R: src}, wireChunk)}
}

// next returns the next n (<= wireChunk) plaintext bytes, valid until
// the following call. A stream that ends inside them is
// io.ErrUnexpectedEOF; one that ends before the first is io.EOF.
func (b wireReader) next(n int) ([]byte, error) {
	p, err := b.Peek(n)
	if err != nil {
		if err == io.EOF && len(p) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	_, _ = b.Discard(n) // cannot fail: Peek just buffered n bytes
	return p, nil
}
