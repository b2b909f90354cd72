// Package remus implements the baseline Remus-style replication channel
// that CRIMES' Optimization 1 replaces: dirty pages are serialized
// writev-style, encrypted (Remus pipes checkpoints through ssh even for
// local backups), and streamed over a connection to a Restore process
// that stages each batch and exchanges it into the backup VM whole. The
// channel acknowledges each checkpoint batch after its exchange, as Remus
// releases its network buffer only after the backup acknowledges a
// complete checkpoint; the backup holds exactly one acknowledged
// checkpoint at every instant.
package remus

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/obs"
)

// ErrClosed is returned when sending on a closed conduit.
var ErrClosed = errors.New("remus: conduit closed")

// Fault-injection sites instrumented by this package. Both consult the
// hypervisor's armed injector (hv.Hypervisor.InjectFaults).
const (
	// FaultConduitNew fails conduit construction (the moral equivalent
	// of the ssh tunnel to the restore host refusing the connection).
	FaultConduitNew = "remus.conduit"
	// FaultSend fails a checkpoint send before any bytes are written,
	// leaving the conduit usable for a retry.
	FaultSend = "remus.send"
)

const ackByte = 0xA5

// Conduit is a replication channel from a primary VM to a backup
// domain, with a Restore goroutine on the receiving end.
type Conduit struct {
	hv     *hv.Hypervisor
	backup *hv.Domain

	conn    net.Conn // primary side
	ackConn net.Conn
	enc     cipher.Stream
	sendBuf []byte

	// v2 wire protocol state (ModeDelta/ModeDeltaDedup): the
	// shipped-version table, a delta-encoding scratch buffer, and the
	// cumulative wire accounting. All nil/zero in ModeRaw.
	mode     Mode
	table    *versionTable
	deltaBuf []byte
	stats    StreamStats

	// mu guards the send side (conn, enc, sendBuf, table, stats,
	// closed); ackMu serializes ack reads. They are separate so a
	// sender never holds the conduit lock across the backup's ack round
	// trip: one caller can encrypt and transmit the next batch while
	// another still waits for the previous batch's acknowledgement.
	// restMu guards restErr, which the restore goroutine writes while
	// senders and ack waiters read it.
	mu      sync.Mutex
	ackMu   sync.Mutex
	restMu  sync.Mutex
	closed  bool
	done    chan struct{}
	restErr error

	// broken is the first failure of a batch whose encoding had begun
	// (guarded by mu). Such a batch may have left part of its bytes on
	// the wire, and in the v2 modes it has updated the shipped-version
	// table for pages the backup never received, so every later Send
	// would decode against the wrong stream or base: the conduit fails
	// closed and returns this error from then on.
	broken error

	// staging is the restore process's staging area, owned by its
	// goroutine.
	staging *restoreStage

	// Observability handles (nil/inert when disabled). Set once via
	// SetObserver before the conduit carries instrumented traffic.
	ackNs     *obs.Histogram
	sentBytes *obs.Counter

	// tamper models a one-shot man-in-the-middle on the wire: when
	// armed, the next transmitted batch has the ciphertext byte at
	// tamperOff XORed with tamperMask (guarded by mu). Test and
	// scenario harness only.
	tamperArmed bool
	tamperOff   int
	tamperMask  byte
}

// TamperNextBatch arms a one-shot man-in-the-middle mutation: the next
// batch written to the wire has its ciphertext byte at offset XORed
// with mask after encryption. Under CTR encryption this flips exactly
// the same bit positions in the decrypted plaintext — the classic
// malleability attack an integrity-free stream cannot notice. The raw
// v1 protocol applies whatever decrypts; the v2 decoder is fail-closed,
// so structural bytes that decode to garbage kill the channel instead.
func (c *Conduit) TamperNextBatch(offset int, mask byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tamperArmed, c.tamperOff, c.tamperMask = true, offset, mask
}

// writeChunk encrypts and writes buf, the batch's bytes from offset base
// on, flipping the armed tamper's byte when it falls inside. Caller holds
// mu, and disarms the one-shot tamper once the batch is written.
func (c *Conduit) writeChunk(buf []byte, base int) error {
	c.enc.XORKeyStream(buf, buf)
	if o := c.tamperOff - base; c.tamperArmed && o >= 0 && o < len(buf) {
		buf[o] ^= c.tamperMask
	}
	if _, err := c.conn.Write(buf); err != nil {
		return fmt.Errorf("remus: send checkpoint: %w", err)
	}
	c.sentBytes.Add(int64(len(buf)))
	return nil
}

// SetObserver wires the conduit's metrics: the backup's ack round-trip
// latency and the encrypted bytes shipped. vm labels the series.
// Nil-safe on both the conduit and the observer.
func (c *Conduit) SetObserver(o *obs.Observer, vm string) {
	if c == nil || !o.Enabled() {
		return
	}
	reg := o.Registry()
	c.ackNs = reg.Histogram("crimes_remote_ack_ns", obs.DurationBuckets(), "vm", vm)
	c.sentBytes = reg.Counter("crimes_conduit_bytes_total", "vm", vm)
}

// NewConduitMode starts a restore process for the backup domain and
// returns the primary-side channel speaking the given wire protocol. key
// must be 16, 24 or 32 bytes (AES). budgetPages bounds the sender's
// shipped-version table in ModeDelta/ModeDeltaDedup (<= 0 is unbounded);
// pages evicted from the table lose their delta/dedup base and ship raw
// on their next change. ModeRaw ignores the budget and is byte-for-byte
// the v1 channel.
func NewConduitMode(h *hv.Hypervisor, backup *hv.Domain, key []byte, mode Mode, budgetPages int) (*Conduit, error) {
	if err := h.Faults().Check(FaultConduitNew); err != nil {
		return nil, fmt.Errorf("remus: connect: %w", err)
	}
	encBlock, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("remus: cipher: %w", err)
	}
	decBlock, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("remus: cipher: %w", err)
	}
	iv := make([]byte, aes.BlockSize) // fixed IV: channel is simulation-internal
	primarySide, restoreSide := net.Pipe()
	ackPrimary, ackRestore := net.Pipe()

	c := &Conduit{
		hv:      h,
		backup:  backup,
		conn:    primarySide,
		ackConn: ackPrimary,
		enc:     cipher.NewCTR(encBlock, iv),
		mode:    mode,
		done:    make(chan struct{}),
		staging: &restoreStage{backup: backup},
	}
	if mode != ModeRaw {
		c.table = newVersionTable(budgetPages)
	}
	r := newWireReader(restoreSide, cipher.NewCTR(decBlock, iv))
	go pprof.Do(context.Background(), pprof.Labels("vm", backup.Name(), "role", "restore"), func(context.Context) {
		c.restore(restoreSide, ackRestore, func() error { return c.staging.apply(r, mode != ModeRaw) })
	})
	return c, nil
}

// SendCheckpoint serializes and transmits the given dirty pages of the
// primary domain and blocks until the restore process acknowledges the
// complete checkpoint. Page contents are read through the provided
// mapping accessor. It is Send followed by AwaitAck; a pipelined
// shipper calls the two phases separately so encrypt/transmit of one
// batch overlaps the ack wait of the previous one.
func (c *Conduit) SendCheckpoint(pfns []mem.PFN, page func(mem.PFN) ([]byte, error)) error {
	if _, err := c.Send(pfns, page); err != nil {
		return err
	}
	return c.AwaitAck()
}

// Send serializes, encrypts, and transmits one checkpoint batch without
// waiting for the backup's acknowledgement. Every successful Send must
// eventually be paired with one AwaitAck; acks arrive in send order. A
// batch that fails once its encoding has begun breaks the conduit: that
// Send and every later one return its error (an injected FaultSend fires
// before, and leaves the conduit usable). It
// returns the batch's own v2 wire accounting (zero in ModeRaw), so a
// caller's per-batch bookkeeping never has to take the conduit lock that
// a concurrent Send holds for its whole encode.
func (c *Conduit) Send(pfns []mem.PFN, page func(mem.PFN) ([]byte, error)) (StreamStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return StreamStats{}, ErrClosed
	}
	if c.broken != nil {
		return StreamStats{}, c.broken
	}
	if err := c.hv.Faults().Check(FaultSend); err != nil {
		return StreamStats{}, fmt.Errorf("remus: send checkpoint: %w", err)
	}
	var d StreamStats
	var err error
	if c.mode == ModeRaw {
		err = c.sendRaw(pfns, page)
	} else {
		d, err = c.sendV2(pfns, page)
	}
	if err != nil {
		c.broken = err
	}
	return d, err
}

// rawChunk bounds the records sendRaw gathers for one write. CTR
// encryption is positional, so a batch written in chunks puts the same
// bytes on the wire, and a full sync needs no guest-sized send buffer
// beside the pages the restore side stages.
const rawChunk = 256

// sendRaw serializes one batch in the v1 wire format under c.mu: the
// 4-byte count header followed by a full 8-byte PFN + raw page record
// per dirty page.
func (c *Conduit) sendRaw(pfns []mem.PFN, page func(mem.PFN) ([]byte, error)) error {
	// writev-style: gather up to rawChunk records into one buffer,
	// encrypt, and write them in a single call.
	const rec = 8 + mem.PageSize
	need := 4 + min(len(pfns), rawChunk)*rec
	if cap(c.sendBuf) < need {
		c.sendBuf = make([]byte, need)
	}
	buf := c.sendBuf[:need]
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(pfns)))
	off, base := 4, 0
	for i, pfn := range pfns {
		binary.LittleEndian.PutUint64(buf[off:], uint64(pfn))
		off += 8
		p, err := page(pfn)
		if err != nil {
			return fmt.Errorf("remus: read pfn %d: %w", pfn, err)
		}
		copy(buf[off:], p)
		off += mem.PageSize
		if off+rec > len(buf) && i+1 < len(pfns) {
			if err := c.writeChunk(buf[:off], base); err != nil {
				return err
			}
			base, off = base+off, 0
		}
	}
	err := c.writeChunk(buf[:off], base)
	c.tamperArmed = false
	if err != nil {
		return err
	}
	c.trimSendBuf(need)
	return nil
}

// sendBufFloor is the batch-buffer capacity below which trimming is
// never worth the reallocation churn.
const sendBufFloor = 64 << 10

// trimSendBuf releases the batch buffer's excess capacity after a send:
// without it, one large epoch (the initial full sync is the worst case)
// pins a maximum-sized buffer for the conduit's lifetime. Capacity
// within 4x of the just-sent batch is kept so steady-state traffic
// never reallocates.
func (c *Conduit) trimSendBuf(used int) {
	if cap(c.sendBuf) <= sendBufFloor || cap(c.sendBuf) <= 4*used {
		return
	}
	next := 2 * used
	if next < sendBufFloor {
		next = sendBufFloor
	}
	c.sendBuf = make([]byte, 0, next)
}

// AwaitAck blocks until the restore process acknowledges the oldest
// unacknowledged batch. The conduit mutex is NOT held here — only the
// ack reader is serialized — so new sends proceed while waiting.
func (c *Conduit) AwaitAck() error {
	c.ackMu.Lock()
	defer c.ackMu.Unlock()
	var start time.Time
	if c.ackNs != nil {
		start = time.Now()
	}
	var ack [1]byte
	if _, err := io.ReadFull(c.ackConn, ack[:]); err != nil {
		// A dead restore goroutine closes its pipe ends, so the read
		// error here is just "pipe closed" — the recorded terminal error
		// (a failed backup write, a malformed record) is the real cause.
		if rerr := c.restoreErr(); rerr != nil && !errors.Is(rerr, io.EOF) && !errors.Is(rerr, io.ErrClosedPipe) {
			return fmt.Errorf("remus: await ack: restore failed: %w", rerr)
		}
		return fmt.Errorf("remus: await ack: %w", err)
	}
	if ack[0] != ackByte {
		return fmt.Errorf("remus: bad ack %#x", ack[0])
	}
	if c.ackNs != nil {
		c.ackNs.ObserveDuration(int64(time.Since(start)))
	}
	return nil
}

// restore is the backup-side process: apply reads, validates, stages and
// publishes one batch; then the batch is acknowledged. Any failure tears
// the conduit's restore side down so blocked senders unblock and can
// read the recorded cause.
func (c *Conduit) restore(conn, ackConn net.Conn, apply func() error) {
	defer close(c.done)
	for {
		if err := apply(); err != nil {
			c.failRestore(conn, ackConn, err)
			return
		}
		if _, err := ackConn.Write([]byte{ackByte}); err != nil {
			c.failRestore(conn, ackConn, err)
			return
		}
	}
}

// failRestore records the restore side's terminal error and tears down
// its pipe ends. Closing the pipes matters: a primary blocked in Send
// or AwaitAck would otherwise hang forever on a half-dead conduit, and
// once unblocked it can surface the recorded cause instead of a bare
// pipe error.
func (c *Conduit) failRestore(conn, ackConn net.Conn, err error) {
	c.restMu.Lock()
	if c.restErr == nil {
		c.restErr = err
	}
	c.restMu.Unlock()
	_ = conn.Close()
	_ = ackConn.Close()
}

// restoreErr returns the restore goroutine's recorded terminal error,
// if any.
func (c *Conduit) restoreErr() error {
	c.restMu.Lock()
	defer c.restMu.Unlock()
	return c.restErr
}

// Close shuts down the conduit and waits for the restore process.
func (c *Conduit) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	_ = c.conn.Close()
	_ = c.ackConn.Close()
	<-c.done
	if err := c.restoreErr(); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		return fmt.Errorf("remus: restore: %w", err)
	}
	return nil
}

// Handoff settles the replication session for promotion: the channel is
// torn down, the restore side drains (a batch is acknowledged only after
// its exchange, and a batch cut short is never exchanged), and the backup
// domain — holding exactly the last acknowledged checkpoint — is returned to
// the caller, which takes ownership. After a host failure the cluster
// control plane boots the returned domain as the VM's new primary. An
// error means a restore failed mid-session and the backup must not be
// promoted.
func (c *Conduit) Handoff() (*hv.Domain, error) {
	if err := c.Close(); err != nil {
		return nil, err
	}
	return c.backup, nil
}
