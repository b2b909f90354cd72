// Package vdisk implements the virtual block device substrate for the
// paper's disk-snapshot extension (§3.1: "CRIMES focuses on
// checkpointing CPU and memory state, but this can easily be extended
// to include disk snapshots as well"). An attached disk is replicated
// VM state: its dirty blocks are propagated to a backup disk at every
// checkpoint and rolled back together with memory after a failed audit,
// so a detected attack cannot leave effects on storage either.
package vdisk

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/mem"
)

// BlockSize is the virtual disk's block size in bytes.
const BlockSize = 4096

// FaultCopy is the fault-injection site for block replication: an armed
// fault fails CopyBlocksTo before any block is copied.
const FaultCopy = "vdisk.copy"

var (
	// ErrBadBlock is returned for out-of-range block accesses.
	ErrBadBlock = errors.New("vdisk: block out of range")
	// ErrSizeMismatch is returned when checkpointing between disks of
	// different sizes.
	ErrSizeMismatch = errors.New("vdisk: disk sizes differ")
)

// Disk is a fixed-size virtual block device with dirty-block tracking.
type Disk struct {
	blocks       [][]byte
	dirty        *mem.Bitmap
	dirtyLogging bool
	writes       uint64
	faults       *fault.Injector
}

// New creates a zeroed disk with the given number of blocks.
func New(blocks int) *Disk {
	d := &Disk{
		blocks: make([][]byte, blocks),
		dirty:  mem.NewBitmap(blocks),
	}
	for i := range d.blocks {
		d.blocks[i] = make([]byte, BlockSize)
	}
	return d
}

// Blocks reports the disk size in blocks.
func (d *Disk) Blocks() int { return len(d.blocks) }

// InjectFaults arms a fault injector on the disk (mirroring the
// hypervisor's hook). Passing nil disables injection.
func (d *Disk) InjectFaults(in *fault.Injector) { d.faults = in }

// Faults returns the armed fault injector, or nil.
func (d *Disk) Faults() *fault.Injector { return d.faults }

// Writes reports the cumulative number of block writes.
func (d *Disk) Writes() uint64 { return d.writes }

// ReadBlock copies block i into buf (up to BlockSize bytes).
func (d *Disk) ReadBlock(i int, buf []byte) error {
	if i < 0 || i >= len(d.blocks) {
		return fmt.Errorf("vdisk: read block %d of %d: %w", i, len(d.blocks), ErrBadBlock)
	}
	copy(buf, d.blocks[i])
	return nil
}

// WriteBlock writes data into block i at the given offset, marking the
// block dirty.
func (d *Disk) WriteBlock(i int, offset int, data []byte) error {
	if i < 0 || i >= len(d.blocks) {
		return fmt.Errorf("vdisk: write block %d of %d: %w", i, len(d.blocks), ErrBadBlock)
	}
	if offset < 0 || offset+len(data) > BlockSize {
		return fmt.Errorf("vdisk: write [%d,%d) in block %d: %w", offset, offset+len(data), i, ErrBadBlock)
	}
	copy(d.blocks[i][offset:], data)
	d.writes++
	if d.dirtyLogging {
		d.dirty.Set(i)
	}
	return nil
}

// EnableDirtyLogging starts dirty-block tracking.
func (d *Disk) EnableDirtyLogging() {
	d.dirtyLogging = true
	d.dirty.ClearAll()
}

// DirtyCount reports how many blocks are currently dirty.
func (d *Disk) DirtyCount() int { return d.dirty.Count() }

// MarkAllDirty marks every block dirty (used for the initial sync).
func (d *Disk) MarkAllDirty() {
	for i := 0; i < d.dirty.Len(); i++ {
		d.dirty.Set(i)
	}
}

// HarvestDirty appends the dirty block list to dst without clearing the
// log: as with a domain's pages, only a successful commit cleans it.
func (d *Disk) HarvestDirty(dst []mem.PFN) []mem.PFN { return d.dirty.ScanWords(dst) }

// CleanDirty clears the given blocks from the dirty log once a commit has
// copied them to the backup disk.
func (d *Disk) CleanDirty(blocks []mem.PFN) {
	for _, b := range blocks {
		if uint64(b) < uint64(d.dirty.Len()) {
			d.dirty.Clear(int(b))
		}
	}
}

// CopyBlocksTo propagates the given blocks to another disk of the same
// size (the checkpoint commit path).
func (d *Disk) CopyBlocksTo(dst *Disk, blocks []mem.PFN) error {
	if dst.Blocks() != d.Blocks() {
		return fmt.Errorf("vdisk: copy to %d-block disk from %d: %w", dst.Blocks(), d.Blocks(), ErrSizeMismatch)
	}
	if err := d.faults.Check(FaultCopy); err != nil {
		return fmt.Errorf("vdisk: copy %d blocks: %w", len(blocks), err)
	}
	for _, b := range blocks {
		if uint64(b) >= uint64(len(d.blocks)) {
			return fmt.Errorf("vdisk: copy block %d: %w", b, ErrBadBlock)
		}
		copy(dst.blocks[b], d.blocks[b])
	}
	return nil
}

// Snapshot returns a deep copy of the disk contents.
func (d *Disk) Snapshot() []byte {
	out := make([]byte, len(d.blocks)*BlockSize)
	for i, b := range d.blocks {
		copy(out[i*BlockSize:], b)
	}
	return out
}

// Restore loads a snapshot produced by Snapshot.
func (d *Disk) Restore(snap []byte) error {
	if len(snap) != len(d.blocks)*BlockSize {
		return fmt.Errorf("vdisk: restore %d bytes into %d-block disk: %w", len(snap), len(d.blocks), ErrSizeMismatch)
	}
	for i := range d.blocks {
		copy(d.blocks[i], snap[i*BlockSize:])
	}
	return nil
}

// Equal reports whether two disks have identical contents.
func Equal(a, b *Disk) bool {
	if a.Blocks() != b.Blocks() {
		return false
	}
	for i := range a.blocks {
		for j := range a.blocks[i] {
			if a.blocks[i][j] != b.blocks[i][j] {
				return false
			}
		}
	}
	return true
}
