package vdisk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestReadWriteBlock(t *testing.T) {
	d := New(8)
	if d.Blocks() != 8 {
		t.Fatalf("Blocks = %d", d.Blocks())
	}
	if err := d.WriteBlock(3, 100, []byte("block data")); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	buf := make([]byte, BlockSize)
	if err := d.ReadBlock(3, buf); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(buf[100:110], []byte("block data")) {
		t.Fatalf("readback = %q", buf[100:110])
	}
	if d.Writes() != 1 {
		t.Fatalf("Writes = %d", d.Writes())
	}
}

func TestBoundsChecks(t *testing.T) {
	d := New(2)
	if err := d.WriteBlock(2, 0, []byte{1}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("out-of-range block: %v", err)
	}
	if err := d.WriteBlock(0, BlockSize-1, []byte{1, 2}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("overrunning write: %v", err)
	}
	if err := d.WriteBlock(0, -1, []byte{1}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("negative offset: %v", err)
	}
	if err := d.ReadBlock(-1, make([]byte, 1)); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("negative read: %v", err)
	}
}

func TestDirtyTracking(t *testing.T) {
	d := New(16)
	d.EnableDirtyLogging()
	_ = d.WriteBlock(1, 0, []byte{1})
	_ = d.WriteBlock(9, 0, []byte{1})
	_ = d.WriteBlock(1, 8, []byte{2}) // re-dirty: counted once
	if d.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d, want 2", d.DirtyCount())
	}
	blocks := d.HarvestDirty(nil)
	if len(blocks) != 2 || blocks[0] != 1 || blocks[1] != 9 {
		t.Fatalf("harvest = %v", blocks)
	}
	if d.DirtyCount() != 2 {
		t.Fatalf("harvest cleared the log: %d blocks left, want 2", d.DirtyCount())
	}
	d.CleanDirty([]mem.PFN{9, 99}) // a block past the end is ignored
	if got := d.HarvestDirty(nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after cleaning block 9 the log holds %v, want [1]", got)
	}
}

func TestCopyBlocksTo(t *testing.T) {
	src, dst := New(4), New(4)
	_ = src.WriteBlock(2, 0, []byte("replicate"))
	if err := src.CopyBlocksTo(dst, []mem.PFN{2}); err != nil {
		t.Fatalf("CopyBlocksTo: %v", err)
	}
	if !Equal(src, dst) {
		t.Fatal("disks differ after copy")
	}
	other := New(8)
	if err := src.CopyBlocksTo(other, nil); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("size mismatch: %v", err)
	}
	if err := src.CopyBlocksTo(dst, []mem.PFN{99}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("bad block copy: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	d := New(4)
	_ = d.WriteBlock(0, 0, []byte("before"))
	snap := d.Snapshot()
	_ = d.WriteBlock(0, 0, []byte("after!"))
	if err := d.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	buf := make([]byte, 6)
	_ = d.ReadBlock(0, buf)
	if string(buf) != "before" {
		t.Fatalf("restored = %q", buf)
	}
	if err := d.Restore(snap[:10]); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("short restore: %v", err)
	}
}

// Property: after any write sequence and a dirty-block copy, the backup
// equals the primary.
func TestReplicationProperty(t *testing.T) {
	src, dst := New(16), New(16)
	src.EnableDirtyLogging()
	src.MarkAllDirty()
	_ = src.CopyBlocksTo(dst, src.HarvestDirty(nil))
	f := func(writes []uint16, data []byte) bool {
		if len(data) == 0 {
			data = []byte{1}
		}
		if len(data) > 64 {
			data = data[:64]
		}
		for _, w := range writes {
			block := int(w) % 16
			off := int(w>>4) % (BlockSize - len(data))
			if err := src.WriteBlock(block, off, data); err != nil {
				return false
			}
		}
		if err := src.CopyBlocksTo(dst, src.HarvestDirty(nil)); err != nil {
			return false
		}
		return Equal(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	if Equal(New(2), New(4)) {
		t.Fatal("differently sized disks reported equal")
	}
}
