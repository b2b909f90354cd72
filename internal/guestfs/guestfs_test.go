package guestfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vdisk"
)

func mkfsOnDisk(t *testing.T, blocks, inodes int) (*vdisk.Disk, *FS) {
	t.Helper()
	d := vdisk.New(blocks)
	fs, err := Mkfs(d, inodes)
	if err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	return d, fs
}

func TestCreateWriteReadDelete(t *testing.T) {
	_, fs := mkfsOnDisk(t, 64, 16)
	if err := fs.Create("/etc/passwd", 0, 100); err != nil {
		t.Fatalf("Create: %v", err)
	}
	content := []byte("root:x:0:0:root:/root:/bin/bash\n")
	if err := fs.WriteFile("/etc/passwd", content, 200); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fs.ReadFile("/etc/passwd")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("readback = %q", got)
	}
	files, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(files) != 1 || files[0].Name != "/etc/passwd" || files[0].Size != len(content) {
		t.Fatalf("List = %+v", files)
	}
	if err := fs.Delete("/etc/passwd"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := fs.ReadFile("/etc/passwd"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete: %v", err)
	}
	files, _ = fs.List()
	if len(files) != 0 {
		t.Fatalf("List after delete = %+v", files)
	}
}

func TestMultiBlockFile(t *testing.T) {
	_, fs := mkfsOnDisk(t, 64, 8)
	if err := fs.Create("big", 0, 1); err != nil {
		t.Fatalf("Create: %v", err)
	}
	content := bytes.Repeat([]byte("0123456789abcdef"), 700) // ~11KB, 3 blocks
	if err := fs.WriteFile("big", content, 2); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fs.ReadFile("big")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("multi-block content mismatch")
	}
	// Rewrite with shorter content reuses space.
	if err := fs.WriteFile("big", []byte("short"), 3); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, _ = fs.ReadFile("big")
	if string(got) != "short" {
		t.Fatalf("rewrite readback = %q", got)
	}
}

func TestErrors(t *testing.T) {
	_, fs := mkfsOnDisk(t, 64, 2)
	if err := fs.Create("a", 0, 1); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := fs.Create("a", 0, 1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := fs.Create("b", 0, 1); err != nil {
		t.Fatalf("Create b: %v", err)
	}
	if err := fs.Create("c", 0, 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("create beyond inode table: %v", err)
	}
	if err := fs.WriteFile("a", make([]byte, MaxFileSize+1), 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
	if err := fs.WriteFile("nope", []byte{1}, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("write missing file: %v", err)
	}
	if err := fs.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing file: %v", err)
	}
}

func TestMountUnformatted(t *testing.T) {
	d := vdisk.New(16)
	if _, err := Mount(d); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("Mount raw disk: %v", err)
	}
	if _, err := Mkfs(vdisk.New(3), 64); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Mkfs on tiny disk: %v", err)
	}
}

func TestDataBlockExhaustion(t *testing.T) {
	// 8 blocks total: super + bitmap + 1 inode block = 3 meta, 5 data.
	_, fs := mkfsOnDisk(t, 8, 4)
	if err := fs.Create("f", 0, 1); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := fs.WriteFile("f", make([]byte, 5*vdisk.BlockSize), 1); err != nil {
		t.Fatalf("fill disk: %v", err)
	}
	if err := fs.Create("g", 0, 1); err != nil {
		t.Fatalf("Create g: %v", err)
	}
	if err := fs.WriteFile("g", []byte{1}, 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write on full disk: %v", err)
	}
}

func TestForensicScanRecoversDeleted(t *testing.T) {
	d, fs := mkfsOnDisk(t, 64, 8)
	_ = fs.Create("ransom-note.txt", 666, 10)
	secret := []byte("attacker manifesto and wallet address")
	if err := fs.WriteFile("ransom-note.txt", secret, 11); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := fs.Delete("ransom-note.txt"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	entries, err := ScanInodes(d)
	if err != nil {
		t.Fatalf("ScanInodes: %v", err)
	}
	if len(entries) != 1 || !entries[0].Deleted || entries[0].Name != "ransom-note.txt" {
		t.Fatalf("entries = %+v", entries)
	}
	recovered, err := RecoverDeleted(d, "ransom-note.txt")
	if err != nil {
		t.Fatalf("RecoverDeleted: %v", err)
	}
	if !bytes.Equal(recovered, secret) {
		t.Fatalf("recovered = %q", recovered)
	}
	if _, err := RecoverDeleted(d, "never-existed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("recover missing: %v", err)
	}
}

// Property: write/read round-trips for any content size within limits.
func TestWriteReadRoundtripProperty(t *testing.T) {
	_, fs := mkfsOnDisk(t, 128, 4)
	if err := fs.Create("f", 0, 1); err != nil {
		t.Fatalf("Create: %v", err)
	}
	f := func(data []byte) bool {
		if len(data) > MaxFileSize {
			data = data[:MaxFileSize]
		}
		if err := fs.WriteFile("f", data, 1); err != nil {
			return false
		}
		got, err := fs.ReadFile("f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGuestDevRoutesThroughOpLog(t *testing.T) {
	// Filesystem mutations via GuestDev are op-logged guest block
	// writes, so an epoch of file activity replays deterministically.
	h := hv.New(300)
	dom, err := h.CreateDomain("guest", 256)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 17})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	disk := vdisk.New(64)
	g.AttachDisk(disk)
	pid, err := g.StartProcess("fsd", 0, 4)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	dev := GuestDev{G: g, PID: pid}

	state := g.CloneState()
	diskBefore := disk.Snapshot()
	memBefore, _ := dom.DumpMemory()

	g.BeginEpoch()
	fs, err := Mkfs(dev, 8)
	if err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	if err := fs.Create("/var/log/auth.log", 0, g.Now()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := fs.WriteFile("/var/log/auth.log", []byte("login root ok"), g.Now()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	ops := g.EpochOps()
	if len(ops) == 0 {
		t.Fatal("filesystem activity produced no ops")
	}
	diskAfter := disk.Snapshot()

	// Roll back disk + state, replay the op log: identical disk.
	if err := disk.Restore(diskBefore); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	_ = dom.RestoreMemory(memBefore, allPages(dom))
	g.RestoreState(state)
	for _, op := range ops {
		if err := g.Replay(op); err != nil {
			t.Fatalf("Replay: %v", err)
		}
	}
	if !bytes.Equal(disk.Snapshot(), diskAfter) {
		t.Fatal("replayed disk differs")
	}
	// The replayed filesystem is mountable and holds the file.
	fs2, err := Mount(disk)
	if err != nil {
		t.Fatalf("Mount after replay: %v", err)
	}
	got, err := fs2.ReadFile("/var/log/auth.log")
	if err != nil || string(got) != "login root ok" {
		t.Fatalf("replayed file = %q, %v", got, err)
	}
}

// allPages lists every page of d, for restoring a whole snapshot.
func allPages(d *hv.Domain) []mem.PFN {
	pfns := make([]mem.PFN, d.Pages())
	for i := range pfns {
		pfns[i] = mem.PFN(i)
	}
	return pfns
}
