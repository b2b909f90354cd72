package volatility

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/guestos"
)

func TestModScanAndHiddenModules(t *testing.T) {
	g, dumpFn := bootAndDump(t, guestos.LinuxProfile(), nil)
	if _, err := g.LoadModule("rootkit_mod", 8192); err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if err := g.HideModule("rootkit_mod"); err != nil {
		t.Fatalf("HideModule: %v", err)
	}
	d := dumpFn()
	// lsmod view misses the module; modscan finds it.
	ctx, err := d.Context()
	if err != nil {
		t.Fatalf("Context: %v", err)
	}
	listed, err := ctx.ModuleList()
	if err != nil {
		t.Fatalf("ModuleList: %v", err)
	}
	for _, m := range listed {
		if m.Name == "rootkit_mod" {
			t.Fatal("hidden module still listed")
		}
	}
	scanned, err := ModScan(d)
	if err != nil {
		t.Fatalf("ModScan: %v", err)
	}
	found := false
	for _, m := range scanned {
		if m.Name == "rootkit_mod" && m.Size == 8192 {
			found = true
		}
	}
	if !found {
		t.Fatalf("modscan missed hidden module: %+v", scanned)
	}
	hidden, err := HiddenModules(d)
	if err != nil {
		t.Fatalf("HiddenModules: %v", err)
	}
	if len(hidden) != 1 || hidden[0].Name != "rootkit_mod" {
		t.Fatalf("HiddenModules = %+v", hidden)
	}
}

func TestHideModuleUnknownName(t *testing.T) {
	g, _ := bootAndDump(t, guestos.LinuxProfile(), nil)
	if err := g.HideModule("no_such_mod"); err == nil {
		t.Fatal("hiding unknown module succeeded")
	}
}

func TestTimelineOrdersByStart(t *testing.T) {
	g, dumpFn := bootAndDump(t, guestos.LinuxProfile(), nil)
	p1, _ := g.StartProcess("first", 0, 2)
	_ = g.Compute(p1, 100)
	p2, _ := g.StartProcess("second", 0, 2)
	_ = g.Compute(p2, 100)
	p3, _ := g.StartProcess("third", 0, 2)
	_ = g.ExitProcess(p3)

	tl, err := Timeline(dumpFn())
	if err != nil {
		t.Fatalf("Timeline: %v", err)
	}
	if len(tl) != 3 {
		t.Fatalf("timeline entries = %d, want 3", len(tl))
	}
	if tl[0].PID != p1 || tl[1].PID != p2 || tl[2].PID != p3 {
		t.Fatalf("timeline order = %+v", tl)
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].WhenNs < tl[i-1].WhenNs {
			t.Fatal("timeline not sorted")
		}
	}
	if !strings.Contains(tl[2].What, "exited") {
		t.Fatalf("exited process not annotated: %q", tl[2].What)
	}
}

func TestStringsExtraction(t *testing.T) {
	img := append([]byte{0, 1, 2}, []byte("secret token")...)
	img = append(img, 0, 0xFF)
	img = append(img, []byte("ab")...)
	img = append(img, 0)
	img = append(img, []byte("x")...)

	got := Strings(img, 4)
	if len(got) != 1 || got[0] != "secret token" {
		t.Fatalf("Strings = %q", got)
	}
	got = Strings(img, 2)
	if len(got) != 2 || got[1] != "ab" {
		t.Fatalf("Strings(2) = %q", got)
	}
	// Trailing string without terminator.
	got = Strings([]byte("tail"), 2)
	if len(got) != 1 || got[0] != "tail" {
		t.Fatalf("trailing = %q", got)
	}
}

func TestGrepImageFindsExfilContent(t *testing.T) {
	g, dumpFn := bootAndDump(t, guestos.LinuxProfile(), nil)
	pid, _ := g.StartProcess("app", 0, 4)
	va, _ := g.Malloc(pid, 64)
	if err := g.WriteUser(pid, va, []byte("AWS_SECRET_ACCESS_KEY=abc123")); err != nil {
		t.Fatalf("WriteUser: %v", err)
	}
	pd, err := ProcDump(dumpFn(), pid)
	if err != nil {
		t.Fatalf("ProcDump: %v", err)
	}
	hits := GrepImage(pd.Image, "aws_secret", 4)
	if len(hits) != 1 || !strings.Contains(hits[0], "abc123") {
		t.Fatalf("GrepImage = %q", hits)
	}
}

func TestDumpSaveLoadRoundtrip(t *testing.T) {
	g, dumpFn := bootAndDump(t, guestos.WindowsProfile(), nil)
	pid, _ := g.StartProcess("reg_read.exe", 500, 4)
	_ = pid
	orig := dumpFn()

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(loaded.Snapshot.Bytes(), orig.Snapshot.Bytes()) {
		t.Fatal("memory image corrupted by round trip")
	}
	// The loaded dump is fully analyzable.
	procs, err := PsList(loaded)
	if err != nil {
		t.Fatalf("PsList on loaded dump: %v", err)
	}
	if len(procs) != 1 || procs[0].Name != "reg_read.exe" {
		t.Fatalf("procs = %+v", procs)
	}
}

func TestDumpSaveLoadFile(t *testing.T) {
	_, dumpFn := bootAndDump(t, guestos.LinuxProfile(), nil)
	path := t.TempDir() + "/guest.crimesdump"
	if err := dumpFn().SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if loaded.Profile.OS != guestos.Linux {
		t.Fatalf("profile OS = %v", loaded.Profile.OS)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("loading missing file succeeded")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a dump"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
