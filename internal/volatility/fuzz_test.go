package volatility

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vmi"
)

// FuzzPsScan runs the heuristic scanners over dumps with injected
// garbage: they must never panic, every returned record must be
// plausible, and the page-wise scanners must return exactly what the
// linear reference scans of the contiguous image return. The seeds past
// the first two place whole records across a page seam, flush against
// the end of memory, and off the 4-byte alignment.
func FuzzPsScan(f *testing.F) {
	f.Add(uint64(0), []byte{0x01, 0x00, 0x5B, 0x7A, 0x41, 0x41})
	f.Add(uint64(8192), []byte{0xFF})
	prof := guestos.LinuxProfile()
	f.Add(uint64(5*mem.PageSize-8), taskRecord(prof, 4242, "seam"))
	f.Add(uint64(fuzzPages*mem.PageSize-prof.TaskSize), taskRecord(prof, 4343, "tail"))
	f.Add(uint64(9*mem.PageSize-20), moduleRecord(prof, "seam_mod", 4096))
	f.Add(uint64(fuzzPages*mem.PageSize-prof.ModuleSize), moduleRecord(prof, "tail_mod", 4096))
	f.Add(uint64(3*mem.PageSize+2), taskRecord(prof, 4444, "skew"))
	f.Fuzz(func(t *testing.T, addr uint64, garbage []byte) {
		d := fuzzDump(t, addr, garbage)
		procs, err := PsScan(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range procs {
			if p.PID > 1_000_000 {
				t.Fatalf("implausible record accepted: %+v", p)
			}
		}
		image := d.Snapshot.Bytes()
		if want := psScanLinear(d.Profile, image); !reflect.DeepEqual(procs, want) {
			t.Fatalf("PsScan = %+v, linear reference = %+v", procs, want)
		}
		mods, err := ModScan(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := modScanLinear(d.Profile, image); !reflect.DeepEqual(mods, want) {
			t.Fatalf("ModScan = %+v, linear reference = %+v", mods, want)
		}
	})
}

const fuzzPages = 64

// fuzzDump boots a small guest, writes garbage at addr (wrapped so the
// whole of it fits, up to the last byte of memory) and dumps it.
func fuzzDump(t *testing.T, addr uint64, garbage []byte) *Dump {
	t.Helper()
	h := hv.New(fuzzPages + 8)
	dom, err := h.CreateDomain("fuzz", fuzzPages)
	if err != nil {
		t.Fatal(err)
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 1, CanaryCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(garbage) > 0 && uint64(len(garbage)) <= dom.MemBytes() {
		a := addr % (dom.MemBytes() - uint64(len(garbage)) + 1)
		_ = dom.WritePhys(a, garbage)
	}
	snap, err := dom.DumpMemory()
	if err != nil {
		t.Fatal(err)
	}
	return NewDump(snap, g.Profile(), g.SystemMap())
}

// TestScanRecordsAcrossSeamAndAtLimit pins what the seam and limit seeds
// exercise: records the page-wise scan must piece together across a
// page seam or find flush against the end of memory, and a misaligned
// one it must skip.
func TestScanRecordsAcrossSeamAndAtLimit(t *testing.T) {
	prof := guestos.LinuxProfile()
	cases := []struct {
		addr uint64
		rec  []byte
		task bool
		want bool
	}{
		{5*mem.PageSize - 8, taskRecord(prof, 4242, "seam"), true, true},
		{fuzzPages*mem.PageSize - uint64(prof.TaskSize), taskRecord(prof, 4343, "tail"), true, true},
		{3*mem.PageSize + 2, taskRecord(prof, 4444, "skew"), true, false},
		{9*mem.PageSize - 20, moduleRecord(prof, "seam_mod", 4096), false, true},
		{fuzzPages*mem.PageSize - uint64(prof.ModuleSize), moduleRecord(prof, "tail_mod", 4096), false, true},
	}
	for _, tc := range cases {
		d := fuzzDump(t, tc.addr, tc.rec)
		va := tc.addr + prof.KernelVirtBase
		found := false
		if tc.task {
			procs, _ := PsScan(d)
			for _, p := range procs {
				found = found || p.TaskVA == va
			}
		} else {
			mods, _ := ModScan(d)
			for _, m := range mods {
				found = found || m.VA == va
			}
		}
		if found != tc.want {
			t.Errorf("record at %#x: found = %v, want %v", tc.addr, found, tc.want)
		}
	}
}

func taskRecord(p *guestos.Profile, pid uint32, name string) []byte {
	rec := make([]byte, p.TaskSize)
	binary.LittleEndian.PutUint32(rec, p.TaskMagic)
	binary.LittleEndian.PutUint32(rec[p.TaskOffPID:], pid)
	binary.LittleEndian.PutUint32(rec[p.TaskOffState:], 1)
	copy(rec[p.TaskOffComm:p.TaskOffComm+p.TaskCommLen], name)
	return rec
}

func moduleRecord(p *guestos.Profile, name string, size uint64) []byte {
	rec := make([]byte, p.ModuleSize)
	binary.LittleEndian.PutUint32(rec, p.ModuleMagic)
	copy(rec[p.ModuleOffName:p.ModuleOffName+p.ModuleNameLen], name)
	binary.LittleEndian.PutUint64(rec[p.ModuleOffSize:], size)
	return rec
}

// psScanLinear is the reference psscan: every 4-aligned offset of the
// contiguous image, tested in turn.
func psScanLinear(p *guestos.Profile, memory []byte) []vmi.ProcessInfo {
	var out []vmi.ProcessInfo
	for off := 0; off <= len(memory)-p.TaskSize; off += 4 {
		if binary.LittleEndian.Uint32(memory[off:]) != p.TaskMagic {
			continue
		}
		rec := memory[off : off+p.TaskSize]
		info := vmi.ProcessInfo{
			TaskVA:    uint64(off) + p.KernelVirtBase,
			PID:       binary.LittleEndian.Uint32(rec[p.TaskOffPID:]),
			UID:       binary.LittleEndian.Uint32(rec[p.TaskOffUID:]),
			State:     binary.LittleEndian.Uint32(rec[p.TaskOffState:]),
			Name:      vmi.CStr(rec[p.TaskOffComm : p.TaskOffComm+p.TaskCommLen]),
			StartTime: binary.LittleEndian.Uint64(rec[p.TaskOffStart:]),
		}
		if plausibleTask(info) {
			out = append(out, info)
		}
	}
	return out
}

// modScanLinear is the reference modscan over the contiguous image.
func modScanLinear(p *guestos.Profile, memory []byte) []vmi.ModuleInfo {
	var out []vmi.ModuleInfo
	for off := 0; off <= len(memory)-p.ModuleSize; off += 4 {
		if binary.LittleEndian.Uint32(memory[off:]) != p.ModuleMagic {
			continue
		}
		rec := memory[off : off+p.ModuleSize]
		name := vmi.CStr(rec[p.ModuleOffName : p.ModuleOffName+p.ModuleNameLen])
		if name == "" || !printableASCII(name) {
			continue
		}
		out = append(out, vmi.ModuleInfo{
			VA:   uint64(off) + p.KernelVirtBase,
			Name: name,
			Size: binary.LittleEndian.Uint64(rec[p.ModuleOffSize:]),
		})
	}
	return out
}

// FuzzStrings checks the string extractor on arbitrary images.
func FuzzStrings(f *testing.F) {
	f.Add([]byte("hello\x00world"), 3)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, img []byte, minLen int) {
		if minLen < -1000 || minLen > 1000 {
			return
		}
		for _, s := range Strings(img, minLen) {
			if len(s) < 2 {
				t.Fatalf("too-short string %q returned", s)
			}
			for _, r := range s {
				if r < 0x20 || r > 0x7e {
					t.Fatalf("non-printable rune in %q", s)
				}
			}
		}
	})
}
