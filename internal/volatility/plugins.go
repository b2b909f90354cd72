package volatility

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/vmi"
)

// ModScan performs the heuristic whole-memory search for kernel module
// records (Volatility's modscan): modules unlinked from the module list
// — the classic way a rootkit module hides — are still found by their
// in-memory signature.
func ModScan(d *Dump) ([]vmi.ModuleInfo, error) {
	p := d.Profile
	var out []vmi.ModuleInfo
	scanRecords(d, p.ModuleMagic, p.ModuleSize, func(off uint64, rec []byte) {
		name := vmi.CStr(rec[p.ModuleOffName : p.ModuleOffName+p.ModuleNameLen])
		if name == "" || !printableASCII(name) {
			return
		}
		out = append(out, vmi.ModuleInfo{
			VA:   off + p.KernelVirtBase,
			Name: name,
			Size: binary.LittleEndian.Uint64(rec[p.ModuleOffSize:]),
		})
	})
	return out, nil
}

// HiddenModules cross-references modscan against the linked module list
// and returns records reachable only by scanning.
func HiddenModules(d *Dump) ([]vmi.ModuleInfo, error) {
	ctx, err := d.Context()
	if err != nil {
		return nil, err
	}
	listed, err := ctx.ModuleList()
	if err != nil {
		return nil, err
	}
	scanned, err := ModScan(d)
	if err != nil {
		return nil, err
	}
	inList := make(map[uint64]bool, len(listed))
	for _, m := range listed {
		inList[m.VA] = true
	}
	var out []vmi.ModuleInfo
	for _, m := range scanned {
		if !inList[m.VA] {
			out = append(out, m)
		}
	}
	return out, nil
}

// TimelineEntry is one event in the forensic timeline.
type TimelineEntry struct {
	WhenNs uint64
	What   string
	PID    uint32
}

// Timeline orders every recoverable process record (from psscan, so
// exited and hidden processes are included) by start time — the
// "deeper analysis" of pid/uid/time stamps the paper describes for
// dumped malicious processes (§4.2).
func Timeline(d *Dump) ([]TimelineEntry, error) {
	procs, err := PsScan(d)
	if err != nil {
		return nil, err
	}
	var out []TimelineEntry
	for _, p := range procs {
		if p.PID == 0 {
			continue
		}
		state := "running"
		switch p.State {
		case 2:
			state = "exited"
		case 0:
			state = "freed"
		}
		out = append(out, TimelineEntry{
			WhenNs: p.StartTime,
			What:   fmt.Sprintf("process %q started (%s)", p.Name, state),
			PID:    p.PID,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WhenNs != out[j].WhenNs {
			return out[i].WhenNs < out[j].WhenNs
		}
		return out[i].PID < out[j].PID
	})
	return out, nil
}

// Strings extracts printable ASCII strings of at least minLen bytes
// from a process image (Volatility's strings against a procdump),
// giving investigators quick content visibility into the heap and
// stack at the instant of an attack.
func Strings(image []byte, minLen int) []string {
	if minLen < 2 {
		minLen = 2
	}
	var out []string
	start := -1
	for i, b := range image {
		if b >= 0x20 && b <= 0x7e {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 && i-start >= minLen {
			out = append(out, string(image[start:i]))
		}
		start = -1
	}
	if start >= 0 && len(image)-start >= minLen {
		out = append(out, string(image[start:]))
	}
	return out
}

func printableASCII(s string) bool {
	for _, r := range s {
		if r < 0x20 || r > 0x7e {
			return false
		}
	}
	return s != ""
}

// GrepImage returns the strings in an image that contain the needle
// (case-insensitive) — a convenience for exfiltration triage.
func GrepImage(image []byte, needle string, minLen int) []string {
	needle = strings.ToLower(needle)
	var out []string
	for _, s := range Strings(image, minLen) {
		if strings.Contains(strings.ToLower(s), needle) {
			out = append(out, s)
		}
	}
	return out
}
