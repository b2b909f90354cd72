package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/hv"
	"repro/internal/mem"
)

// checker counts the operations a run attempted and the ones that
// failed an output check. A failed check counts in failed_share and
// makes the command exit non-zero.
type checker struct {
	attempted int
	failed    int
	msgs      []string // first few failure descriptions
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 12 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// merge folds another checker's counts in.
func (c *checker) merge(o checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, m := range o.msgs {
		if len(c.msgs) < 12 {
			c.msgs = append(c.msgs, m)
		}
	}
}

func (c *checker) share() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// cleanEpoch checks one epoch of a clean workload: no error, no
// unwind, no findings, no incident. It reports whether the epoch
// committed cleanly.
func (c *checker) cleanEpoch(label string, res *core.EpochResult, err error) bool {
	c.attempted++
	switch {
	case err != nil:
		c.fail("%s: %v", label, err)
	case res == nil:
		c.fail("%s: no result", label)
	case res.Recovery.Unwind != core.UnwindNone:
		c.fail("%s: unwound via %s", label, res.Recovery.Unwind)
	case len(res.Findings) > 0 || res.Incident != nil:
		c.fail("%s: unexpected finding %v", label, kinds(res.Findings))
	default:
		return true
	}
	return false
}

// vmStats checks the per-VM accounting of a fleet or cluster run. Both
// swallow per-VM errors — an early-stopped VM otherwise looks like a
// fast one — so the epochs are counted from CleanEpochs, never assumed.
func (c *checker) vmStats(stats []fleet.Stats, want int) {
	for _, s := range stats {
		c.attempted += want
		missing := want - s.CleanEpochs
		if missing < 0 {
			missing = 0
		}
		c.failed += missing
		switch {
		case s.Err != "":
			c.note(missing, "%s: stopped with error: %s", s.Name, s.Err)
		case s.Halted:
			c.note(missing, "%s: halted", s.Name)
		case s.Findings > 0 || s.Incidents > 0:
			c.note(missing, "%s: %d findings, %d incidents in a clean workload", s.Name, s.Findings, s.Incidents)
		case s.Unwinds > 0:
			c.note(missing, "%s: %d epochs unwound", s.Name, s.Unwinds)
		case missing > 0:
			c.note(missing, "%s: %d of %d epochs committed cleanly", s.Name, s.CleanEpochs, want)
		}
	}
}

// note records a description for failures already counted; when none
// were (the VM reached its epoch count but still reports a problem) it
// counts one.
func (c *checker) note(counted int, format string, args ...any) {
	if counted == 0 {
		c.fail(format, args...)
		return
	}
	if len(c.msgs) < 12 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// digestsEqual checks that every copy of a VM's memory holds the same
// bytes: primary, local backup and, where there is one, the remote
// replica.
func (c *checker) digestsEqual(label string, sums map[string][32]byte) {
	c.attempted++
	want, ok := sums["primary"]
	if !ok {
		c.fail("%s: no primary digest", label)
		return
	}
	for name, sum := range sums {
		if sum != want {
			c.fail("%s: %s digest %s differs from primary %s", label, name,
				hex.EncodeToString(sum[:6]), hex.EncodeToString(want[:6]))
			return
		}
	}
}

// outputs checks that exactly the packets sent in committed epochs
// were delivered, and that nothing sent in an attacked epoch was.
func (c *checker) outputs(label string, sent, delivered tallySnapshot) {
	c.attempted++
	switch {
	case delivered.Attacked > 0:
		c.fail("%s: %d outputs of an attacked epoch reached the deliverer", label, delivered.Attacked)
	case delivered.Clean != sent.Clean || delivered.Bytes != sent.Bytes || delivered.Hash != sent.Hash:
		c.fail("%s: delivered %d packets (%d B), committed epochs sent %d (%d B)", label,
			delivered.Clean, delivered.Bytes, sent.Clean, sent.Bytes)
	}
}

// attack is what incident-forensics injected in one iteration.
type attack struct {
	family string
	pid    uint32 // the process the injected write ran as (overflow)
	va     uint64 // the overflowed allocation (overflow)
}

func (a attack) kind() detect.Kind {
	switch a.family {
	case "overflow":
		return detect.KindBufferOverflow
	case "malware":
		return detect.KindMalware
	case "hijack":
		return detect.KindSyscallHijack
	default:
		return detect.KindHiddenProcess
	}
}

// reportSections are the strings the rendered forensic report must
// contain for each attack family.
var reportSections = map[string][]string{
	"overflow": {"=== CRIMES Forensic Report: Buffer Overflow", "attack pinpointed by replay", "victim memory map"},
	"malware":  {"=== CRIMES Forensic Report: Malware", "Malware detected:", "Open Sockets:", "Extracted executable image"},
	"hijack":   {"=== CRIMES Forensic Report: Kernel Integrity", "syscall table entry"},
	"hidden":   {"=== CRIMES Forensic Report: Hidden Process", "psxview Cross View:"},
}

// incident checks the attacked epoch: detected in that epoch, finding
// kind matching the family, the overflow pinpointed to the injected
// write, the report rendered with its sections.
func (c *checker) incident(label string, a attack, findings []detect.Finding, pin *pinpoint, rendered string, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.fail("%s: %v", label, err)
		return
	case len(findings) == 0:
		c.fail("%s: %s attack not detected in its epoch", label, a.family)
		return
	}
	matched := false
	for _, f := range findings {
		matched = matched || f.Kind == a.kind()
	}
	if !matched {
		c.fail("%s: %s attack raised %v, want %v", label, a.family, kinds(findings), a.kind())
		return
	}
	if a.family == "overflow" {
		switch {
		case pin == nil:
			c.fail("%s: overflow not pinpointed", label)
			return
		case pin.pid != a.pid || pin.va != a.va:
			c.fail("%s: pinpoint names pid %d va %#x, injected write was pid %d va %#x", label, pin.pid, pin.va, a.pid, a.va)
			return
		}
	}
	for _, want := range reportSections[a.family] {
		if !strings.Contains(rendered, want) {
			c.fail("%s: %s report lacks section %q", label, a.family, want)
			return
		}
	}
}

// pinpoint is the part of analyze.Pinpoint the check needs.
type pinpoint struct {
	pid uint32
	va  uint64
}

func kinds(fs []detect.Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Kind.String()
	}
	return out
}

// domainDigest hashes a domain's memory page by page (no full-size
// copy, so it does not move the process's peak RSS).
func domainDigest(d *hv.Domain) ([32]byte, error) {
	h := sha256.New()
	var page [mem.PageSize]byte
	for pfn := 0; pfn < d.Pages(); pfn++ {
		if err := d.ReadPhys(uint64(pfn)*mem.PageSize, page[:]); err != nil {
			return [32]byte{}, fmt.Errorf("digest %s: %w", d.Name(), err)
		}
		h.Write(page[:])
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, nil
}

// checkpointDigests hashes every copy of a VM's memory — primary, local
// backup and, where there is one, the remote replica — records them in
// the fingerprint and, given a checker, checks that they agree.
func checkpointDigests(label string, ckpt *checkpoint.Checkpointer, c *checker, f *fingerprint) error {
	sums := map[string][32]byte{}
	for _, cp := range []struct {
		name string
		dom  *hv.Domain
	}{{"primary", ckpt.Primary()}, {"backup", ckpt.Backup()}, {"remote", ckpt.Remote()}} {
		if cp.dom == nil {
			continue
		}
		sum, err := domainDigest(cp.dom)
		if err != nil {
			return err
		}
		sums[cp.name] = sum
		f.digest(label+"/"+cp.name, sum)
	}
	if c != nil {
		c.digestsEqual(label, sums)
	}
	return nil
}

// fingerprint identifies what a run did, independent of how long it
// took: the traced run must reproduce the measured run's fingerprint
// (trace.fidelity), two runs of one seed must agree on it, and two
// seeds must not.
type fingerprint struct {
	dirty    hash.Hash64 // per-epoch (vm, dirty page count) sequence
	Dirty    uint64
	Findings int
	Digests  []string // final memory digests, in a fixed order
	Visits   uint64   // the load generators' dirty-page sequences
}

func newFingerprint() fingerprint { return fingerprint{dirty: fnv.New64a()} }

func (f *fingerprint) epoch(vm, dirtyPages, findings int) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:], uint64(vm))
	binary.LittleEndian.PutUint64(b[8:], uint64(dirtyPages))
	f.dirty.Write(b[:])
	f.Dirty = f.dirty.Sum64()
	f.Findings += findings
}

// load folds in one generator's dirty-page sequence.
func (f *fingerprint) load(l *guestLoad) { f.Visits = f.Visits*31 + l.visits }

func (f *fingerprint) digest(label string, sum [32]byte) {
	f.Digests = append(f.Digests, label+"="+hex.EncodeToString(sum[:]))
}

func (f *fingerprint) equal(o *fingerprint) bool {
	if f.Dirty != o.Dirty || f.Findings != o.Findings || f.Visits != o.Visits || len(f.Digests) != len(o.Digests) {
		return false
	}
	for i := range f.Digests {
		if f.Digests[i] != o.Digests[i] {
			return false
		}
	}
	return true
}
