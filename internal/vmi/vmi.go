// Package vmi is the LibVMI equivalent: virtual-machine introspection
// that interprets a guest's raw memory from outside the VM. A Context
// is created in three phases matching the paper's Table 3 cost
// breakdown: initialization (parse System.map and detect the kernel),
// preprocessing (set up address translation and capture known-good
// state), and per-scan memory analysis (walking kernel structures).
// Only the third phase runs at every CRIMES checkpoint.
package vmi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/guestos"
	"repro/internal/mem"
)

var (
	// ErrNoSymbol is returned when a kernel symbol is missing.
	ErrNoSymbol = errors.New("vmi: symbol not found")
	// ErrCorruptList is returned when a kernel list walk does not
	// terminate or hits a record with a bad magic.
	ErrCorruptList = errors.New("vmi: corrupt kernel list")
)

// maxListNodes bounds kernel list walks so a corrupted list cannot hang
// the scanner.
const maxListNodes = 4096

// PhysReader provides access to guest-physical memory — either a live
// domain or a memory dump.
type PhysReader interface {
	ReadPhys(paddr uint64, buf []byte) error
	MemBytes() uint64
}

// Stats counts introspection work for cost accounting.
type Stats struct {
	BytesRead   int
	NodesWalked int
	SymLookups  int
}

// Context is an initialized introspection session against one guest.
type Context struct {
	r    PhysReader
	prof *guestos.Profile

	symbols map[string]uint64

	// Captured during preprocessing as known-good state.
	goodSyscalls []uint64

	stats Stats

	// memo, when set, memoizes structure walks across epochs; shared
	// with forks. trace is the touched-page set of the memoized walk
	// currently running on this context (nil otherwise); it belongs to
	// the memo, which reuses it for every miss.
	memo  *WalkMemo
	trace map[mem.PFN]struct{}

	// scratch is the per-node record buffer reused across list walks so
	// a walk does not allocate per node. Never retained past one node's
	// parse. tmp backs the word-sized pointer reads for the same reason:
	// a stack array passed through the PhysReader interface escapes,
	// costing one allocation per list node.
	scratch []byte
	tmp     [8]byte
}

// NewContext runs the initialization phase: it parses the guest's
// System.map text (as LibVMI does) and resolves the kernel profile.
func NewContext(r PhysReader, prof *guestos.Profile, systemMap string) (*Context, error) {
	syms, err := ParseSystemMap(systemMap)
	if err != nil {
		return nil, fmt.Errorf("vmi init: %w", err)
	}
	ctx := &Context{r: r, prof: prof, symbols: syms}
	for _, required := range []string{"init_task", "sys_call_table", "modules", "pid_hash"} {
		if _, ok := syms[required]; !ok {
			return nil, fmt.Errorf("vmi init: required symbol %q: %w", required, ErrNoSymbol)
		}
	}
	return ctx, nil
}

// Preprocess runs the preprocessing phase: it validates address
// translation and snapshots the known-good syscall table for later
// integrity checks. The paper's Table 3 shows this dominates setup cost
// together with init; it runs once, not per checkpoint.
func (c *Context) Preprocess() error {
	table, err := c.SyscallTable()
	if err != nil {
		return fmt.Errorf("vmi preprocess: %w", err)
	}
	c.goodSyscalls = table
	// Touch every major structure once to warm translations, as LibVMI's
	// preprocessing maps supporting structures.
	if _, err := c.ProcessList(); err != nil {
		return fmt.Errorf("vmi preprocess: %w", err)
	}
	if _, err := c.ModuleList(); err != nil {
		return fmt.Errorf("vmi preprocess: %w", err)
	}
	return nil
}

// ParseSystemMap parses "<16-hex-digit address> <type> <name>" lines.
func ParseSystemMap(text string) (map[string]uint64, error) {
	syms := make(map[string]uint64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 3 {
			return nil, fmt.Errorf("vmi: System.map line %d malformed: %q", ln+1, line)
		}
		addr, err := strconv.ParseUint(parts[0], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("vmi: System.map line %d address: %w", ln+1, err)
		}
		syms[parts[2]] = addr
	}
	if len(syms) == 0 {
		return nil, errors.New("vmi: empty System.map")
	}
	return syms, nil
}

// Symbol resolves a kernel symbol to its virtual address.
func (c *Context) Symbol(name string) (uint64, error) {
	c.stats.SymLookups++
	va, ok := c.symbols[name]
	if !ok {
		return 0, fmt.Errorf("vmi: %q: %w", name, ErrNoSymbol)
	}
	return va, nil
}

// Stats returns accumulated work counters.
func (c *Context) Stats() Stats { return c.stats }

// ResetStats zeroes the work counters.
func (c *Context) ResetStats() { c.stats = Stats{} }

// Fork returns a child context sharing this context's reader, symbol
// table, profile, and known-good state, but with independent work
// counters. Concurrent scan modules each introspect through their own
// fork (the shared state is read-only after Preprocess), then the
// caller folds the forks' counters back with AddStats.
func (c *Context) Fork() *Context {
	return &Context{
		r:            c.r,
		prof:         c.prof,
		symbols:      c.symbols,
		goodSyscalls: c.goodSyscalls,
		memo:         c.memo,
	}
}

// AddStats accumulates another context's counters into this one,
// merging a fork's work back after a concurrent scan.
func (c *Context) AddStats(s Stats) {
	c.stats.BytesRead += s.BytesRead
	c.stats.NodesWalked += s.NodesWalked
	c.stats.SymLookups += s.SymLookups
}

// Profile returns the kernel profile in use.
func (c *Context) Profile() *guestos.Profile { return c.prof }

// Reader returns the physical-memory source this context introspects.
// Forks share it, so it identifies the guest image across contexts —
// stateful scan modules key per-guest memos on it.
func (c *Context) Reader() PhysReader { return c.r }

// MemBytes reports the guest-physical memory size being introspected.
func (c *Context) MemBytes() uint64 { return c.r.MemBytes() }

// TranslateKV converts a kernel virtual address to guest-physical via
// the kernel linear map.
func (c *Context) TranslateKV(va uint64) uint64 { return va - c.prof.KernelVirtBase }

// ReadVA reads guest memory at a kernel virtual address.
func (c *Context) ReadVA(va uint64, buf []byte) error {
	c.stats.BytesRead += len(buf)
	pa := c.TranslateKV(va)
	c.tracePages(pa, len(buf))
	return c.r.ReadPhys(pa, buf)
}

// ReadPA reads guest-physical memory.
func (c *Context) ReadPA(pa uint64, buf []byte) error {
	c.stats.BytesRead += len(buf)
	c.tracePages(pa, len(buf))
	return c.r.ReadPhys(pa, buf)
}

// scratchBuf returns the context's reusable record buffer, grown to n
// bytes. The contents are only valid until the next scratchBuf call, so
// each list-walk iteration must finish parsing (copying out any strings)
// before reading the next node.
func (c *Context) scratchBuf(n int) []byte {
	if cap(c.scratch) < n {
		c.scratch = make([]byte, n)
	}
	return c.scratch[:n]
}

func (c *Context) readU32VA(va uint64) (uint32, error) {
	if err := c.ReadVA(va, c.tmp[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(c.tmp[:4]), nil
}

func (c *Context) readU64VA(va uint64) (uint64, error) {
	if err := c.ReadVA(va, c.tmp[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(c.tmp[:8]), nil
}

// CStr extracts a NUL-terminated string from a fixed-size field.
func CStr(b []byte) string {
	for i, ch := range b {
		if ch == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
