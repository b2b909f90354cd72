package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The traced run's span recorder. Spans are recorded from this
// directory's own files, around the calls into each layer's public
// functions; they are kept in memory and written out when the run ends.

// span is one timed call into a layer. It holds no pointers, so the
// garbage collector never scans the span log: recording spans must not
// change the GC work of the epochs being timed.
type span struct {
	ID     int32
	Parent int32 // -1 for a top-level span
	Epoch  int32 // spans of one epoch share it; 0 = set-up
	Name   nameID
	Start  int64 // ns since the run's start
	End    int64
	// AllocBytes is the heap allocated while the span was open; only the
	// allocation pass fills it.
	AllocBytes uint64
}

// nameID indexes the recorder's name table.
type nameID int32

// recorder collects the spans of one goroutine; (vm, id) identifies a
// span across recorders.
type recorder struct {
	t0     time.Time
	vm     string
	epoch  int
	spans  []span
	open   []int // stack of open span indexes
	allocs bool  // bracket spans with ReadMemStats (the allocation pass)
	ms     runtime.MemStats
	names  []string // span names, indexed by nameID
	ids    map[string]nameID
}

func newRecorder(t0 time.Time, vm string, capacity int) *recorder {
	return &recorder{t0: t0, vm: vm, spans: make([]span, 0, capacity), ids: make(map[string]nameID)}
}

func (r *recorder) name(name string) nameID {
	id, ok := r.ids[name]
	if !ok {
		id = nameID(len(r.names))
		r.ids[name] = id
		r.names = append(r.names, name)
	}
	return id
}

func (r *recorder) heap() uint64 {
	runtime.ReadMemStats(&r.ms)
	return r.ms.TotalAlloc
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = int32(r.open[n-1])
	}
	s := span{ID: int32(len(r.spans)), Parent: parent, Epoch: int32(r.epoch), Name: r.name(name)}
	if r.allocs {
		s.AllocBytes = r.heap()
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, s)
	r.spans[s.ID].Start = int64(time.Since(r.t0))
}

// end closes the innermost open span.
func (r *recorder) end() {
	now := int64(time.Since(r.t0))
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = now
	if r.allocs {
		r.spans[i].AllocBytes = r.heap() - r.spans[i].AllocBytes
	}
}

// child adds an already-measured span of the given length under the
// innermost open span: a commit sub-phase the checkpointer timed itself,
// or one detector module inside Detector.Scan. Start is laid out after
// the previous child so the file reads as a timeline.
func (r *recorder) child(name string, offset, dur time.Duration) {
	parent := r.open[len(r.open)-1]
	start := r.spans[parent].Start + int64(offset)
	r.spans = append(r.spans, span{
		ID: int32(len(r.spans)), Parent: int32(parent), Epoch: int32(r.epoch), Name: r.name(name),
		Start: start, End: start + int64(dur),
	})
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	total int64 // ns
	self  int64 // total minus the part child spans cover
	alloc uint64
}

// aggregate sums the recorder's spans from index `from` to `to` by
// name. A span's self time is its duration minus its children's.
func (r *recorder) aggregate(from, to int) map[string]*spanStats {
	spans := r.spans[from:to]
	out := make(map[string]*spanStats)
	covered := make(map[int32]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		name := r.names[s.Name]
		st := out[name]
		if st == nil {
			st = &spanStats{}
			out[name] = st
		}
		st.count++
		st.total += s.End - s.Start
		st.self += s.End - s.Start - covered[s.ID]
		st.alloc += s.AllocBytes
	}
	return out
}

// spanRecord is a span as written to the trace file.
type spanRecord struct {
	ID         int32  `json:"id"`
	Parent     int32  `json:"parent"`
	Epoch      int32  `json:"epoch"`
	VM         string `json:"vm"`
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// writeSpans writes one JSON object per span to
// <dir>/<workload>.trace.jsonl.
func writeSpans(dir, workload string, recs ...*recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		for _, s := range rec.spans {
			if err := enc.Encode(spanRecord{
				ID: s.ID, Parent: s.Parent, Epoch: s.Epoch, VM: rec.vm, Name: rec.names[s.Name],
				Start: s.Start, End: s.End, AllocBytes: s.AllocBytes,
			}); err != nil {
				f.Close()
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
