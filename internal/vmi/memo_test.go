package vmi

import (
	"sync"
	"testing"

	"repro/internal/guestos"
	"repro/internal/mem"
)

func TestMemoHitSkipsWork(t *testing.T) {
	g, ctx := bootGuest(t, guestos.LinuxProfile())
	if _, err := g.StartProcess("nginx", 33, 4); err != nil {
		t.Fatal(err)
	}
	ctx.SetMemo(NewWalkMemo())

	ctx.ResetStats()
	first, err := ctx.ProcessList()
	if err != nil {
		t.Fatal(err)
	}
	miss := ctx.Stats()
	if miss.NodesWalked == 0 || miss.BytesRead == 0 {
		t.Fatalf("miss stats = %+v, want real work", miss)
	}

	second, err := ctx.ProcessList()
	if err != nil {
		t.Fatal(err)
	}
	hit := ctx.Stats()
	if hit != miss {
		t.Fatalf("hit stats = %+v, want unchanged %+v (memoized walk must do zero reads)", hit, miss)
	}
	if len(second) != len(first) {
		t.Fatalf("hit returned %d processes, miss returned %d", len(second), len(first))
	}
	for i := range first {
		if second[i] != first[i] {
			t.Fatalf("process %d differs: %+v != %+v", i, second[i], first[i])
		}
	}
	ms := ctx.Memo().Stats()
	if ms.Misses != 1 || ms.Hits != 1 {
		t.Fatalf("memo stats = %+v, want 1 miss / 1 hit", ms)
	}
}

func TestMemoHitResultIsMutationSafe(t *testing.T) {
	g, ctx := bootGuest(t, guestos.LinuxProfile())
	if _, err := g.StartProcess("nginx", 33, 4); err != nil {
		t.Fatal(err)
	}
	ctx.SetMemo(NewWalkMemo())
	first, err := ctx.ProcessList()
	if err != nil {
		t.Fatal(err)
	}
	name := first[0].Name
	first[0].Name = "clobbered"
	second, err := ctx.ProcessList()
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Name != name {
		t.Fatalf("memoized result aliased a caller's mutation: %q", second[0].Name)
	}
}

// A view aliases the memo's stored walk, and the memo never writes a
// stored walk: invalidation drops it and the next miss stores a new one,
// so a view taken before a task-list change still reads what it read.
func TestMemoViewOutlivesInvalidation(t *testing.T) {
	g, ctx := bootGuest(t, guestos.LinuxProfile())
	dom := g.Domain()
	if _, err := g.StartProcess("nginx", 33, 4); err != nil {
		t.Fatal(err)
	}
	ctx.SetMemo(NewWalkMemo())
	old, err := ctx.ProcessListView()
	if err != nil {
		t.Fatal(err)
	}
	hit, err := ctx.ProcessListView()
	if err != nil {
		t.Fatal(err)
	}
	if len(hit) == 0 || &hit[0] != &old[0] {
		t.Fatal("a memo hit's view is not the stored walk")
	}
	want := append([]ProcessInfo(nil), old...)

	dom.EnableDirtyLogging()
	if _, err := g.StartProcess("newproc", 33, 4); err != nil {
		t.Fatal(err)
	}
	dirty := mem.NewBitmap(dom.Pages())
	if err := dom.HarvestDirty(dirty); err != nil {
		t.Fatal(err)
	}
	if n := ctx.Memo().Invalidate(dirty); n == 0 {
		t.Fatal("Invalidate dropped nothing after a task-list mutation")
	}
	fresh, err := ctx.ProcessListView()
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(want)+1 {
		t.Fatalf("post-invalidation view has %d processes, want %d", len(fresh), len(want)+1)
	}
	if len(old) != len(want) {
		t.Fatalf("the earlier view changed length: %d, want %d", len(old), len(want))
	}
	for i := range want {
		if old[i] != want[i] {
			t.Fatalf("the earlier view's process %d changed: %+v, want %+v", i, old[i], want[i])
		}
	}
}

func TestMemoInvalidatesOnDirtyPage(t *testing.T) {
	g, ctx := bootGuest(t, guestos.LinuxProfile())
	dom := g.Domain()
	ctx.SetMemo(NewWalkMemo())

	before, err := ctx.ProcessList()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.SyscallTable(); err != nil {
		t.Fatal(err)
	}

	// Mutate the task list with dirty logging on; the insertion rewrites
	// pages the memoized walk touched.
	dom.EnableDirtyLogging()
	if _, err := g.StartProcess("newproc", 33, 4); err != nil {
		t.Fatal(err)
	}
	dirty := mem.NewBitmap(dom.Pages())
	if err := dom.HarvestDirty(dirty); err != nil {
		t.Fatal(err)
	}

	memo := ctx.Memo()
	if n := memo.Invalidate(dirty); n == 0 {
		t.Fatal("Invalidate dropped nothing after a task-list mutation")
	}
	after, err := ctx.ProcessList()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("post-invalidation walk saw %d processes, want %d", len(after), len(before)+1)
	}
	found := false
	for _, p := range after {
		if p.Name == "newproc" {
			found = true
		}
	}
	if !found {
		t.Fatal("post-invalidation walk missed the new process")
	}
}

func TestMemoUntouchedWritesKeepEntries(t *testing.T) {
	g, ctx := bootGuest(t, guestos.LinuxProfile())
	dom := g.Domain()
	ctx.SetMemo(NewWalkMemo())
	if _, err := ctx.ProcessList(); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.ModuleList(); err != nil {
		t.Fatal(err)
	}
	entries := ctx.Memo().Entries()

	// Dirty a page outside any kernel structure: the last guest page,
	// far past the boot structures.
	dom.EnableDirtyLogging()
	last := uint64(dom.Pages()-1) * mem.PageSize
	if err := dom.WritePhys(last, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dirty := mem.NewBitmap(dom.Pages())
	if err := dom.HarvestDirty(dirty); err != nil {
		t.Fatal(err)
	}
	if n := ctx.Memo().Invalidate(dirty); n != 0 {
		t.Fatalf("Invalidate dropped %d entries for an unrelated write", n)
	}
	if got := ctx.Memo().Entries(); got != entries {
		t.Fatalf("entries = %d after unrelated write, want %d", got, entries)
	}
}

func TestMemoSingleFlightAcrossForks(t *testing.T) {
	g, ctx := bootGuest(t, guestos.LinuxProfile())
	if _, err := g.StartProcess("nginx", 33, 4); err != nil {
		t.Fatal(err)
	}
	ctx.SetMemo(NewWalkMemo())

	want, err := ctx.ProcessList()
	if err != nil {
		t.Fatal(err)
	}
	all := mem.NewBitmap(g.Domain().Pages())
	for i := 0; i < all.Len(); i++ {
		all.Set(i)
	}
	ctx.Memo().Invalidate(all)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := ctx.Fork()
			got, err := f.ProcessList()
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(want) {
				t.Errorf("fork saw %d processes, want %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
	ms := ctx.Memo().Stats()
	if ms.Misses != 2 || ms.Hits != 7 {
		t.Fatalf("memo stats = %+v, want exactly one concurrent miss (2 total) and 7 hits", ms)
	}
}

// TestProcessListAllocBound locks in the scratch-buffer reuse: a list
// walk must not allocate a record buffer per node, so the per-walk
// allocation count stays at roughly one string per process plus slice
// growth — well under two allocations per node.
func TestProcessListAllocBound(t *testing.T) {
	g, ctx := bootGuest(t, guestos.LinuxProfile())
	for i := 0; i < 24; i++ {
		if _, err := g.StartProcess("worker", 33, 1); err != nil {
			t.Fatal(err)
		}
	}
	procs, err := ctx.ProcessList()
	if err != nil {
		t.Fatal(err)
	}
	n := len(procs)
	if n < 24 {
		t.Fatalf("only %d processes visible", n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ctx.ProcessList(); err != nil {
			t.Fatal(err)
		}
	})
	// One name string per node plus O(log n) slice regrowth; a per-node
	// record allocation would push this past 2n.
	bound := float64(n) + 16
	if allocs > bound {
		t.Fatalf("ProcessList allocates %.0f per run for %d nodes, want <= %.0f", allocs, n, bound)
	}
}

func BenchmarkProcessList(b *testing.B) {
	g, ctx := bootGuest(b, guestos.LinuxProfile())
	for i := 0; i < 24; i++ {
		if _, err := g.StartProcess("worker", 33, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.ProcessList(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPIDHashList(b *testing.B) {
	g, ctx := bootGuest(b, guestos.LinuxProfile())
	for i := 0; i < 24; i++ {
		if _, err := g.StartProcess("worker", 33, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.PIDHashList(); err != nil {
			b.Fatal(err)
		}
	}
}
