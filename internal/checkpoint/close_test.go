package checkpoint

import (
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/hv"
)

// TestCloseIdempotent closes a checkpointer repeatedly, serially and
// concurrently: every call past the first must be a no-op returning
// nil. Run under -race this is the regression test for the formerly
// unsynchronized closed flag.
func TestCloseIdempotent(t *testing.T) {
	for _, opt := range allOpts() {
		t.Run(opt.String(), func(t *testing.T) {
			_, _, c := newPair(t, opt)
			if err := c.Close(); err != nil {
				t.Fatalf("first close: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := c.Close(); err != nil {
						t.Errorf("concurrent close: %v", err)
					}
				}()
			}
			wg.Wait()
			if _, err := c.Checkpoint(); err != ErrClosed {
				t.Errorf("Checkpoint after close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestCloseIdempotentWithRemote covers the pipelined-replication close
// path: the shipper drains once, and a double close does not touch the
// already-released conduits.
func TestCloseIdempotentWithRemote(t *testing.T) {
	h := hv.New(3*domPages + 16)
	d, err := h.CreateDomain("vm", domPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := newCkpt(h, d, cost.Full, 4)
	if err != nil {
		t.Fatalf("NewWithParams: %v", err)
	}
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}
	d.MarkAllDirty()
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
