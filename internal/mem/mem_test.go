package mem

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLayoutRegionsOrderedAndDisjoint(t *testing.T) {
	l, err := NewLayout(128<<20, 200<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	rs := l.Regions()
	for i := 1; i < len(rs); i++ {
		if rs[i].Base < rs[i-1].End() {
			t.Errorf("region %s overlaps %s", rs[i].Name, rs[i-1].Name)
		}
	}
}

func TestLayoutMajorHeapGetsRemainder(t *testing.T) {
	l, err := NewLayout(256<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if l.MajorHeap.Size < 200<<20 {
		t.Errorf("major heap %d bytes, want most of 256 MiB", l.MajorHeap.Size)
	}
	if l.MinorHeap.Size != SuperpageSize {
		t.Errorf("minor heap %d, want one superpage", l.MinorHeap.Size)
	}
}

func TestLayoutTooSmallRejected(t *testing.T) {
	if _, err := NewLayout(4<<20, 1<<20); err == nil {
		t.Error("tiny layout accepted")
	}
}

func TestHeapMinorCollectionTriggered(t *testing.T) {
	cfg := DefaultHeapConfig()
	cfg.MinorSize = 1024
	h := NewHeap(cfg)
	for i := 0; i < 100; i++ {
		h.Alloc(64)
	}
	if h.MinorGCs == 0 {
		t.Error("no minor GC after overflowing minor heap")
	}
	if h.Cost == 0 {
		t.Error("collections accrued no cost")
	}
}

func TestHeapExtentCheaperThanMalloc(t *testing.T) {
	run := func(backend GrowthBackend, chunkTrack, syscall time.Duration) time.Duration {
		cfg := DefaultHeapConfig()
		cfg.Backend = backend
		cfg.ChunkTrackCost = chunkTrack
		cfg.SyscallCost = syscall
		h := NewHeap(cfg)
		for i := 0; i < 2_000_000; i++ {
			h.Alloc(64) // a thread record
		}
		return h.Cost
	}
	extent := run(GrowExtent, 0, 0)
	malloc := run(GrowMalloc, 50*time.Nanosecond, 0)
	pv := run(GrowMalloc, 50*time.Nanosecond, 2*time.Microsecond)
	if !(extent < malloc && malloc < pv) {
		t.Errorf("cost ordering violated: extent=%v malloc=%v pv=%v", extent, malloc, pv)
	}
}

func TestHeapDrainClearsCost(t *testing.T) {
	cfg := DefaultHeapConfig()
	cfg.MinorSize = 1024
	h := NewHeap(cfg)
	for i := 0; i < 1000; i++ {
		h.Alloc(64)
	}
	c := h.Drain()
	if c == 0 {
		t.Fatal("Drain returned zero cost")
	}
	if h.Cost != 0 {
		t.Error("Cost not cleared by Drain")
	}
}

// Property: heap cost is monotonically non-decreasing under allocation.
func TestPropHeapCostMonotone(t *testing.T) {
	f := func(sizes []uint16) bool {
		cfg := DefaultHeapConfig()
		cfg.MinorSize = 4096
		h := NewHeap(cfg)
		var prev time.Duration
		for _, s := range sizes {
			h.Alloc(int(s%512) + 1)
			if h.Cost < prev {
				return false
			}
			prev = h.Cost
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
