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

func TestLayoutContains(t *testing.T) {
	l, _ := NewLayout(128<<20, 64<<10)
	if !l.TextData.Contains(l.TextData.Base) {
		t.Error("Contains(base) = false")
	}
	if l.TextData.Contains(l.TextData.End()) {
		t.Error("Contains(end) = true; range should be half-open")
	}
}

func TestExtentAllocFreeCycle(t *testing.T) {
	r := Region{Name: "heap", Base: 0x100000000, Size: 16 * SuperpageSize}
	e := NewExtent(r)
	a, err := e.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if a != r.Base {
		t.Errorf("first alloc at %#x, want region base %#x", a, r.Base)
	}
	b, err := e.Alloc(12)
	if err != nil {
		t.Fatal(err)
	}
	if b != r.Base+4*SuperpageSize {
		t.Errorf("second alloc at %#x", b)
	}
	if _, err := e.Alloc(1); err == nil {
		t.Error("alloc from exhausted extent succeeded")
	}
	if err := e.Free(a, 4); err != nil {
		t.Fatal(err)
	}
	if e.FreeChunks() != 4 {
		t.Errorf("FreeChunks = %d, want 4", e.FreeChunks())
	}
	if _, err := e.Alloc(4); err != nil {
		t.Errorf("re-alloc after free failed: %v", err)
	}
}

func TestExtentContiguityRequirement(t *testing.T) {
	r := Region{Name: "heap", Base: 0, Size: 4 * SuperpageSize}
	e := NewExtent(r)
	a, _ := e.Alloc(1)
	_, _ = e.Alloc(1)
	c, _ := e.Alloc(1)
	_, _ = e.Alloc(1)
	e.Free(a, 1)
	e.Free(c, 1)
	// Two free chunks exist but are not contiguous.
	if _, err := e.Alloc(2); err == nil {
		t.Error("non-contiguous chunks satisfied a contiguous request")
	}
}

func TestExtentDoubleFreeDetected(t *testing.T) {
	e := NewExtent(Region{Base: 0, Size: 2 * SuperpageSize})
	a, _ := e.Alloc(1)
	if err := e.Free(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Free(a, 1); err == nil {
		t.Error("double free undetected")
	}
}

func TestExtentSuperpageMapOps(t *testing.T) {
	e := NewExtent(Region{Base: 0, Size: 8 * SuperpageSize})
	e.Alloc(8)
	if e.MapOps != 8 {
		t.Errorf("MapOps = %d, want 8 (one per superpage)", e.MapOps)
	}
}

func TestSlabSizeClasses(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 16}, {16, 16}, {17, 32}, {100, 128}, {4096, 4096},
	} {
		if got := sizeClass(tc.n); got != tc.want {
			t.Errorf("sizeClass(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSlabAllocCarvesPages(t *testing.T) {
	s := NewSlab()
	perPage := PageSize / 64
	for i := 0; i < perPage; i++ {
		if _, err := s.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	if s.PagesUsed != 1 {
		t.Errorf("PagesUsed = %d after one page worth, want 1", s.PagesUsed)
	}
	s.Alloc(64)
	if s.PagesUsed != 2 {
		t.Errorf("PagesUsed = %d, want 2", s.PagesUsed)
	}
}

func TestSlabFreeRecycles(t *testing.T) {
	s := NewSlab()
	c, _ := s.Alloc(200)
	s.Free(c)
	s.Alloc(200)
	if s.PagesUsed != 1 {
		t.Errorf("PagesUsed = %d, want 1 (free object should be reused)", s.PagesUsed)
	}
}

func TestSlabRejectsOversized(t *testing.T) {
	s := NewSlab()
	if _, err := s.Alloc(PageSize + 1); err == nil {
		t.Error("oversized slab alloc accepted")
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

func TestHeapMajorCollectReclaimsDeadData(t *testing.T) {
	cfg := DefaultHeapConfig()
	h := NewHeap(cfg)
	h.AllocMajor(10 << 20)
	h.Release(8 << 20)
	before := h.majorUsed
	// Force pressure until a major GC runs.
	for h.MajorGCs == 0 {
		h.AllocMajor(1 << 20)
	}
	if h.majorUsed >= before+20<<20 {
		t.Error("major GC did not reclaim dead data")
	}
}

// Property: extent allocator conserves chunks — free count plus allocated
// count always equals the total.
func TestPropExtentConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		e := NewExtent(Region{Base: 0, Size: 32 * SuperpageSize})
		type allocation struct {
			addr uint64
			n    int
		}
		var allocs []allocation
		held := 0
		for _, op := range ops {
			n := int(op%4) + 1
			if op%2 == 0 {
				if addr, err := e.Alloc(n); err == nil {
					allocs = append(allocs, allocation{addr, n})
					held += n
				}
			} else if len(allocs) > 0 {
				i := int(op) % len(allocs)
				a := allocs[i]
				if e.Free(a.addr, a.n) == nil {
					held -= a.n
					allocs = append(allocs[:i], allocs[i+1:]...)
				}
			}
			if e.FreeChunks()+held != len(e.used) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
