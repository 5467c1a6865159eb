package bufpool

import "testing"

func TestGetRecycleAccounting(t *testing.T) {
	p := NewPool(2048)
	a := p.Get()
	b := p.Get()
	if a == b || p.InUse() != 2 {
		t.Fatalf("two Gets: same buffer %v, InUse=%d", a == b, p.InUse())
	}
	a.Release()
	b.Release()
	if p.InUse() != 0 || len(p.free) != 2 {
		t.Fatalf("InUse=%d Free=%d after releases", p.InUse(), len(p.free))
	}
	c := p.Get()
	if c != a && c != b {
		t.Error("Get after recycle allocated a fresh buffer")
	}
	if c.Len() != 0 {
		t.Errorf("recycled buffer has stale length %d", c.Len())
	}
	c.Release()
}

func TestRetainKeepsBufferLive(t *testing.T) {
	p := NewPool(64)
	b := p.Get()
	b.Append([]byte("frame"))
	dup := b.Retain()
	b.Release()
	if p.InUse() != 1 {
		t.Fatalf("InUse=%d with one reference outstanding", p.InUse())
	}
	if string(dup.Bytes()) != "frame" {
		t.Errorf("contents lost after first release: %q", dup.Bytes())
	}
	dup.Release()
	if p.InUse() != 0 {
		t.Errorf("leak: InUse=%d after all releases", p.InUse())
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool(64)
	b := p.Get()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	b.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	b := Wrap([]byte("x"))
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("Retain after final Release did not panic")
		}
	}()
	b.Retain()
}

func TestExtendBounds(t *testing.T) {
	p := NewPool(16)
	b := p.Get()
	if got := b.Extend(10); len(got) != 10 {
		t.Fatalf("Extend(10) returned %d bytes", len(got))
	}
	if b.Extend(7) != nil {
		t.Error("Extend over capacity did not fail")
	}
	if b.Len() != 10 {
		t.Errorf("failed Extend mutated length: %d", b.Len())
	}
	b.Release()
}

func TestAppendOverCapacityPanics(t *testing.T) {
	p := NewPool(4)
	b := p.Get()
	defer b.Release()
	defer func() {
		if recover() == nil {
			t.Error("Append over capacity did not panic")
		}
	}()
	b.Append([]byte("too long"))
}

func TestWrapIsPoolLess(t *testing.T) {
	b := Wrap([]byte("hello"))
	if b.Len() != 5 || string(b.Bytes()) != "hello" {
		t.Fatalf("Wrap contents wrong: %q", b.Bytes())
	}
	b.Retain()
	b.Release()
	b.Release() // last reference; nothing to recycle, must not panic
}

// TestLeakDetection is the pattern hot-path tests use: drive traffic, then
// assert the pool drained.
func TestLeakDetection(t *testing.T) {
	p := NewPool(2048)
	first := p.Get()
	first.Release()
	for i := 0; i < 100; i++ {
		b := p.Get()
		if b != first {
			t.Fatalf("get %d allocated a fresh buffer; sequential get/release should reuse one", i)
		}
		b.Append(make([]byte, 1500))
		if i%3 == 0 {
			dup := b.Retain()
			dup.Release()
		}
		b.Release()
	}
	if p.InUse() != 0 {
		t.Fatalf("leak: %d buffers still in use", p.InUse())
	}
}
