package cstruct

import (
	"testing"
	"testing/quick"
)

func TestEndianRoundTrip(t *testing.T) {
	v := Make(64)
	v.PutBE16(0, 0xBEEF)
	v.PutBE32(2, 0xDEADBEEF)
	v.PutBE64(6, 0x0123456789ABCDEF)
	v.PutLE16(14, 0xBEEF)
	v.PutLE32(16, 0xDEADBEEF)
	v.PutLE64(20, 0x0123456789ABCDEF)
	v.PutU8(28, 0x7F)
	if v.BE16(0) != 0xBEEF || v.BE32(2) != 0xDEADBEEF || v.BE64(6) != 0x0123456789ABCDEF {
		t.Error("big-endian round trip failed")
	}
	if v.LE16(14) != 0xBEEF || v.LE32(16) != 0xDEADBEEF || v.LE64(20) != 0x0123456789ABCDEF {
		t.Error("little-endian round trip failed")
	}
	if v.U8(28) != 0x7F {
		t.Error("u8 round trip failed")
	}
}

func TestBigEndianByteOrderOnWire(t *testing.T) {
	v := Make(4)
	v.PutBE32(0, 0x01020304)
	b := v.Bytes()
	if b[0] != 1 || b[1] != 2 || b[2] != 3 || b[3] != 4 {
		t.Errorf("wire bytes = %v, want [1 2 3 4]", b)
	}
}

func TestSubViewSharesStorage(t *testing.T) {
	p := NewPool()
	v := p.Get()
	sub := v.Sub(100, 4)
	sub.PutBE32(0, 0xCAFEF00D)
	if v.BE32(100) != 0xCAFEF00D {
		t.Error("sub-view write not visible through parent (copy happened?)")
	}
}

func TestSubViewBoundsEnforced(t *testing.T) {
	v := Make(10)
	for _, tc := range [][2]int{{8, 4}, {-1, 2}, {0, 11}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sub(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			v.Sub(tc[0], tc[1])
		}()
	}
}

func TestAccessBoundsEnforced(t *testing.T) {
	v := Make(4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds BE32 did not panic")
		}
	}()
	v.BE32(2)
}

func TestSubViewCannotWidenBeyondItsWindow(t *testing.T) {
	v := Make(100)
	sub := v.Sub(10, 20)
	defer func() {
		if recover() == nil {
			t.Error("access past sub-view length did not panic")
		}
	}()
	sub.U8(20)
}

func TestPageRecycledWhenAllViewsReleased(t *testing.T) {
	p := NewPool()
	v := p.Get()
	a := v.Sub(0, 10)
	b := v.Sub(10, 10)
	v.Release()
	a.Release()
	if p.FreePages() != 0 {
		t.Fatal("page recycled while a view is still live")
	}
	b.Release()
	if p.FreePages() != 1 {
		t.Fatal("page not recycled after final release")
	}
	if p.InUse != 0 || p.Recycled != 1 {
		t.Errorf("stats InUse=%d Recycled=%d, want 0/1", p.InUse, p.Recycled)
	}
}

func TestPoolReusesRecycledPageZeroed(t *testing.T) {
	p := NewPool()
	v := p.Get()
	v.PutBE64(0, ^uint64(0))
	v.Release()
	w := p.Get()
	if p.Allocated != 1 {
		t.Errorf("Allocated = %d, want 1 (page should be reused)", p.Allocated)
	}
	if w.BE64(0) != 0 {
		t.Error("recycled page not zeroed")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	v := p.Get()
	v.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	v.Release()
}

func TestWrappedViewReleaseIsNoOp(t *testing.T) {
	v := Wrap(make([]byte, 8))
	v.Release() // must not panic
	v.Release()
}

func TestCopyDetaches(t *testing.T) {
	p := NewPool()
	v := p.Get()
	v.PutBE32(0, 42)
	c := v.Copy()
	v.PutBE32(0, 99)
	if c.BE32(0) != 42 {
		t.Error("Copy shares storage; want detached")
	}
}

func TestShiftAndStringAndFill(t *testing.T) {
	v := Make(16)
	v.PutBytes(4, []byte("mirage"))
	s := v.Sub(4, 12)
	if s.String(0, 6) != "mirage" {
		t.Errorf("String = %q, want mirage", s.String(0, 6))
	}
	s.Fill(0, 6, 'x')
	if v.String(4, 6) != "xxxxxx" {
		t.Error("Fill through shifted view not visible in parent")
	}
}

// Property: any chain of nested sub-views reads the same bytes as indexing
// the root directly.
func TestPropNestedSubViewsConsistent(t *testing.T) {
	f := func(data []byte, cuts []uint8) bool {
		if len(data) == 0 {
			return true
		}
		root := Wrap(data)
		v := root
		base := 0
		for _, c := range cuts {
			if v.Len() == 0 {
				break
			}
			off := int(c) % v.Len()
			n := v.Len() - off
			v = v.Sub(off, n)
			base += off
		}
		for i := 0; i < v.Len(); i++ {
			if v.U8(i) != data[base+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: pool conservation — after releasing every view, InUse is zero
// and free list holds every allocated page.
func TestPropPoolConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		p := NewPool()
		var live []*View
		for _, op := range ops {
			if op%3 == 0 || len(live) == 0 {
				live = append(live, p.Get())
			} else if op%3 == 1 {
				v := live[int(op)%len(live)]
				live = append(live, v.Sub(0, v.Len()/2))
			} else {
				i := int(op) % len(live)
				live[i].Release()
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, v := range live {
			v.Release()
		}
		return p.InUse == 0 && p.FreePages() == p.Allocated
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
