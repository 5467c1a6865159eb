package grant

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cstruct"
)

func TestGrantMapSharesStorage(t *testing.T) {
	tbl := NewTable()
	v := cstruct.Make(64)
	r := tbl.Grant(v, false)
	m, err := tbl.Map(r, false)
	if err != nil {
		t.Fatal(err)
	}
	m.PutBE32(0, 0xFEEDFACE)
	if v.BE32(0) != 0xFEEDFACE {
		t.Error("mapped grant is not zero-copy")
	}
	if err := tbl.Unmap(r, m); err != nil {
		t.Fatal(err)
	}
}

func TestGrantCopyDetaches(t *testing.T) {
	tbl := NewTable()
	copied := 0
	tbl.Hooks.OnCopy = func(n int) { copied += n }
	v := cstruct.Make(16)
	v.PutBE32(0, 7)
	r := tbl.Grant(v, true)
	c := cstruct.Make(16)
	if err := tbl.CopyInto(r, 0, c.Bytes()); err != nil {
		t.Fatal(err)
	}
	v.PutBE32(0, 8)
	if c.BE32(0) != 7 {
		t.Error("grant copy shares storage")
	}
	if copied != 16 {
		t.Errorf("OnCopy saw %d bytes, want 16", copied)
	}
}

func TestEndWhileMappedRefused(t *testing.T) {
	tbl := NewTable()
	v := cstruct.Make(16)
	r := tbl.Grant(v, false)
	m, _ := tbl.Map(r, false)
	if err := tbl.End(r); err == nil {
		t.Fatal("revoking a mapped grant succeeded (XSA-39 class bug)")
	}
	if tbl.Active() != 1 {
		t.Errorf("Active = %d after a refused End, want 1", tbl.Active())
	}
	tbl.Unmap(r, m)
	if err := tbl.End(r); err != nil {
		t.Fatalf("End after unmap failed: %v", err)
	}
	if tbl.Active() != 0 {
		t.Errorf("Active = %d, want 0", tbl.Active())
	}
}

// A read-only grant maps for reading only: a writable mapping is refused
// and leaves no mapping behind, as Xen refuses one of a GTF_readonly grant.
// A writable grant maps either way.
func TestReadOnlyGrantRefusesWritableMapping(t *testing.T) {
	tbl := NewTable()
	ro := tbl.Grant(cstruct.Make(16), true)
	if m, err := tbl.Map(ro, false); err == nil {
		t.Fatalf("writable mapping of a read-only grant succeeded: %v", m)
	}
	m, err := tbl.Map(ro, true)
	if err != nil {
		t.Fatalf("read-only mapping of a read-only grant: %v", err)
	}
	if err := tbl.Unmap(ro, m); err != nil {
		t.Fatal(err)
	}
	if err := tbl.End(ro); err != nil {
		t.Fatalf("End after the refused and the undone mapping: %v", err)
	}
	rw := tbl.Grant(cstruct.Make(16), false)
	for _, readOnly := range []bool{true, false} {
		m, err := tbl.Map(rw, readOnly)
		if err != nil {
			t.Fatalf("mapping a writable grant (readOnly %v): %v", readOnly, err)
		}
		tbl.Unmap(rw, m)
	}
}

func TestBadReferenceErrors(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Map(42, false); err == nil {
		t.Error("Map of bad ref succeeded")
	}
	if err := tbl.End(42); err == nil {
		t.Error("End of bad ref succeeded")
	}
	if err := tbl.CopyInto(42, 0, nil); err == nil {
		t.Error("CopyInto of bad ref succeeded")
	}
}

func TestUnmapWithoutMapErrors(t *testing.T) {
	tbl := NewTable()
	v := cstruct.Make(8)
	r := tbl.Grant(v, false)
	if err := tbl.Unmap(r, v); err == nil {
		t.Error("Unmap of never-mapped ref succeeded")
	}
}

func TestWithReleasesOnSuccess(t *testing.T) {
	tbl := NewTable()
	v := cstruct.Make(8)
	var seen Ref
	err := tbl.With(v, false, func(r Ref) error {
		seen = r
		if _, err := tbl.Map(r, false); err != nil {
			return err
		}
		m, _ := tbl.Map(r, false) // second mapping
		tbl.Unmap(r, m)
		m2 := v // first mapping view is v-shaped; unmap via table
		_ = m2
		return tbl.Unmap(r, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("fn never ran")
	}
	if tbl.Active() != 0 {
		t.Errorf("grant leaked after With: Active = %d", tbl.Active())
	}
}

func TestWithReleasesOnError(t *testing.T) {
	tbl := NewTable()
	v := cstruct.Make(8)
	sentinel := errors.New("boom")
	err := tbl.With(v, false, func(r Ref) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
	if tbl.Active() != 0 {
		t.Errorf("grant leaked after failing With: Active = %d", tbl.Active())
	}
}

func TestWithReleasesOnPanic(t *testing.T) {
	tbl := NewTable()
	v := cstruct.Make(8)
	func() {
		defer func() { recover() }()
		tbl.With(v, false, func(r Ref) error { panic("die") })
	}()
	if tbl.Active() != 0 {
		t.Errorf("grant leaked after panicking With: Active = %d", tbl.Active())
	}
}

// Property: any sequence of grant/map/unmap/end operations conserves the
// invariant Active == grants issued - grants successfully ended, and a
// pooled page is recycled only when every grant and mapping is gone.
func TestPropGrantLifecycle(t *testing.T) {
	f := func(ops []uint8) bool {
		tbl := NewTable()
		pool := cstruct.NewPool()
		type liveGrant struct {
			r    Ref
			maps []*cstruct.View
			v    *cstruct.View
		}
		var live []*liveGrant
		grants, ended := 0, 0
		tbl.Hooks.OnGrant = func(int) { grants++ }
		for _, op := range ops {
			switch op % 4 {
			case 0:
				v := pool.Get()
				live = append(live, &liveGrant{r: tbl.Grant(v, false), v: v})
			case 1:
				if len(live) > 0 {
					g := live[int(op)%len(live)]
					m, err := tbl.Map(g.r, false)
					if err != nil {
						return false
					}
					g.maps = append(g.maps, m)
				}
			case 2:
				if len(live) > 0 {
					g := live[int(op)%len(live)]
					if len(g.maps) > 0 {
						m := g.maps[len(g.maps)-1]
						g.maps = g.maps[:len(g.maps)-1]
						if err := tbl.Unmap(g.r, m); err != nil {
							return false
						}
					}
				}
			case 3:
				if len(live) > 0 {
					i := int(op) % len(live)
					g := live[i]
					err := tbl.End(g.r)
					if len(g.maps) > 0 {
						if err == nil {
							return false // must refuse while mapped
						}
					} else if err != nil {
						return false
					} else {
						g.v.Release()
						ended++
						live = append(live[:i], live[i+1:]...)
					}
				}
			}
		}
		if tbl.Active() != grants-ended {
			return false
		}
		// Drain everything; afterwards the pool must be fully recycled.
		for _, g := range live {
			for _, m := range g.maps {
				tbl.Unmap(g.r, m)
			}
			if tbl.End(g.r) != nil {
				return false
			}
			g.v.Release()
		}
		return pool.InUse == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEntriesAreRecycled: a steady grant/revoke cycle reuses retired entries
// instead of allocating one per grant, while references stay monotonic, a
// recycled entry starts unmapped, and a refused End keeps its entry out of
// the free list.
func TestEntriesAreRecycled(t *testing.T) {
	tbl := NewTable()
	v := cstruct.Make(16)
	held := tbl.Grant(v, false)
	m, _ := tbl.Map(held, false)
	if err := tbl.End(held); err == nil {
		t.Fatal("End of mapped grant succeeded")
	}
	last := held
	cycle := func() {
		r := tbl.Grant(v, true)
		if r <= last {
			t.Fatalf("ref %d reused (last %d)", r, last)
		}
		last = r
		if e := tbl.entries[r]; e == tbl.entries[held] || e.mapped != 0 || !e.ReadOnly {
			t.Fatalf("recycled entry not fresh: %+v", *e)
		}
		if err := tbl.End(r); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // fills the free list
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("grant/end cycle allocates %.1f objects, want 0", avg)
	}
	if err := tbl.Unmap(held, m); err != nil {
		t.Fatal(err)
	}
	if err := tbl.End(held); err != nil || tbl.Active() != 0 {
		t.Fatalf("End after unmap: err=%v Active=%d", err, tbl.Active())
	}
}
