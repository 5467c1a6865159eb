// Package grant implements the Xen grant-table mechanism (paper §3.4.1):
// a per-domain table mapping integer grant references to memory pages whose
// access rights have been extended to a remote domain. The hypervisor checks
// and enforces updates; remote domains either map the page (zero-copy) or
// copy it.
//
// The package also provides the resource combinators Mirage uses to
// guarantee grants are released on every exit path — normal return, timeout
// or error (§3.4.1 "combinators").
package grant

import (
	"fmt"

	"repro/internal/cstruct"
)

// Ref identifies an entry in a domain's grant table.
type Ref uint32

// Entry describes one granted page.
type Entry struct {
	View     *cstruct.View
	ReadOnly bool
	mapped   int // active remote mappings
}

// Hooks are optional observability callbacks. The table has no kernel
// reference, so the layer that owns both (the hypervisor's domain builder)
// wires these to its tracer/registry; nil funcs are skipped.
type Hooks struct {
	OnGrant func(ref int)
	OnMap   func(ref int)
	OnUnmap func(ref int)
	OnCopy  func(bytes int)
}

// Table is one domain's grant table.
type Table struct {
	entries map[Ref]*Entry
	next    Ref
	free    []*Entry // revoked entries, reused by Grant; refs are never reused

	Hooks Hooks
}

// NewTable returns an empty grant table.
func NewTable() *Table { return &Table{entries: map[Ref]*Entry{}} }

// Grant extends access to v and returns its reference. The view is retained
// for the lifetime of the grant.
func (t *Table) Grant(v *cstruct.View, readOnly bool) Ref {
	t.next++
	r := t.next
	var e *Entry
	if n := len(t.free); n > 0 {
		e = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		e = new(Entry)
	}
	e.View, e.ReadOnly = v.Retain(), readOnly
	t.entries[r] = e
	if t.Hooks.OnGrant != nil {
		t.Hooks.OnGrant(int(r))
	}
	return r
}

// lookup returns the entry for r.
func (t *Table) lookup(r Ref) (*Entry, error) {
	e := t.entries[r]
	if e == nil {
		return nil, fmt.Errorf("grant: bad reference %d", r)
	}
	return e, nil
}

// Map gives the remote domain a zero-copy view of the granted page,
// incrementing the mapping count. The caller must Unmap when done. A
// mapper that will write the page passes readOnly false; a read-only grant
// refuses it, as Xen refuses a writable mapping of a GTF_readonly grant.
func (t *Table) Map(r Ref, readOnly bool) (*cstruct.View, error) {
	e, err := t.lookup(r)
	if err != nil {
		return nil, err
	}
	if e.ReadOnly && !readOnly {
		return nil, fmt.Errorf("grant: writable mapping of read-only reference %d", r)
	}
	e.mapped++
	if t.Hooks.OnMap != nil {
		t.Hooks.OnMap(int(r))
	}
	return e.View.Retain(), nil
}

// Unmap releases a mapping previously obtained with Map.
func (t *Table) Unmap(r Ref, v *cstruct.View) error {
	e, err := t.lookup(r)
	if err != nil {
		return err
	}
	if e.mapped == 0 {
		return fmt.Errorf("grant: unmap of unmapped reference %d", r)
	}
	e.mapped--
	v.Release()
	if t.Hooks.OnUnmap != nil {
		t.Hooks.OnUnmap(int(r))
	}
	return nil
}

// CopyInto copies [off, off+len(dst)) of the granted page into dst — the
// hypervisor grant-copy operation, targeting caller-owned storage so the
// backend can assemble scatter-gather frames into one pooled buffer without
// an intermediate allocation.
func (t *Table) CopyInto(r Ref, off int, dst []byte) error {
	e, err := t.lookup(r)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > e.View.Len() {
		return fmt.Errorf("grant: copy [%d,%d) out of bounds (len %d)", off, off+len(dst), e.View.Len())
	}
	copy(dst, e.View.Slice(off, len(dst)))
	if t.Hooks.OnCopy != nil {
		t.Hooks.OnCopy(len(dst))
	}
	return nil
}

// End revokes the grant. Revoking a still-mapped grant is the bug class
// our re-implementation fuzz-found in Linux/Xen (XSA-39, §3.4): it is
// refused, and the entry stays active.
func (t *Table) End(r Ref) error {
	e, err := t.lookup(r)
	if err != nil {
		return err
	}
	if e.mapped > 0 {
		return fmt.Errorf("grant: reference %d still mapped %d times", r, e.mapped)
	}
	delete(t.entries, r)
	e.View.Release()
	*e = Entry{}
	t.free = append(t.free, e)
	return nil
}

// Active returns the number of live grant entries.
func (t *Table) Active() int { return len(t.entries) }

// With grants v, passes the reference to fn, and always revokes the grant
// afterwards — even if fn returns an error or panics. This is the
// higher-order resource combinator of §3.4.1: when the wrapped use
// terminates by any path, the reference is freed.
func (t *Table) With(v *cstruct.View, readOnly bool, fn func(Ref) error) (err error) {
	r := t.Grant(v, readOnly)
	defer func() {
		if e := t.End(r); e != nil && err == nil {
			err = e
		}
	}()
	return fn(r)
}
