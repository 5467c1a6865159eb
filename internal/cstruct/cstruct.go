// Package cstruct provides endian-aware, bounds-checked views over shared
// byte buffers — the Go analogue of Mirage's camlp4 `cstruct` extension
// (paper §3.4): typed accessors over externally allocated I/O pages, with
// zero-copy sub-view slicing and page recycling once every view of a page
// has been released. A view leaves the network stack at tcp.Conn.Read: the
// application is lent the received payload's bytes in the page netback
// filled, and the page returns to the pool at its next Read, Close or Abort.
//
// In Mirage, sub-views are garbage-collected and the underlying page
// returns to the free pool when the GC drops the last view. Go has no
// finalizer-ordering guarantees suitable for a deterministic simulator, so
// views carry an explicit reference count: Retain/Release model the GC's
// reachability tracking, and the page pool observes the recycle exactly as
// the paper describes (§3.4.1).
package cstruct

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of an I/O page, matching the Xen grant unit.
const PageSize = 4096

// Page is a unit of externally allocated I/O memory with a reference count.
type Page struct {
	Data []byte
	pool *Pool
	refs int
}

// View is a window onto a page (or a plain buffer). Sub-views share the
// underlying storage; no data is copied.
type View struct {
	page *Page
	data []byte
	off  int  // offset of data within the page, for diagnostics
	refs int  // references to this struct (Retain shares the struct)
	dead bool // view retired to its pool's freelist; any use is a bug
}

// Pool allocates fixed-size I/O pages and recycles them once all views are
// released. It records statistics used by the zero-copy benchmarks.
type Pool struct {
	free     []*Page
	viewFree []*View // retired view structs recycled by Get/Sub
	// Stats
	Allocated int // pages ever created
	InUse     int // pages currently referenced by >=1 view
	Recycled  int // pages returned to the free list
}

// NewPool returns an empty pool; pages are created on demand.
func NewPool() *Pool { return &Pool{} }

// Get returns a view covering a whole zeroed page with reference count 1.
func (pl *Pool) Get() *View {
	var pg *Page
	if n := len(pl.free); n > 0 {
		pg = pl.free[n-1]
		pl.free = pl.free[:n-1]
		for i := range pg.Data {
			pg.Data[i] = 0
		}
	} else {
		pg = &Page{Data: make([]byte, PageSize), pool: pl}
		pl.Allocated++
	}
	pg.refs = 1
	pl.InUse++
	v := pl.getView()
	v.page, v.data, v.off, v.refs = pg, pg.Data, 0, 1
	return v
}

// getView pops a retired view struct off the freelist (or allocates one).
func (pl *Pool) getView() *View {
	if n := len(pl.viewFree); n > 0 {
		v := pl.viewFree[n-1]
		pl.viewFree[n-1] = nil
		pl.viewFree = pl.viewFree[:n-1]
		v.dead = false
		return v
	}
	return &View{}
}

// FreePages returns how many pages sit on the free list.
func (pl *Pool) FreePages() int { return len(pl.free) }

// Wrap creates a view over an arbitrary buffer not owned by any pool.
// Retain/Release on such views are no-ops.
func Wrap(b []byte) *View { return &View{data: b} }

// Make allocates a fresh standalone buffer of n bytes and wraps it.
func Make(n int) *View { return Wrap(make([]byte, n)) }

// Len returns the view's length in bytes.
func (v *View) Len() int { return len(v.data) }

// Bytes returns the view's backing slice. Mutations are visible to all
// views sharing the storage — this is the zero-copy contract.
func (v *View) Bytes() []byte { return v.data }

// Copy returns a freshly allocated copy of the view's contents, detached
// from the underlying page.
func (v *View) Copy() *View {
	b := make([]byte, len(v.data))
	copy(b, v.data)
	return Wrap(b)
}

// Sub returns a zero-copy sub-view [off, off+n) sharing the same page and
// incrementing its reference count. It panics if the range is out of bounds.
func (v *View) Sub(off, n int) *View {
	if off < 0 || n < 0 || off+n > len(v.data) {
		panic(fmt.Sprintf("cstruct: Sub(%d, %d) out of bounds (len %d)", off, n, len(v.data)))
	}
	var sv *View
	if v.page != nil && v.page.pool != nil {
		sv = v.page.pool.getView()
	} else {
		sv = &View{}
	}
	sv.page, sv.data, sv.off, sv.refs = v.page, v.data[off:off+n:off+n], v.off+off, 1
	sv.retain()
	return sv
}

func (v *View) retain() {
	if v.page != nil {
		v.page.refs++
		// Counting the parent reference too: InUse tracks pages, which
		// remain in use, so nothing changes at the pool level here.
	}
}

// Retain adds a reference to the underlying page (models a new live view
// becoming reachable).
func (v *View) Retain() *View {
	if v.dead {
		panic("cstruct: Retain of an already-released view")
	}
	v.refs++
	v.retain()
	return v
}

// Release drops a reference; when the last view of a pooled page is
// released, the page returns to the pool's free list (models the GC
// collecting all views, §3.4.1).
func (v *View) Release() {
	if v.dead {
		panic("cstruct: Release of an already-released view")
	}
	pg := v.page
	if pg == nil {
		return
	}
	if pg.refs <= 0 {
		panic("cstruct: Release of already-freed page")
	}
	pg.refs--
	if pg.refs == 0 {
		pg.pool.InUse--
		pg.pool.Recycled++
		pg.pool.free = append(pg.pool.free, pg)
	}
	v.refs--
	if v.refs == 0 {
		// Last reference to this struct: poison it so use-after-release
		// panics deterministically, then recycle it through the pool.
		v.dead = true
		v.page, v.data = nil, nil
		pg.pool.viewFree = append(pg.pool.viewFree, v)
	}
}

func (v *View) check(off, n int) {
	if off < 0 || off+n > len(v.data) {
		panic(fmt.Sprintf("cstruct: access [%d,%d) out of bounds (len %d)", off, off+n, len(v.data)))
	}
}

// U8 reads the byte at off.
func (v *View) U8(off int) uint8 { v.check(off, 1); return v.data[off] }

// PutU8 writes b at off.
func (v *View) PutU8(off int, b uint8) { v.check(off, 1); v.data[off] = b }

// BE16 reads a big-endian uint16 at off.
func (v *View) BE16(off int) uint16 { v.check(off, 2); return binary.BigEndian.Uint16(v.data[off:]) }

// PutBE16 writes a big-endian uint16 at off.
func (v *View) PutBE16(off int, x uint16) {
	v.check(off, 2)
	binary.BigEndian.PutUint16(v.data[off:], x)
}

// BE32 reads a big-endian uint32 at off.
func (v *View) BE32(off int) uint32 { v.check(off, 4); return binary.BigEndian.Uint32(v.data[off:]) }

// PutBE32 writes a big-endian uint32 at off.
func (v *View) PutBE32(off int, x uint32) {
	v.check(off, 4)
	binary.BigEndian.PutUint32(v.data[off:], x)
}

// BE64 reads a big-endian uint64 at off.
func (v *View) BE64(off int) uint64 { v.check(off, 8); return binary.BigEndian.Uint64(v.data[off:]) }

// PutBE64 writes a big-endian uint64 at off.
func (v *View) PutBE64(off int, x uint64) {
	v.check(off, 8)
	binary.BigEndian.PutUint64(v.data[off:], x)
}

// LE16 reads a little-endian uint16 at off (device rings are little-endian).
func (v *View) LE16(off int) uint16 { v.check(off, 2); return binary.LittleEndian.Uint16(v.data[off:]) }

// PutLE16 writes a little-endian uint16 at off.
func (v *View) PutLE16(off int, x uint16) {
	v.check(off, 2)
	binary.LittleEndian.PutUint16(v.data[off:], x)
}

// LE32 reads a little-endian uint32 at off.
func (v *View) LE32(off int) uint32 { v.check(off, 4); return binary.LittleEndian.Uint32(v.data[off:]) }

// PutLE32 writes a little-endian uint32 at off.
func (v *View) PutLE32(off int, x uint32) {
	v.check(off, 4)
	binary.LittleEndian.PutUint32(v.data[off:], x)
}

// LE64 reads a little-endian uint64 at off.
func (v *View) LE64(off int) uint64 { v.check(off, 8); return binary.LittleEndian.Uint64(v.data[off:]) }

// PutLE64 writes a little-endian uint64 at off.
func (v *View) PutLE64(off int, x uint64) {
	v.check(off, 8)
	binary.LittleEndian.PutUint64(v.data[off:], x)
}

// Slice reads n bytes at off without copying.
func (v *View) Slice(off, n int) []byte { v.check(off, n); return v.data[off : off+n] }

// PutBytes copies b into the view at off.
func (v *View) PutBytes(off int, b []byte) { v.check(off, len(b)); copy(v.data[off:], b) }

// Fill sets [off, off+n) to c.
func (v *View) Fill(off, n int, c byte) {
	v.check(off, n)
	for i := off; i < off+n; i++ {
		v.data[i] = c
	}
}

// String reads n bytes at off as a string (copies).
func (v *View) String(off, n int) string { v.check(off, n); return string(v.data[off : off+n]) }
