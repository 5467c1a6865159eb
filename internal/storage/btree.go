package storage

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cstruct"
	"repro/internal/lwt"
)

// BTree is an append-only copy-on-write B-tree over the Block API — the
// Baardskeerder port of §3.5.2/§4.4. Every update appends fresh node pages
// and finishes by writing the superblock's root pointer, so old roots
// remain intact on the device (historical snapshots) and a torn update is
// invisible. Buffer management is explicit and the device path is always
// direct: the library encodes every node through one page-sized scratch
// buffer (Device.Write captures it) and keeps its own node cache, which
// holds the live tree only — a page superseded by a copy-on-write update
// leaves the cache when the commit that superseded it is durable. Old roots
// stay readable (GetAt) because load falls back to the device, which keeps
// everything; the cache was never what made them so.
//
// Updates (Set, Delete) run one at a time: one issued while the previous
// one's promise is still pending fails with ErrUpdateInFlight and leaves the
// tree as it was. Reads may overlap anything.
type BTree struct {
	s   *lwt.Scheduler
	dev Device

	cache    map[uint64]*bnode
	root     uint64
	nextPage uint64
	pending  []lwt.Waiter // outstanding node writes for the current op
	// superseded lists the pages the current op copied (or split) — dead
	// once its commit lands; overflow records that it ran into MaxPages.
	superseded []uint64
	overflow   bool
	scratch    []byte // node encode buffer, one page
	// update is the last update's promise; the next may start once it has
	// completed, whether it resolved or failed.
	update *lwt.Promise[struct{}]

	// MaxPages, when non-zero, bounds the device pages the tree may occupy
	// (pages 0 .. MaxPages-1): an update that needs a page beyond it fails
	// and leaves the tree as it was. Callers that put another structure
	// above the tree on the same device set it.
	MaxPages uint64

	// Stats
	NodesWritten int
	CacheMisses  int
}

// ErrUpdateInFlight fails an update issued while the previous one is still
// pending.
var ErrUpdateInFlight = errors.New("btree: update issued while the previous one is in flight")

const (
	maxLeafKeys     = 12
	maxInternalKeys = 16
	superMagic      = 0xBAA2D5EE
	// Limits (bytes); keys and values beyond these are rejected.
	maxKey = 64
	maxVal = 256
)

type bnode struct {
	leaf bool
	keys [][]byte
	vals [][]byte // leaf only
	kids []uint64 // internal only: len(keys)+1
}

func (n *bnode) full() bool {
	if n.leaf {
		return len(n.keys) >= maxLeafKeys
	}
	return len(n.keys) >= maxInternalKeys
}

func (n *bnode) clone() *bnode {
	c := &bnode{leaf: n.leaf}
	c.keys = append([][]byte(nil), n.keys...)
	c.vals = append([][]byte(nil), n.vals...)
	c.kids = append([]uint64(nil), n.kids...)
	return c
}

// NewBTree creates an empty tree on dev (formatting page 0 and an empty
// root). The returned promise resolves when the empty tree is durable.
func NewBTree(s *lwt.Scheduler, dev Device) (*BTree, *lwt.Promise[struct{}]) {
	t := &BTree{
		s: s, dev: dev,
		cache:    map[uint64]*bnode{},
		scratch:  make([]byte, cstruct.PageSize),
		nextPage: 1,
	}
	t.root = t.appendNode(&bnode{leaf: true})
	done := t.commit()
	return t, done
}

// OpenBTree attaches to an existing tree by reading the superblock.
func OpenBTree(s *lwt.Scheduler, dev Device) *lwt.Promise[*BTree] {
	return lwt.Bind(dev.Read(0, PageSectors), func(v *cstruct.View) *lwt.Promise[*BTree] {
		defer v.Release()
		if v.BE32(0) != superMagic {
			return lwt.FailWith[*BTree](s, fmt.Errorf("btree: bad superblock magic"))
		}
		t := &BTree{
			s: s, dev: dev,
			cache:    map[uint64]*bnode{},
			scratch:  make([]byte, cstruct.PageSize),
			root:     v.BE64(4),
			nextPage: v.BE64(12),
		}
		return lwt.Return(s, t)
	})
}

// appendNode assigns a fresh page, caches the node, and issues the device
// write (collected into pending for the current operation's durability).
// The node is encoded into the tree's one scratch page, which the device
// captures before Write returns. At MaxPages it writes nothing and marks
// the op overflowed; the page number it returns is then never committed.
func (t *BTree) appendNode(n *bnode) uint64 {
	if t.MaxPages != 0 && t.nextPage >= t.MaxPages {
		t.overflow = true
		return 0
	}
	pg := t.nextPage
	t.nextPage++
	t.cache[pg] = n
	t.NodesWritten++
	encodeNode(n, t.scratch)
	t.pending = append(t.pending, t.dev.Write(pg*PageSectors, t.scratch))
	return pg
}

// finish ends an update whose copied path now hangs off newRoot: commit it,
// or, if it overflowed MaxPages, fail it with the tree unchanged — the old
// root still stands, and the pages the op did write are orphans no root
// reaches, exactly what a crash before the superblock write leaves.
func (t *BTree) finish(newRoot uint64) *lwt.Promise[struct{}] {
	if t.overflow {
		t.abandon()
		return lwt.FailWith[struct{}](t.s, fmt.Errorf("btree: out of space at the %d-page limit", t.MaxPages))
	}
	t.root = newRoot
	return t.commit()
}

// start admits an update: it reports false if the previous one is still in
// flight. Otherwise it clears what a previous update left behind — one that
// failed under a device read never reached finish, and updates run one at a
// time, so whatever is still here belongs to such a one.
func (t *BTree) start() bool {
	if t.update != nil && !t.update.Completed() {
		return false
	}
	t.abandon()
	return true
}

// abandon forgets a part-done update: the pages it appended leave the cache
// and its bookkeeping is reset.
func (t *BTree) abandon() {
	for i := range t.pending { // one pending write per page the op appended
		delete(t.cache, t.nextPage-1-uint64(i))
	}
	t.pending = t.pending[:0]
	t.superseded = t.superseded[:0]
	t.overflow = false
}

// commit waits for the appended node pages to be durable and only then
// writes the superblock's root pointer — the barrier that makes a torn
// update invisible: a crash before the superblock lands leaves the old
// root intact and the new pages orphaned. Once the superblock is durable
// the pages this update superseded leave the cache. No warm traversal can be
// holding them: one that started from the older root found every node
// cached and so finished within the instant it began, and at least one
// device write's latency separates that instant from this one. A traversal
// that does straddle the two (a cold cache, or a device with no latency)
// takes the device path for a dropped node — slower, not wrong — and load
// keeps what it fetched out of the cache.
func (t *BTree) commit() *lwt.Promise[struct{}] {
	writes := t.pending
	t.pending = nil
	dead := t.superseded
	t.superseded = make([]uint64, 0, len(dead)) // the next update copies about as many
	root, next := t.root, t.nextPage
	return lwt.Bind(lwt.Join(t.s, writes...), func(struct{}) *lwt.Promise[struct{}] {
		sb := t.scratch[:SectorSize]
		clear(sb)
		v := cstruct.Wrap(sb)
		v.PutBE32(0, superMagic)
		v.PutBE64(4, root)
		v.PutBE64(12, next)
		return lwt.Map(t.dev.Write(0, sb), func(*cstruct.View) struct{} {
			for _, pg := range dead {
				delete(t.cache, pg)
			}
			return struct{}{}
		})
	})
}

// load fetches a node through the cache for a traversal that started at
// root page from. A miss reads the device and caches the node only if from
// is still the tree's root when the read completes: a read from a historical
// root, or one an update overtook while it was in flight, may be holding a
// superseded page, and dead pages never enter the cache.
func (t *BTree) load(pg, from uint64) *lwt.Promise[*bnode] {
	if n, ok := t.cache[pg]; ok {
		return lwt.Return(t.s, n)
	}
	t.CacheMisses++
	return lwt.Bind(t.dev.Read(pg*PageSectors, PageSectors), func(v *cstruct.View) *lwt.Promise[*bnode] {
		defer v.Release()
		n, err := decodeNode(v)
		if err != nil {
			return lwt.FailWith[*bnode](t.s, err)
		}
		if from == t.root {
			t.cache[pg] = n
		}
		return lwt.Return(t.s, n)
	})
}

// Root returns the current root page (usable with GetAt for snapshots).
func (t *BTree) Root() uint64 { return t.root }

// Pages returns the number of pages the append-only tree has consumed
// (MaxPages bounds it).
func (t *BTree) Pages() uint64 { return t.nextPage }

// Set inserts or replaces key. The promise resolves when the update is
// durable (new path pages and superblock written).
func (t *BTree) Set(key, value []byte) *lwt.Promise[struct{}] {
	if len(key) == 0 || len(key) > maxKey || len(value) > maxVal {
		return lwt.FailWith[struct{}](t.s, fmt.Errorf("btree: key/value size out of range (%d/%d)", len(key), len(value)))
	}
	if !t.start() {
		return lwt.FailWith[struct{}](t.s, ErrUpdateInFlight)
	}
	k := append([]byte(nil), key...)
	v := append([]byte(nil), value...)
	t.update = lwt.Bind(t.load(t.root, t.root), func(rn *bnode) *lwt.Promise[struct{}] {
		rootPg := t.root
		if rn.full() {
			// Grow: split the root under a new internal root.
			l, r, median := splitNode(rn)
			lp, rp := t.appendNode(l), t.appendNode(r)
			nr := &bnode{keys: [][]byte{median}, kids: []uint64{lp, rp}}
			t.superseded = append(t.superseded, rootPg)
			rootPg = t.appendNode(nr)
		}
		return lwt.Bind(t.insertNonFull(rootPg, k, v), t.finish)
	})
	return t.update
}

// insertNonFull inserts into the subtree at pg (guaranteed not full) and
// resolves with the subtree's new (copied) root page. Once a split above has
// overflowed MaxPages, pg may be appendNode's 0 and is not to be read: the
// descent stops and the 0 travels up to finish.
func (t *BTree) insertNonFull(pg uint64, k, v []byte) *lwt.Promise[uint64] {
	if t.overflow {
		return lwt.Return[uint64](t.s, 0)
	}
	return lwt.Bind(t.load(pg, t.root), func(n *bnode) *lwt.Promise[uint64] {
		n2 := n.clone()
		t.superseded = append(t.superseded, pg)
		if n2.leaf {
			i := search(n2.keys, k)
			if i < len(n2.keys) && bytes.Equal(n2.keys[i], k) {
				n2.vals[i] = v
			} else {
				n2.keys = insertBytes(n2.keys, i, k)
				n2.vals = insertBytes(n2.vals, i, v)
			}
			return lwt.Return(t.s, t.appendNode(n2))
		}
		i := search(n2.keys, k)
		if i < len(n2.keys) && bytes.Equal(n2.keys[i], k) {
			i++ // equal keys descend right
		}
		return lwt.Bind(t.load(n2.kids[i], t.root), func(c *bnode) *lwt.Promise[uint64] {
			if c.full() {
				l, r, median := splitNode(c)
				lp, rp := t.appendNode(l), t.appendNode(r)
				t.superseded = append(t.superseded, n2.kids[i])
				n2.keys = insertBytes(n2.keys, i, median)
				n2.kids = append(n2.kids[:i], append([]uint64{lp, rp}, n2.kids[i+1:]...)...)
				if bytes.Compare(k, median) >= 0 {
					i++
				}
			}
			return lwt.Bind(t.insertNonFull(n2.kids[i], k, v), func(nk uint64) *lwt.Promise[uint64] {
				n2.kids[i] = nk
				return lwt.Return(t.s, t.appendNode(n2))
			})
		})
	})
}

// Get resolves with the value for key, or nil if absent.
func (t *BTree) Get(key []byte) *lwt.Promise[[]byte] {
	return t.getAt(t.root, t.root, key)
}

// GetAt reads from an arbitrary root page — an old root is a consistent
// historical snapshot, a property of the append-only design. Nodes the
// current tree still shares with that snapshot come from the cache; the
// rest are read from the device each time and not cached.
func (t *BTree) GetAt(root uint64, key []byte) *lwt.Promise[[]byte] {
	return t.getAt(root, root, key)
}

func (t *BTree) getAt(pg, from uint64, k []byte) *lwt.Promise[[]byte] {
	return lwt.Bind(t.load(pg, from), func(n *bnode) *lwt.Promise[[]byte] {
		i := search(n.keys, k)
		if n.leaf {
			if i < len(n.keys) && bytes.Equal(n.keys[i], k) {
				return lwt.Return(t.s, n.vals[i])
			}
			return lwt.Return[[]byte](t.s, nil)
		}
		if i < len(n.keys) && bytes.Equal(n.keys[i], k) {
			i++
		}
		return t.getAt(n.kids[i], from, k)
	})
}

// Delete removes key if present (copy-on-write path update; leaves may
// become underfull, which an append-only tree tolerates and Baardskeerder
// compacts offline).
func (t *BTree) Delete(key []byte) *lwt.Promise[struct{}] {
	if !t.start() {
		return lwt.FailWith[struct{}](t.s, ErrUpdateInFlight)
	}
	t.update = lwt.Bind(t.deleteAt(t.root, key), func(newRoot uint64) *lwt.Promise[struct{}] {
		if newRoot == 0 && !t.overflow { // not found; nothing changed
			return lwt.Return(t.s, struct{}{})
		}
		return t.finish(newRoot)
	})
	return t.update
}

// deleteAt resolves with the new subtree root page, or 0 if key was absent.
func (t *BTree) deleteAt(pg uint64, k []byte) *lwt.Promise[uint64] {
	return lwt.Bind(t.load(pg, t.root), func(n *bnode) *lwt.Promise[uint64] {
		i := search(n.keys, k)
		if n.leaf {
			if i >= len(n.keys) || !bytes.Equal(n.keys[i], k) {
				return lwt.Return[uint64](t.s, 0)
			}
			t.superseded = append(t.superseded, pg)
			n2 := n.clone()
			n2.keys = append(n2.keys[:i], n2.keys[i+1:]...)
			n2.vals = append(n2.vals[:i], n2.vals[i+1:]...)
			return lwt.Return(t.s, t.appendNode(n2))
		}
		if i < len(n.keys) && bytes.Equal(n.keys[i], k) {
			i++
		}
		idx := i
		return lwt.Bind(t.deleteAt(n.kids[idx], k), func(nk uint64) *lwt.Promise[uint64] {
			if nk == 0 {
				return lwt.Return[uint64](t.s, 0)
			}
			t.superseded = append(t.superseded, pg)
			n2 := n.clone()
			n2.kids[idx] = nk
			return lwt.Return(t.s, t.appendNode(n2))
		})
	})
}

// Range calls fn for every key in [lo, hi) in order, resolving when the
// scan completes. fn returning false stops early.
func (t *BTree) Range(lo, hi []byte, fn func(k, v []byte) bool) *lwt.Promise[struct{}] {
	stop := false
	return t.rangeAt(t.root, t.root, lo, hi, fn, &stop)
}

func (t *BTree) rangeAt(pg, from uint64, lo, hi []byte, fn func(k, v []byte) bool, stop *bool) *lwt.Promise[struct{}] {
	return lwt.Bind(t.load(pg, from), func(n *bnode) *lwt.Promise[struct{}] {
		if n.leaf {
			for i, k := range n.keys {
				if *stop {
					break
				}
				if bytes.Compare(k, lo) >= 0 && (hi == nil || bytes.Compare(k, hi) < 0) {
					if !fn(k, n.vals[i]) {
						*stop = true
					}
				}
			}
			return lwt.Return(t.s, struct{}{})
		}
		// Visit children whose range can intersect [lo, hi).
		chain := lwt.Return(t.s, struct{}{})
		for i := 0; i <= len(n.keys); i++ {
			if *stop {
				break
			}
			if i < len(n.keys) && bytes.Compare(n.keys[i], lo) < 0 {
				continue
			}
			if i > 0 && hi != nil && bytes.Compare(n.keys[i-1], hi) >= 0 {
				break
			}
			kid := n.kids[i]
			chain = lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
				if *stop {
					return lwt.Return(t.s, struct{}{})
				}
				return t.rangeAt(kid, from, lo, hi, fn, stop)
			})
		}
		return chain
	})
}

// --- helpers ---

// search returns the first index i with keys[i] >= k.
func search(keys [][]byte, k []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertBytes(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// splitNode halves a full node, returning left, right and the median key
// that moves up.
func splitNode(n *bnode) (l, r *bnode, median []byte) {
	mid := len(n.keys) / 2
	if n.leaf {
		l = &bnode{leaf: true, keys: append([][]byte(nil), n.keys[:mid]...), vals: append([][]byte(nil), n.vals[:mid]...)}
		r = &bnode{leaf: true, keys: append([][]byte(nil), n.keys[mid:]...), vals: append([][]byte(nil), n.vals[mid:]...)}
		return l, r, r.keys[0]
	}
	median = n.keys[mid]
	l = &bnode{keys: append([][]byte(nil), n.keys[:mid]...), kids: append([]uint64(nil), n.kids[:mid+1]...)}
	r = &bnode{keys: append([][]byte(nil), n.keys[mid+1:]...), kids: append([]uint64(nil), n.kids[mid+1:]...)}
	return l, r, median
}

// encodeNode serialises a node into the page buf, zeroing what the node
// does not fill.
func encodeNode(n *bnode, buf []byte) {
	clear(buf)
	v := cstruct.Wrap(buf)
	if n.leaf {
		v.PutU8(0, 1)
	}
	v.PutBE16(1, uint16(len(n.keys)))
	off := 3
	if n.leaf {
		for i, k := range n.keys {
			v.PutBE16(off, uint16(len(k)))
			v.PutBytes(off+2, k)
			off += 2 + len(k)
			val := n.vals[i]
			v.PutBE16(off, uint16(len(val)))
			v.PutBytes(off+2, val)
			off += 2 + len(val)
		}
	} else {
		for _, kid := range n.kids {
			v.PutBE64(off, kid)
			off += 8
		}
		for _, k := range n.keys {
			v.PutBE16(off, uint16(len(k)))
			v.PutBytes(off+2, k)
			off += 2 + len(k)
		}
	}
}

// decodeNode parses a node page. Every count and length is checked against
// the page, so a corrupt page is an error, not a panic.
func decodeNode(v *cstruct.View) (*bnode, error) {
	if v.Len() < 3 {
		return nil, fmt.Errorf("btree: short node page")
	}
	n := &bnode{leaf: v.U8(0) == 1}
	nk := int(v.BE16(1))
	off := 3
	// field copies out the length-prefixed bytes at off and steps past them.
	field := func() ([]byte, error) {
		if off+2 > v.Len() {
			return nil, fmt.Errorf("btree: node page ends inside a length at %d", off)
		}
		l := int(v.BE16(off))
		if off+2+l > v.Len() {
			return nil, fmt.Errorf("btree: %d-byte field at %d overruns the node page", l, off)
		}
		b := append([]byte(nil), v.Slice(off+2, l)...)
		off += 2 + l
		return b, nil
	}
	if n.leaf {
		for i := 0; i < nk; i++ {
			k, err := field()
			if err != nil {
				return nil, err
			}
			val, err := field()
			if err != nil {
				return nil, err
			}
			n.keys = append(n.keys, k)
			n.vals = append(n.vals, val)
		}
	} else {
		if off+8*(nk+1) > v.Len() {
			return nil, fmt.Errorf("btree: %d children overrun the node page", nk+1)
		}
		for i := 0; i <= nk; i++ {
			n.kids = append(n.kids, v.BE64(off))
			off += 8
		}
		for i := 0; i < nk; i++ {
			k, err := field()
			if err != nil {
				return nil, err
			}
			n.keys = append(n.keys, k)
		}
	}
	return n, nil
}
