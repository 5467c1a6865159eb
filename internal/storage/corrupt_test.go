package storage

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cstruct"
	"repro/internal/lwt"
)

// scribbles are corrupt node pages, each with a count or a length that runs
// past the page.
func scribbles() map[string][]byte {
	page := func(b ...byte) []byte { return append(b, make([]byte, cstruct.PageSize-len(b))...) }
	return map[string][]byte{
		"child count":  bytes.Repeat([]byte{0xff}, cstruct.PageSize), // internal, 65536 children
		"key length":   page(1, 0, 1, 0xff, 0xff),                    // leaf, one key of 65535 bytes
		"value length": page(1, 0, 1, 0, 1, 'k', 0xff, 0xff),         // leaf, key "k", 65535-byte value
		"key count":    page(1, 0xff, 0xff),                          // leaf, 65535 empty keys
	}
}

// TestColdGetOfCorruptNodeFails scribbles on one leaf page of a tree on a
// MemDevice: a cold-cache Get that reads it fails with decodeNode's error,
// and one that reads another leaf still succeeds.
func TestColdGetOfCorruptNodeFails(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }
	image, nkeys := grownTree(t, key, val, func(tr *BTree) bool {
		root := tr.cache[tr.root]
		return !root.leaf && len(root.kids) > 2
	})
	// The first leaf, read off the device as a cold reader finds it.
	node := func(img map[uint64][]byte, pg uint64) *cstruct.View {
		b := make([]byte, 0, cstruct.PageSize)
		for i := uint64(0); i < PageSectors; i++ {
			b = append(b, img[pg*PageSectors+i]...)
		}
		return cstruct.Wrap(b)
	}
	root, err := decodeNode(node(image, cstruct.Wrap(image[0]).BE64(4)))
	if err != nil || root.leaf {
		t.Fatalf("root: %+v, %v", root, err)
	}
	leaf := root.kids[0]

	for name, page := range scribbles() {
		bad := map[uint64][]byte{}
		for s, b := range image {
			bad[s] = b
		}
		for i := uint64(0); i < PageSectors; i++ {
			bad[leaf*PageSectors+i] = page[i*SectorSize : (i+1)*SectorSize]
		}
		runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
			return lwt.Bind(OpenBTree(s, NewMemDeviceFrom(s, bad)), func(tr *BTree) *lwt.Promise[struct{}] {
				first, last := tr.Get(key(0)), tr.Get(key(nkeys-1))
				out := lwt.NewPromise[struct{}](s)
				lwt.Always(lwt.Join(s, first, last), func() {
					if first.Failed() == nil {
						t.Errorf("%s: Get through the corrupt leaf = %q, want an error", name, first.Value())
					}
					if err := last.Failed(); err != nil || !bytes.Equal(last.Value(), val(nkeys-1)) {
						t.Errorf("%s: Get through an intact leaf: %v", name, err)
					}
					out.Resolve(struct{}{})
				})
				return out
			})
		})
	}
}

// FuzzDecodeNode: a node page off the device is untrusted. decodeNode never
// panics on it, and a page it accepts re-encodes to a node that decodes the
// same.
func FuzzDecodeNode(f *testing.F) {
	for _, n := range []*bnode{
		{leaf: true},
		{leaf: true, keys: [][]byte{[]byte("a"), []byte("bb")}, vals: [][]byte{[]byte("1"), nil}},
		{keys: [][]byte{[]byte("m")}, kids: []uint64{3, 4}},
	} {
		page := make([]byte, cstruct.PageSize)
		encodeNode(n, page)
		f.Add(page)
	}
	for _, page := range scribbles() {
		f.Add(page)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		page := make([]byte, cstruct.PageSize)
		copy(page, b)
		n, err := decodeNode(cstruct.Wrap(page))
		if err != nil {
			return
		}
		again := make([]byte, cstruct.PageSize)
		encodeNode(n, again)
		back, err := decodeNode(cstruct.Wrap(again))
		if err != nil || !reflect.DeepEqual(n, back) {
			t.Fatalf("re-encoded node decodes to %+v, %v; want %+v", back, err, n)
		}
	})
}
