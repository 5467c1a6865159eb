package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cstruct"
	"repro/internal/lwt"
)

// each runs step(0), step(1), ... step(n-1) one after the other.
func each(s *lwt.Scheduler, n int, step func(i int) *lwt.Promise[struct{}]) *lwt.Promise[struct{}] {
	var from func(i int) *lwt.Promise[struct{}]
	from = func(i int) *lwt.Promise[struct{}] {
		if i == n {
			return lwt.Return(s, struct{}{})
		}
		return lwt.Bind(step(i), func(struct{}) *lwt.Promise[struct{}] { return from(i + 1) })
	}
	return from(0)
}

// liveNodes counts the nodes reachable from the tree's root, walking the
// cache only: a live node missing from it fails the test.
func liveNodes(t *testing.T, tr *BTree) int {
	t.Helper()
	var walk func(pg uint64) int
	walk = func(pg uint64) int {
		n, ok := tr.cache[pg]
		if !ok {
			t.Fatalf("live page %d is not cached", pg)
		}
		count := 1
		for _, kid := range n.kids {
			count += walk(kid)
		}
		return count
	}
	return walk(tr.root)
}

func TestBTreeCacheHoldsLiveNodesOnly(t *testing.T) {
	const nkeys, rounds = 64, 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i%nkeys)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		tr, ready := NewBTree(s, NewMemDevice(s))
		var firstRoot uint64
		checkLive := func(when string) {
			if live := liveNodes(t, tr); len(tr.cache) != live {
				t.Errorf("%s: %d nodes cached, %d reachable from the root", when, len(tr.cache), live)
			}
		}
		steps := []func() *lwt.Promise[struct{}]{
			func() *lwt.Promise[struct{}] { return ready },
			func() *lwt.Promise[struct{}] {
				return each(s, nkeys, func(i int) *lwt.Promise[struct{}] { return tr.Set(key(i), val(i)) })
			},
			func() *lwt.Promise[struct{}] {
				firstRoot = tr.Root()
				return each(s, rounds, func(i int) *lwt.Promise[struct{}] { return tr.Set(key(i), val(nkeys+i)) })
			},
			func() *lwt.Promise[struct{}] {
				checkLive("after the overwrites")
				misses := tr.CacheMisses
				return lwt.Map(each(s, nkeys, func(i int) *lwt.Promise[struct{}] {
					return lwt.Map(tr.Get(key(i)), func(v []byte) struct{} {
						if len(v) == 0 {
							t.Errorf("Get(%s) lost its value", key(i))
						}
						return struct{}{}
					})
				}), func(struct{}) struct{} {
					if tr.CacheMisses != misses {
						t.Errorf("reading the live tree cost %d cache misses, want 0", tr.CacheMisses-misses)
					}
					return struct{}{}
				})
			},
			func() *lwt.Promise[struct{}] {
				// The first root's pages are long out of the cache; the
				// snapshot is still there, on the device.
				misses := tr.CacheMisses
				return lwt.Map(each(s, nkeys, func(i int) *lwt.Promise[struct{}] {
					return lwt.Map(tr.GetAt(firstRoot, key(i)), func(v []byte) struct{} {
						if !bytes.Equal(v, val(i)) {
							t.Errorf("GetAt(first root, %s) = %q, want %q", key(i), v, val(i))
						}
						return struct{}{}
					})
				}), func(struct{}) struct{} {
					if tr.CacheMisses == misses {
						t.Error("the first root was served without device reads: superseded nodes are still cached")
					}
					checkLive("after reading a historical root")
					return struct{}{}
				})
			},
			func() *lwt.Promise[struct{}] {
				// Delete-heavy: remove three keys in four, put one back.
				return each(s, nkeys, func(i int) *lwt.Promise[struct{}] {
					if i%4 == 0 {
						return tr.Set(key(i), val(i))
					}
					return tr.Delete(key(i))
				})
			},
			func() *lwt.Promise[struct{}] {
				checkLive("after the deletes")
				misses := tr.CacheMisses
				return lwt.Map(each(s, nkeys, func(i int) *lwt.Promise[struct{}] {
					return lwt.Map(tr.Get(key(i)), func(v []byte) struct{} {
						if (i%4 == 0) != (v != nil) {
							t.Errorf("Get(%s) = %q after the delete run", key(i), v)
						}
						return struct{}{}
					})
				}), func(struct{}) struct{} {
					if tr.CacheMisses != misses {
						t.Errorf("reading after deletes cost %d cache misses, want 0", tr.CacheMisses-misses)
					}
					return struct{}{}
				})
			},
		}
		return each(s, len(steps), func(i int) *lwt.Promise[struct{}] { return steps[i]() })
	})
}

// coldDevice is a MemDevice whose reads can be slowed or failed, for driving
// a freshly opened (cold-cache) tree through its device-read paths.
type coldDevice struct {
	*MemDevice
	slowReads int // the next so many reads take a millisecond, the rest no time
	okReads   int // reads that succeed before the rest fail; negative: all do
}

func (d *coldDevice) Read(sector uint64, sectors int) *lwt.Promise[*cstruct.View] {
	if d.okReads == 0 {
		return lwt.FailWith[*cstruct.View](d.S, fmt.Errorf("cold device: read of sector %d failed", sector))
	}
	d.okReads--
	if d.slowReads == 0 {
		return d.MemDevice.Read(sector, sectors)
	}
	d.slowReads--
	return lwt.Bind(d.S.Sleep(time.Millisecond), func(struct{}) *lwt.Promise[*cstruct.View] {
		return d.MemDevice.Read(sector, sectors)
	})
}

// grownTree builds a tree of sequential keys on a MemDevice until grown says
// stop and returns the disk image and the number of keys.
func grownTree(t *testing.T, key func(int) []byte, val func(int) []byte, grown func(*BTree) bool) (map[uint64][]byte, int) {
	var image map[uint64][]byte
	nkeys := 0
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := NewMemDevice(s)
		tr, ready := NewBTree(s, dev)
		done := lwt.NewPromise[struct{}](s)
		var grow func()
		grow = func() {
			if grown(tr) {
				image = dev.Snapshot()
				done.Resolve(struct{}{})
				return
			}
			nkeys++
			lwt.Always(tr.Set(key(nkeys-1), val(nkeys-1)), grow)
		}
		lwt.Always(ready, grow)
		return done
	})
	return image, nkeys
}

// checkCachedAreLive fails the test if the cache holds a page the root does
// not reach (the tree may be cold, so the walk reads what is not cached).
func checkCachedAreLive(t *testing.T, tr *BTree, dev *MemDevice, when string) {
	t.Helper()
	live := map[uint64]bool{}
	var walk func(pg uint64)
	walk = func(pg uint64) {
		live[pg] = true
		n, ok := tr.cache[pg]
		if !ok {
			v := dev.Read(pg*PageSectors, PageSectors).Value()
			var err error
			if n, err = decodeNode(v); err != nil {
				t.Fatal(err)
			}
		}
		for _, kid := range n.kids {
			walk(kid)
		}
	}
	walk(tr.root)
	for pg := range tr.cache {
		if !live[pg] {
			t.Errorf("%s: dead page %d is cached", when, pg)
		}
	}
}

// An update that fails under a device read never reaches finish. The next
// one must not inherit what it left: here a root split whose three pages are
// already appended and cached when the descent's leaf read fails.
func TestBTreeUpdateFailedByReadLeavesNothingBehind(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }
	image, nkeys := grownTree(t, key, val, func(tr *BTree) bool {
		root := tr.cache[tr.root]
		return !root.leaf && root.full()
	})
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := &coldDevice{MemDevice: NewMemDeviceFrom(s, image), okReads: -1}
		return lwt.Bind(OpenBTree(s, dev), func(tr *BTree) *lwt.Promise[struct{}] {
			root, pages := tr.Root(), tr.Pages()
			dev.okReads = 1 // the root; the leaf under the split root is next
			failed := tr.Set(key(nkeys), val(nkeys))
			out := lwt.NewPromise[struct{}](s)
			lwt.Always(failed, func() {
				if failed.Failed() == nil {
					t.Error("a Set whose leaf read failed succeeded")
				}
				if tr.Root() != root || tr.Pages() != pages+3 {
					t.Errorf("the failed Set left root %d and %d pages, want the old root %d and a split's 3 orphans above %d", tr.Root(), tr.Pages(), root, pages)
				}
				dev.okReads = -1
				again := tr.Set(key(nkeys), val(nkeys))
				lwt.Always(again, func() {
					if err := again.Failed(); err != nil {
						t.Errorf("Set after a failed one: %v", err)
					}
					checkCachedAreLive(t, tr, dev.MemDevice, "after a Set failed by a read and one that went through")
					check := each(s, nkeys+1, func(i int) *lwt.Promise[struct{}] {
						return lwt.Map(tr.Get(key(i)), func(v []byte) struct{} {
							if !bytes.Equal(v, val(i)) {
								t.Errorf("%s = %q, want %q", key(i), v, val(i))
							}
							return struct{}{}
						})
					})
					lwt.Always(check, func() { out.Resolve(struct{}{}) })
				})
			})
			return out
		})
	})
}

// On a cold tree a Get's device read can still be in flight when an update
// supersedes the page it is fetching and the commit drops that page from the
// cache. The read must not put it back.
func TestBTreeSlowReadDoesNotCacheASupersededPage(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }
	image, nkeys := grownTree(t, key, val, func(tr *BTree) bool { return !tr.cache[tr.root].leaf })
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := &coldDevice{MemDevice: NewMemDeviceFrom(s, image), okReads: -1}
		return lwt.Bind(OpenBTree(s, dev), func(tr *BTree) *lwt.Promise[struct{}] {
			// Warm the root through the first leaf's path, leaving the last
			// leaf on the device only.
			return lwt.Bind(tr.Set(key(0), val(0)), func(struct{}) *lwt.Promise[struct{}] {
				// Get and Set both find the root cached and then read the
				// leaf: the Get, issued first, slowly; the Set at once.
				dev.slowReads = 1
				slow := tr.Get(key(nkeys - 1))
				return lwt.Bind(tr.Set(key(nkeys-1), []byte("new")), func(struct{}) *lwt.Promise[struct{}] {
					if slow.Completed() {
						t.Fatal("the slow Get finished before the Set that overtook it")
					}
					return lwt.Map(slow, func(v []byte) struct{} {
						if !bytes.Equal(v, val(nkeys-1)) {
							t.Errorf("the overtaken Get read %q, want its snapshot's %q", v, val(nkeys-1))
						}
						checkCachedAreLive(t, tr, dev.MemDevice, "after a Get overtaken by a Set")
						return struct{}{}
					})
				})
			})
		})
	})
}

// discardDevice completes every write at once and stores nothing — the
// double for measuring what the library itself allocates on the write path.
type discardDevice struct{ s *lwt.Scheduler }

func (d discardDevice) Read(sector uint64, sectors int) *lwt.Promise[*cstruct.View] {
	return lwt.FailWith[*cstruct.View](d.s, fmt.Errorf("discard device: read of sector %d", sector))
}

func (d discardDevice) Write(sector uint64, data []byte) *lwt.Promise[*cstruct.View] {
	return lwt.Return[*cstruct.View](d.s, nil)
}

// A Set writes one node page per level of the tree. Encoded through the
// tree's scratch page they cost no allocation of their own; what a Set still
// allocates is node copies, promises and closures — about 6.6 KB on a
// three-level tree. That is more than the single page ISSUE 15 budgeted
// (ROADMAP item 8 (a), "lwt", says where the rest goes), so the bound here is two pages:
// one page-sized allocation per Set, let alone per node, breaks it. (A fresh
// page per node put a Set above four and a half.)
func TestBTreeSetAllocatesNoPages(t *testing.T) {
	const nkeys, sets, levels = 300, 1000, 3
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i%nkeys)) }
	val := bytes.Repeat([]byte("v"), 64)
	var allocated, written uint64
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		tr, ready := NewBTree(s, discardDevice{s})
		fill := lwt.Bind(ready, func(struct{}) *lwt.Promise[struct{}] {
			return each(s, nkeys, func(i int) *lwt.Promise[struct{}] { return tr.Set(key(i), val) })
		})
		return lwt.Bind(fill, func(struct{}) *lwt.Promise[struct{}] {
			depth := 1
			for n := tr.cache[tr.root]; !n.leaf; n = tr.cache[n.kids[0]] {
				depth++
			}
			if depth != levels {
				t.Fatalf("tree has %d levels, want %d", depth, levels)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			nodes := tr.NodesWritten
			return lwt.Map(each(s, sets, func(i int) *lwt.Promise[struct{}] { return tr.Set(key(7*i), val) }),
				func(struct{}) struct{} {
					runtime.ReadMemStats(&after)
					allocated = (after.TotalAlloc - before.TotalAlloc) / sets
					written = uint64(tr.NodesWritten-nodes) * cstruct.PageSize / sets
					return struct{}{}
				})
		})
	})
	if written < levels*cstruct.PageSize {
		t.Fatalf("a Set wrote %d B, fewer than %d node pages", written, levels)
	}
	if allocated >= 2*cstruct.PageSize {
		t.Errorf("a Set allocates %d B to write %d B of node pages, want under two pages", allocated, written)
	}
	t.Logf("%d B allocated, %d B written per Set", allocated, written)
}

// Wherever the page limit lands — on a leaf copy, on either half of a root
// split, on the new root above them, on a child split — the Set that hits it
// fails cleanly: no read of the page-0 sentinel, the tree as it was, nothing
// of the failed update left in the cache or the bookkeeping.
func TestBTreeSetFailsCleanlyAtEveryPageLimit(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }
	for limit := uint64(3); limit <= 90; limit++ {
		runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
			tr, ready := NewBTree(s, NewMemDevice(s))
			tr.MaxPages = limit
			done := lwt.NewPromise[struct{}](s)
			var set func(i int)
			set = func(i int) {
				root := tr.Root()
				p := tr.Set(key(i), val(i))
				lwt.Always(p, func() {
					if p.Failed() == nil {
						set(i + 1)
						return
					}
					if tr.Root() != root || tr.Pages() > limit {
						t.Errorf("limit %d: the failed Set left root %d (was %d) and %d pages", limit, tr.Root(), root, tr.Pages())
					}
					if tr.overflow || len(tr.pending) != 0 || len(tr.superseded) != 0 {
						t.Errorf("limit %d: the failed Set left overflow=%v, %d pending, %d superseded", limit, tr.overflow, len(tr.pending), len(tr.superseded))
					}
					if live := liveNodes(t, tr); len(tr.cache) != live {
						t.Errorf("limit %d: %d nodes cached, %d reachable from the root", limit, len(tr.cache), live)
					}
					check := each(s, i+1, func(j int) *lwt.Promise[struct{}] {
						return lwt.Map(tr.Get(key(j)), func(v []byte) struct{} {
							if j < i && !bytes.Equal(v, val(j)) {
								t.Errorf("limit %d: %s = %q after the failed Set, want %q", limit, key(j), v, val(j))
							}
							if j == i && v != nil {
								t.Errorf("limit %d: the failed Set of %s is visible", limit, key(j))
							}
							return struct{}{}
						})
					})
					lwt.Always(check, func() { done.Resolve(struct{}{}) })
				})
			}
			lwt.Always(ready, func() { set(0) })
			return done
		})
	}
}

// A checkpoint that grows the tree up to the WAL region must stop there:
// the bound is enforced where pages are allocated, not once at the start.
// The region starts at page 10 (the limit lands on a plain leaf copy), 15
// (on the right half of the first root split) and 30 (on the right half of the
// first child split).
func TestCheckpointStopsBelowWALRegion(t *testing.T) {
	for _, walPage := range []uint64{10, 15, 30} {
		t.Run(fmt.Sprintf("wal-at-page-%d", walPage), func(t *testing.T) { checkpointStopsBelow(t, walPage*PageSectors) })
	}
}

func checkpointStopsBelow(t *testing.T, walBase uint64) {
	const walSectors, nkeys = 64, 40
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%02d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("val%d", i)) }
	var dev *MemDevice
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev = NewMemDevice(s)
		return lwt.Bind(CreateDurableKV(s, dev, walBase, walSectors), func(kv *DurableKV) *lwt.Promise[struct{}] {
			var acked []lwt.Waiter
			for i := 0; i < nkeys; i++ {
				acked = append(acked, kv.Set(key(i), val(i)))
			}
			return lwt.Bind(lwt.Join(s, acked...), func(struct{}) *lwt.Promise[struct{}] {
				header := append([]byte(nil), dev.sectors[walBase]...)
				cp := kv.Checkpoint()
				out := lwt.NewPromise[struct{}](s)
				lwt.Always(cp, func() {
					if cp.Failed() == nil {
						t.Error("a checkpoint needing more pages than fit below the WAL succeeded")
					}
					if pages := kv.T.Pages(); pages > walBase/PageSectors {
						t.Errorf("tree grew to %d pages, into the WAL region at page %d", pages, walBase/PageSectors)
					}
					if !bytes.Equal(dev.sectors[walBase], header) {
						t.Error("the failed checkpoint overwrote the WAL header sector")
					}
					out.Resolve(struct{}{})
				})
				return out
			})
		})
	})
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		d2 := NewMemDeviceFrom(s, dev.Snapshot())
		return lwt.Bind(OpenDurableKV(s, d2, walBase, walSectors), func(kv *DurableKV) *lwt.Promise[struct{}] {
			return each(s, nkeys, func(i int) *lwt.Promise[struct{}] {
				return lwt.Map(kv.Get(key(i)), func(v []byte) struct{} {
					if !bytes.Equal(v, val(i)) {
						t.Errorf("after recovery %s = %q, want %q", key(i), v, val(i))
					}
					return struct{}{}
				})
			})
		})
	})
}

// Updates run one at a time. One issued while the previous is still in
// flight fails with ErrUpdateInFlight and leaves the tree as it was; one
// issued once the previous has completed — resolved, or failed under a
// device read — goes through. The tree starts cold, holding k=0.
func TestBTreeOverlappingUpdateFails(t *testing.T) {
	type update func(*BTree) *lwt.Promise[struct{}]
	set := func(k, v string) update {
		return func(tr *BTree) *lwt.Promise[struct{}] { return tr.Set([]byte(k), []byte(v)) }
	}
	del := func(k string) update {
		return func(tr *BTree) *lwt.Promise[struct{}] { return tr.Delete([]byte(k)) }
	}
	var image map[uint64][]byte
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := NewMemDevice(s)
		tr, ready := NewBTree(s, dev)
		return lwt.Map(lwt.Bind(ready, func(struct{}) *lwt.Promise[struct{}] { return tr.Set([]byte("k"), []byte("0")) }),
			func(struct{}) struct{} { image = dev.Snapshot(); return struct{}{} })
	})
	for _, c := range []struct {
		name          string
		first, second update
		overlap       bool // second is issued in the instant first is, not after it completed
		failRead      bool // first's root read fails
		secondErr     error
		want          map[string]string // "" = absent
	}{
		{name: "set, set", first: set("a", "1"), second: set("b", "2"), overlap: true,
			secondErr: ErrUpdateInFlight, want: map[string]string{"k": "0", "a": "1", "b": ""}},
		{name: "set, delete", first: set("a", "1"), second: del("k"), overlap: true,
			secondErr: ErrUpdateInFlight, want: map[string]string{"k": "0", "a": "1"}},
		{name: "delete, set", first: del("k"), second: set("a", "1"), overlap: true,
			secondErr: ErrUpdateInFlight, want: map[string]string{"k": "", "a": ""}},
		{name: "set after set", first: set("a", "1"), second: set("b", "2"),
			want: map[string]string{"k": "0", "a": "1", "b": "2"}},
		{name: "set after a failed read", first: set("a", "1"), second: set("b", "2"), failRead: true,
			want: map[string]string{"k": "0", "a": "", "b": "2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
				dev := &coldDevice{MemDevice: NewMemDeviceFrom(s, image), okReads: -1}
				return lwt.Bind(OpenBTree(s, dev), func(tr *BTree) *lwt.Promise[struct{}] {
					if c.failRead {
						dev.okReads = 0
					}
					first := c.first(tr)
					var second *lwt.Promise[struct{}]
					if c.overlap {
						second = c.second(tr)
					}
					done := lwt.NewPromise[struct{}](s)
					lwt.Always(first, func() {
						if err := first.Failed(); (err != nil) != c.failRead {
							t.Errorf("first update: %v", err)
						}
						dev.okReads = -1
						if second == nil {
							second = c.second(tr)
						}
						lwt.Always(second, func() {
							if err := second.Failed(); err != c.secondErr {
								t.Errorf("second update: %v, want %v", err, c.secondErr)
							}
							lwt.Always(each(s, len(c.want), func(i int) *lwt.Promise[struct{}] {
								k := []string{"k", "a", "b"}[i]
								return lwt.Map(tr.Get([]byte(k)), func(v []byte) struct{} {
									if string(v) != c.want[k] {
										t.Errorf("Get(%s) = %q, want %q", k, v, c.want[k])
									}
									return struct{}{}
								})
							}), func() { done.Resolve(struct{}{}) })
						})
					})
					return done
				})
			})
		})
	}
}
