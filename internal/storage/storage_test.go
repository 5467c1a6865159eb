package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lwt"
	"repro/internal/sim"
)

// runLwt drives fn's promise graph to completion on a fresh scheduler.
func runLwt(t *testing.T, fn func(s *lwt.Scheduler) lwt.Waiter) {
	t.Helper()
	k := sim.NewKernel(5)
	s := lwt.NewScheduler(k)
	var failed error
	k.Spawn("main", func(p *sim.Proc) {
		if err := s.Run(p, fn(s)); err != nil {
			failed = err
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if failed != nil {
		t.Fatal(failed)
	}
}

func TestBTreeSetGetAcrossSplits(t *testing.T) {
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := NewMemDevice(s)
		tr, _ := NewBTree(s, dev)
		const n = 500
		chain := lwt.Return(s, struct{}{})
		for i := 0; i < n; i++ {
			i := i
			chain = lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
				return tr.Set([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i)))
			})
		}
		return lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
			check := lwt.Return(s, struct{}{})
			for i := 0; i < n; i++ {
				i := i
				check = lwt.Bind(check, func(struct{}) *lwt.Promise[struct{}] {
					return lwt.Map(tr.Get([]byte(fmt.Sprintf("key-%04d", i))), func(v []byte) struct{} {
						if string(v) != fmt.Sprintf("val-%d", i) {
							t.Errorf("key %d: got %q", i, v)
						}
						return struct{}{}
					})
				})
			}
			return check
		})
	})
}

func TestBTreePersistsAcrossReopen(t *testing.T) {
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := NewMemDevice(s)
		tr, _ := NewBTree(s, dev)
		chain := lwt.Return(s, struct{}{})
		for i := 0; i < 100; i++ {
			i := i
			chain = lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
				return tr.Set([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
			})
		}
		return lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
			// Reopen cold: all state must come from the device.
			return lwt.Bind(OpenBTree(s, dev), func(tr2 *BTree) *lwt.Promise[struct{}] {
				check := lwt.Return(s, struct{}{})
				for i := 0; i < 100; i++ {
					i := i
					check = lwt.Bind(check, func(struct{}) *lwt.Promise[struct{}] {
						return lwt.Map(tr2.Get([]byte(fmt.Sprintf("k%03d", i))), func(v []byte) struct{} {
							if string(v) != fmt.Sprintf("v%d", i) {
								t.Errorf("reopen: key %d = %q", i, v)
							}
							return struct{}{}
						})
					})
				}
				return lwt.Map(check, func(struct{}) struct{} {
					if tr2.CacheMisses == 0 {
						t.Error("reopened tree answered without touching the device")
					}
					return struct{}{}
				})
			})
		})
	})
}

func TestBTreeOldRootIsSnapshot(t *testing.T) {
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := NewMemDevice(s)
		tr, _ := NewBTree(s, dev)
		return lwt.Bind(tr.Set([]byte("k"), []byte("old")), func(struct{}) *lwt.Promise[struct{}] {
			snap := tr.Root()
			return lwt.Bind(tr.Set([]byte("k"), []byte("new")), func(struct{}) *lwt.Promise[struct{}] {
				cur := lwt.Map(tr.Get([]byte("k")), func(v []byte) struct{} {
					if string(v) != "new" {
						t.Errorf("current = %q, want new", v)
					}
					return struct{}{}
				})
				old := lwt.Map(tr.GetAt(snap, []byte("k")), func(v []byte) struct{} {
					if string(v) != "old" {
						t.Errorf("snapshot = %q, want old (append-only COW violated)", v)
					}
					return struct{}{}
				})
				return lwt.Join(s, cur, old)
			})
		})
	})
}

func TestBTreeDelete(t *testing.T) {
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := NewMemDevice(s)
		tr, _ := NewBTree(s, dev)
		return lwt.Bind(tr.Set([]byte("a"), []byte("1")), func(struct{}) *lwt.Promise[struct{}] {
			return lwt.Bind(tr.Set([]byte("b"), []byte("2")), func(struct{}) *lwt.Promise[struct{}] {
				return lwt.Bind(tr.Delete([]byte("a")), func(struct{}) *lwt.Promise[struct{}] {
					return lwt.Map(lwt.Join(s,
						lwt.Map(tr.Get([]byte("a")), func(v []byte) struct{} {
							if v != nil {
								t.Error("deleted key still present")
							}
							return struct{}{}
						}),
						lwt.Map(tr.Get([]byte("b")), func(v []byte) struct{} {
							if string(v) != "2" {
								t.Error("sibling key lost")
							}
							return struct{}{}
						}),
					), func(struct{}) struct{} { return struct{}{} })
				})
			})
		})
	})
}

func TestBTreeRangeScanOrdered(t *testing.T) {
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := NewMemDevice(s)
		tr, _ := NewBTree(s, dev)
		chain := lwt.Return(s, struct{}{})
		perm := rand.New(rand.NewSource(3)).Perm(200)
		for _, i := range perm {
			i := i
			chain = lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
				return tr.Set([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
			})
		}
		return lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
			var seen []string
			return lwt.Map(tr.Range([]byte("k050"), []byte("k100"), func(k, v []byte) bool {
				seen = append(seen, string(k))
				return true
			}), func(struct{}) struct{} {
				if len(seen) != 50 {
					t.Errorf("range returned %d keys, want 50", len(seen))
				}
				for i := 1; i < len(seen); i++ {
					if seen[i] <= seen[i-1] {
						t.Errorf("range out of order: %s after %s", seen[i], seen[i-1])
					}
				}
				return struct{}{}
			})
		})
	})
}

func TestBTreeRejectsOversizedKey(t *testing.T) {
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := NewMemDevice(s)
		tr, _ := NewBTree(s, dev)
		if pr := tr.Set(make([]byte, 100), []byte("v")); pr.Failed() == nil {
			t.Error("oversized key accepted")
		}
		if pr := tr.Set([]byte("k"), make([]byte, 1000)); pr.Failed() == nil {
			t.Error("oversized value accepted")
		}
		return lwt.Return(s, struct{}{})
	})
}

// Property: B-tree agrees with a map reference under random interleaved
// set/delete/get.
func TestPropBTreeMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		ok := true
		runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
			dev := NewMemDevice(s)
			tr, _ := NewBTree(s, dev)
			ref := map[string]string{}
			chain := lwt.Return(s, struct{}{})
			for _, op := range ops {
				key := fmt.Sprintf("k%02d", op%32)
				switch (op >> 5) % 3 {
				case 0, 1:
					val := fmt.Sprintf("v%d", op)
					ref[key] = val
					chain = lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
						return tr.Set([]byte(key), []byte(val))
					})
				case 2:
					delete(ref, key)
					chain = lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
						return tr.Delete([]byte(key))
					})
				}
			}
			return lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
				check := lwt.Return(s, struct{}{})
				for i := 0; i < 32; i++ {
					key := fmt.Sprintf("k%02d", i)
					want, exists := ref[key]
					check = lwt.Bind(check, func(struct{}) *lwt.Promise[struct{}] {
						return lwt.Map(tr.Get([]byte(key)), func(v []byte) struct{} {
							if exists && string(v) != want {
								ok = false
							}
							if !exists && v != nil {
								ok = false
							}
							return struct{}{}
						})
					})
				}
				return check
			})
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
