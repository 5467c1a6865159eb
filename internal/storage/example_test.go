package storage_test

import (
	"fmt"

	"repro/internal/lwt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Example_btree shows the append-only copy-on-write B-tree: updates are
// durable when their promise resolves, and an old root is a consistent
// snapshot.
func Example_btree() {
	k := sim.NewKernel(1)
	s := lwt.NewScheduler(k)
	k.Spawn("main", func(p *sim.Proc) {
		dev := storage.NewMemDevice(s)
		tree, ready := storage.NewBTree(s, dev)
		main := lwt.Bind(ready, func(struct{}) *lwt.Promise[struct{}] {
			return lwt.Bind(tree.Set([]byte("motd"), []byte("v1")), func(struct{}) *lwt.Promise[struct{}] {
				snapshot := tree.Root()
				return lwt.Bind(tree.Set([]byte("motd"), []byte("v2")), func(struct{}) *lwt.Promise[struct{}] {
					cur := tree.Get([]byte("motd"))
					old := tree.GetAt(snapshot, []byte("motd"))
					return lwt.Map(lwt.Join(s, cur, old), func(struct{}) struct{} {
						fmt.Printf("now=%s snapshot=%s\n", cur.Value(), old.Value())
						return struct{}{}
					})
				})
			})
		})
		s.Run(p, main)
	})
	k.Run()
	// Output: now=v2 snapshot=v1
}
