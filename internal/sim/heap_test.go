package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// TestEventHeapRemovalProperty drives a kernel with random At / Cancel /
// run-a-while operations and holds it against a model: events fire in (at, seq) order, every queued event knows its heap
// position, and an event taken back never fires and leaves only inert
// handles behind, even once its struct carries a new event.
func TestEventHeapRemovalProperty(t *testing.T) {
	type sched struct {
		ev      Event
		at      Time
		removed bool
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel(1)
		var all []*sched // index = insertion order = seq order
		var fired []int
		check := func() bool {
			for i, e := range k.events {
				if e.idx != i {
					t.Logf("seed %d: event at heap position %d has idx %d", seed, i, e.idx)
					return false
				}
			}
			return true
		}
		for op := 0; op < 400; op++ {
			switch n := r.Intn(10); {
			case n < 5:
				id := len(all)
				at := k.Now() + Time(r.Intn(50))
				s := &sched{at: at}
				s.ev = k.At(at, func() { fired = append(fired, id) })
				all = append(all, s)
			case n < 8 && len(all) > 0:
				s := all[r.Intn(len(all))]
				was := s.ev.Pending()
				took := s.ev.Cancel()
				if took != was || s.ev.Pending() || s.ev.Cancel() {
					t.Logf("seed %d: handle of a removed event still live", seed)
					return false
				}
				if took {
					s.removed = true
				}
			default:
				if _, err := k.RunFor(time.Duration(r.Intn(20))); err != nil {
					return false
				}
			}
			if !check() {
				return false
			}
		}
		if _, err := k.Run(); err != nil || len(k.events) != 0 {
			return false
		}
		var want []int
		for id, s := range all {
			if s.ev.Pending() {
				t.Logf("seed %d: event %d still pending after Run", seed, id)
				return false
			}
			if !s.removed {
				want = append(want, id)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return all[want[i]].at < all[want[j]].at })
		if len(fired) != len(want) {
			t.Logf("seed %d: fired %d events, want %d", seed, len(fired), len(want))
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Logf("seed %d: fired[%d] = event %d, want %d", seed, i, fired[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
