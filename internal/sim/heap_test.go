package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// parkUnderFarTimer runs a proc that parks parks times on a signal under a
// one-hour timeout while a second proc on setter's kernel fires the signal
// each microsecond — the shape of a guest main loop with a far-off lwt timer
// and a busy device.
func parkUnderFarTimer(waiter, setter *Kernel, parks int) (woken *int) {
	woken = new(int)
	sig := waiter.NewSignal("dev")
	waiter.SpawnDaemon("guest", func(p *Proc) {
		for {
			if waitAny(p, time.Hour, sig) == 0 {
				*woken++
			}
		}
	})
	setter.Spawn("dev", func(p *Proc) {
		for i := 0; i < parks; i++ {
			p.Sleep(time.Microsecond)
			setter.Post(waiter, 0, sig.Set)
		}
	})
	return woken
}

// TestParkTimeoutIsTakenBack: a park whose signal wins must not leave its
// timeout event behind, or the event queue grows by one per park for as long
// as the timer is far away.
func TestParkTimeoutIsTakenBack(t *testing.T) {
	const parks = 10000
	t.Run("serial", func(t *testing.T) {
		k := NewKernel(1)
		woken := parkUnderFarTimer(k, k, parks)
		if _, err := k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		if *woken != parks {
			t.Fatalf("guest woke %d times, want %d", *woken, parks)
		}
		if n := k.EventQueueLen(); n > 2 {
			t.Errorf("EventQueueLen = %d after %d parks, want <= 2", n, parks)
		}
		if n := k.EventHeapPeak(); n > 4 {
			t.Errorf("EventHeapPeak = %d, want <= 4", n)
		}
	})
	t.Run("2-shard", func(t *testing.T) {
		c := NewClusterObs(1, 2, 10*time.Microsecond, nil, nil)
		woken := parkUnderFarTimer(c.Kernel(1), c.Kernel(0), parks)
		if _, err := c.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		if *woken != parks {
			t.Fatalf("guest woke %d times, want %d", *woken, parks)
		}
		if n := c.Kernel(1).EventQueueLen(); n > 2 {
			t.Errorf("EventQueueLen = %d after %d parks, want <= 2", n, parks)
		}
	})
}

// TestEventHeapRemovalProperty drives a kernel with random At / Cancel /
// park-style unschedule / run-a-while operations and holds it against a
// model: events fire in (at, seq) order, every queued event knows its heap
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
				var took bool
				if n == 5 {
					took = s.ev.Cancel()
				} else if was { // what CollectWaitAny does with its timeout
					k.unschedule(s.ev.e)
					took = true
				}
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
