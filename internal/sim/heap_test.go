package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// TestEventHeapPopOrderProperty drives a kernel with random At and
// run-a-while operations and holds it against a model: every event fires,
// in (at, seq) order, and after every operation each queued event sorts no
// earlier than its parent in the 4-ary heap.
func TestEventHeapPopOrderProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel(1)
		var ats []Time // index = insertion order = seq order
		var fired []int
		for op := 0; op < 400; op++ {
			if r.Intn(10) < 7 {
				id := len(ats)
				at := k.Now() + Time(r.Intn(50))
				ats = append(ats, at)
				k.At(at, func() { fired = append(fired, id) })
			} else if _, err := k.RunFor(time.Duration(r.Intn(20))); err != nil {
				return false
			}
			for i := 1; i < len(k.events); i++ {
				if k.events[i].before(k.events[(i-1)/4]) {
					t.Logf("seed %d: heap position %d sorts before its parent", seed, i)
					return false
				}
			}
		}
		if _, err := k.Run(); err != nil || len(k.events) != 0 {
			return false
		}
		want := make([]int, len(ats))
		for id := range want {
			want[id] = id
		}
		sort.SliceStable(want, func(i, j int) bool { return ats[want[i]] < ats[want[j]] })
		if !slices.Equal(fired, want) {
			t.Logf("seed %d: fired %v, want %v", seed, fired, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
