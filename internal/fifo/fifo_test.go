package fifo

import (
	"math/rand"
	"testing"
)

// TestOrderAgainstSlice drives a Queue and a plain slice with the same
// random pushes and pops, at depths that exercise growth, sliding and the
// empty reset.
func TestOrderAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var ref []int
	next := 0
	for step := 0; step < 200000; step++ {
		limit := 1 + (step/1000)%70 // the depth bound itself moves
		if len(ref) < limit && rng.Intn(2) == 0 {
			q.Push(next)
			ref = append(ref, next)
			next++
		} else if len(ref) > 0 {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(ref))
		}
		for i, want := range ref {
			if got := *q.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want)
			}
		}
	}
}

// TestPopZeroesTheSlot: what Pop hands out is no longer reachable from the
// backing array — the property q = q[1:] lacks, which kept every
// acknowledged segment's payload, and the send-queue chunk or caller's
// write buffer it slices, alive until the array happened to be reallocated.
func TestPopZeroesTheSlot(t *testing.T) {
	var q Queue[*int]
	for q.Len() == 0 || q.Len() < q.Cap() {
		q.Push(new(int))
	}
	slots := q.Cap()
	for q.Len() > slots/4 {
		q.Pop()
	}
	q.Push(new(int)) // the array is full and mostly popped slots: the live elements slide to its start
	if q.head != 0 || q.Cap() != slots {
		t.Fatalf("push into a full, mostly drained array: head %d, %d slots (was %d)", q.head, q.Cap(), slots)
	}
	for q.Len() > 1 {
		q.Pop()
	}
	for i, p := range q.buf[:cap(q.buf)] {
		if live := i == q.head; (p != nil) != live {
			t.Errorf("slot %d of %d (head %d) holds %v", i, cap(q.buf), q.head, p)
		}
	}
	q.Reset()
	if q.Len() != 0 || q.Cap() != 0 {
		t.Errorf("Reset left %d elements, capacity %d", q.Len(), q.Cap())
	}
}

// TestBoundedDepthStopsAllocating: 10⁵ push/pop cycles that never hold more
// than eight elements settle on one small backing array.
func TestBoundedDepthStopsAllocating(t *testing.T) {
	const depth = 8
	rng := rand.New(rand.NewSource(2))
	var q Queue[[2]uint64]
	capAfterWarmup := 0
	for cycle := 0; cycle < 100000; cycle++ {
		for n := 1 + rng.Intn(depth); q.Len() < n; {
			q.Push([2]uint64{uint64(cycle)})
		}
		for n := rng.Intn(q.Len() + 1); n > 0; n-- {
			q.Pop()
		}
		switch {
		case cycle == 100:
			capAfterWarmup = q.Cap()
		case cycle > 100 && q.Cap() != capAfterWarmup:
			t.Fatalf("cycle %d: backing array went from %d to %d slots at depth <= %d", cycle, capAfterWarmup, q.Cap(), depth)
		}
	}
	if capAfterWarmup > 2*depth {
		t.Errorf("depth <= %d settled on %d slots, want <= %d", depth, capAfterWarmup, 2*depth)
	}
}
