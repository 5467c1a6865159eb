package sim

import (
	"slices"
	"testing"
	"time"
)

// TestFlush pins the deferred-flush contract each batching site relies on:
// every Arm queues one event, only the latest Arm not cancelled runs fn, and
// fn may arm again.
func TestFlush(t *testing.T) {
	const n = 5
	us := func(i int) Time { return Time(i) * Time(time.Microsecond) }
	type rig struct {
		k     *Kernel
		f     Flush
		marks int    // marker events fired so far
		runs  []Time // instants fn ran at
		seen  []int  // marks fired before each run
	}
	rows := []struct {
		name   string
		arm    func(r *rig) // at instant 0, before Run
		onRun  func(r *rig) // inside fn, after it is recorded
		queued int          // events queued by arm
		runs   []Time
		seen   []int
	}{
		{
			name: "first-armed burst",
			arm: func(r *rig) {
				for range n {
					if !r.f.Pending() {
						r.f.Arm(r.k, r.k.Now())
					}
				}
			},
			queued: 1, runs: []Time{0}, seen: []int{0},
		},
		{
			name: "last-armed burst at one instant",
			arm: func(r *rig) {
				for range n {
					r.f.Arm(r.k, r.k.Now())
					r.k.At(r.k.Now(), func() { r.marks++ })
				}
			},
			queued: 2 * n, runs: []Time{0}, seen: []int{n - 1}, // the last Arm's event
		},
		{
			name: "arms at increasing instants",
			arm: func(r *rig) {
				for i := 1; i <= n; i++ {
					r.f.Arm(r.k, us(i))
				}
			},
			queued: n, runs: []Time{us(n)}, seen: []int{0},
		},
		{
			name: "cancel before firing",
			arm: func(r *rig) {
				r.f.Arm(r.k, us(1))
				r.f.Cancel()
			},
			queued: 1,
		},
		{
			name: "re-arm from fn",
			arm:  func(r *rig) { r.f.Arm(r.k, us(1)) },
			onRun: func(r *rig) {
				if len(r.runs) == 1 {
					r.f.Arm(r.k, r.k.Now().Add(time.Microsecond))
				}
			},
			queued: 1, runs: []Time{us(1), us(2)}, seen: []int{0, 0},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := &rig{k: NewKernel(1)}
			r.f.Init(func(owner any) {
				r := owner.(*rig)
				r.runs = append(r.runs, r.k.Now())
				r.seen = append(r.seen, r.marks)
				if row.onRun != nil {
					row.onRun(r)
				}
			}, r)
			row.arm(r)
			if got := r.k.EventQueueLen(); got != row.queued {
				t.Errorf("%d events queued, want %d", got, row.queued)
			}
			if _, err := r.k.Run(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(r.runs, row.runs) || !slices.Equal(r.seen, row.seen) {
				t.Errorf("fn ran at %v after %v marker events, want at %v after %v", r.runs, r.seen, row.runs, row.seen)
			}
			if r.f.Pending() {
				t.Error("still Pending after every event fired")
			}
		})
	}
}
