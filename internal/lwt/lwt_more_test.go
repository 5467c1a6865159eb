package lwt

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestCancelPropagatesThroughBind(t *testing.T) {
	run(t, func(p *sim.Proc, s *Scheduler) {
		src := NewPromise[int](s)
		downstream := Bind(src, func(int) *Promise[int] { return Return(s, 1) })
		src.Cancel()
		// Let the ready queue drain.
		if err := s.Run(p, downstream); !errors.Is(err, ErrCanceled) {
			t.Errorf("downstream err = %v, want ErrCanceled", err)
		}
	})
}

func TestAlwaysRunsOnBothOutcomes(t *testing.T) {
	run(t, func(p *sim.Proc, s *Scheduler) {
		okRan, failRan := false, false
		ok := Return(s, 1)
		Always(ok, func() { okRan = true })
		bad := FailWith[int](s, errors.New("x"))
		Always(bad, func() { failRan = true })
		s.Run(p, Choose(s, ok))
		if !okRan || !failRan {
			t.Errorf("Always ran: ok=%v fail=%v", okRan, failRan)
		}
	})
}

func TestJoinEmptyResolvesImmediately(t *testing.T) {
	run(t, func(p *sim.Proc, s *Scheduler) {
		j := Join(s)
		if !j.Completed() {
			t.Error("empty Join not immediately resolved")
		}
	})
}

func TestTimersInterleaveWithSignals(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewScheduler(k)
	sig := k.NewSignal("dev")
	var order []string
	k.Spawn("main", func(p *sim.Proc) {
		done := NewPromise[struct{}](s)
		Map(s.Sleep(10*time.Millisecond), func(struct{}) struct{} {
			order = append(order, "timer10")
			return struct{}{}
		})
		Map(s.Sleep(30*time.Millisecond), func(struct{}) struct{} {
			order = append(order, "timer30")
			done.Resolve(struct{}{})
			return struct{}{}
		})
		s.OnSignal(sig, func() { order = append(order, "signal") })
		s.Run(p, done)
	})
	k.At(sim.Time(20*time.Millisecond), func() { sig.Set() })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"timer10", "signal", "timer30"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestSchedulerCreatedCounter(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewScheduler(k)
	before := s.Created
	for i := 0; i < 10; i++ {
		NewPromise[int](s)
	}
	if s.Created != before+10 {
		t.Errorf("Created = %d, want +10", s.Created-before)
	}
}

func TestNestedBindDepthNoStackOverflow(t *testing.T) {
	// Deep sequential chains must run iteratively via the ready queue.
	run(t, func(p *sim.Proc, s *Scheduler) {
		const depth = 100_000
		chain := Return(s, 0)
		for i := 0; i < depth; i++ {
			chain = Bind(chain, func(x int) *Promise[int] { return Return(s, x+1) })
		}
		if err := s.Run(p, chain); err != nil {
			t.Fatal(err)
		}
		if chain.Value() != depth {
			t.Errorf("chain value = %d, want %d", chain.Value(), depth)
		}
	})
}

// TestAwaitedPromiseAllocations: creating a promise, awaiting it once,
// resolving it and running the continuation allocates the promise and the
// caller's closure — no waiter list.
func TestAwaitedPromiseAllocations(t *testing.T) {
	run(t, func(p *sim.Proc, s *Scheduler) {
		sum := 0
		const runs = 100
		n := testing.AllocsPerRun(runs, func() {
			pr := NewPromise[int](s)
			Always(pr, func() { sum += pr.Value() })
			pr.Resolve(1)
			s.pass(p)
		})
		if n != 2 {
			t.Errorf("NewPromise + Always + Resolve + drain allocates %v objects, want 2 (the promise and the closure)", n)
		}
		if sum != runs+1 {
			t.Errorf("continuation ran %d times over %d cycles", sum, runs+1)
		}
	})
}

// TestContinuationsRunInRegistrationOrder: the inline slot and the overflow
// slice together behave as one list.
func TestContinuationsRunInRegistrationOrder(t *testing.T) {
	run(t, func(p *sim.Proc, s *Scheduler) {
		for name, complete := range map[string]func(*Promise[int]){
			"resolve": func(pr *Promise[int]) { pr.Resolve(1) },
			"fail":    func(pr *Promise[int]) { pr.Fail(errors.New("x")) },
		} {
			pr := NewPromise[int](s)
			var order []int
			for i := 1; i <= 3; i++ {
				i := i
				Always(pr, func() { order = append(order, i) })
			}
			complete(pr)
			s.pass(p)
			if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
				t.Errorf("%s: continuations ran in order %v, want [1 2 3]", name, order)
			}
		}
	})
}

// TestContinuationRegisteredDuringCompletionRunsOnce: a continuation added
// by another continuation of the same, now completed, promise is deferred
// like any registration on a completed promise — once, after the ones
// already queued, and never again.
func TestContinuationRegisteredDuringCompletionRunsOnce(t *testing.T) {
	run(t, func(p *sim.Proc, s *Scheduler) {
		pr := NewPromise[int](s)
		var order []string
		Always(pr, func() {
			order = append(order, "first")
			Always(pr, func() { order = append(order, "nested") })
		})
		Always(pr, func() { order = append(order, "second") })
		pr.Resolve(1)
		s.pass(p)
		s.pass(p)
		if want := []string{"first", "second", "nested"}; len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
			t.Errorf("continuations ran as %v, want %v", order, want)
		}
	})
}
