package lwt

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

// run evaluates fn inside a proc with a scheduler and returns the final
// virtual time.
func run(t *testing.T, fn func(p *sim.Proc, s *Scheduler)) sim.Time {
	t.Helper()
	k := sim.NewKernel(1)
	s := NewScheduler(k)
	k.Spawn("main", func(p *sim.Proc) { fn(p, s) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestSleepResolvesAtDeadline(t *testing.T) {
	run(t, func(p *sim.Proc, s *Scheduler) {
		var wokeAt sim.Time
		main := Bind(s.Sleep(3*time.Second), func(struct{}) *Promise[struct{}] {
			wokeAt = s.K.Now()
			return Return(s, struct{}{})
		})
		if err := s.Run(p, main); err != nil {
			t.Fatal(err)
		}
		if wokeAt != sim.Time(3*time.Second) {
			t.Errorf("woke at %v, want 3s", wokeAt)
		}
	})
}

func TestBindChainsValues(t *testing.T) {
	run(t, func(p *sim.Proc, s *Scheduler) {
		main := Bind(Return(s, 20), func(x int) *Promise[int] {
			return Map(Return(s, x+1), func(y int) int { return y * 2 })
		})
		if err := s.Run(p, main); err != nil {
			t.Fatal(err)
		}
		if main.Value() != 42 {
			t.Errorf("value = %d, want 42", main.Value())
		}
	})
}

func TestFailurePropagatesThroughBind(t *testing.T) {
	boom := errors.New("boom")
	run(t, func(p *sim.Proc, s *Scheduler) {
		called := false
		main := Bind(FailWith[int](s, boom), func(int) *Promise[int] {
			called = true
			return Return(s, 0)
		})
		err := s.Run(p, main)
		if !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom", err)
		}
		if called {
			t.Error("Bind body ran after failure")
		}
	})
}

func TestJoinWaitsForAll(t *testing.T) {
	end := run(t, func(p *sim.Proc, s *Scheduler) {
		a := s.Sleep(1 * time.Second)
		b := s.Sleep(3 * time.Second)
		c := s.Sleep(2 * time.Second)
		if err := s.Run(p, Join(s, a, b, c)); err != nil {
			t.Fatal(err)
		}
	})
	if end != sim.Time(3*time.Second) {
		t.Errorf("Join completed at %v, want 3s", end)
	}
}

func TestJoinPropagatesFirstFailure(t *testing.T) {
	boom := errors.New("boom")
	run(t, func(p *sim.Proc, s *Scheduler) {
		a := s.Sleep(time.Second)
		b := Bind(s.Sleep(500*time.Millisecond), func(struct{}) *Promise[struct{}] {
			return FailWith[struct{}](s, boom)
		})
		if err := s.Run(p, Join(s, a, b)); !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom", err)
		}
	})
}

func TestOnSignalWakesRunLoop(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewScheduler(k)
	sig := k.NewSignal("dev")
	var deliveredAt sim.Time
	k.Spawn("main", func(p *sim.Proc) {
		data := NewPromise[string](s)
		s.OnSignal(sig, func() {
			if data.state == pending {
				data.Resolve("packet")
				deliveredAt = k.Now()
			}
		})
		if err := s.Run(p, data); err != nil {
			t.Error(err)
		}
	})
	k.At(sim.Time(7*time.Millisecond), func() { sig.Set() })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if deliveredAt != sim.Time(7*time.Millisecond) {
		t.Errorf("delivered at %v, want 7ms", deliveredAt)
	}
}

func TestRunDetectsDeadlock(t *testing.T) {
	run(t, func(p *sim.Proc, s *Scheduler) {
		stuck := NewPromise[int](s)
		if err := s.Run(p, stuck); err == nil {
			t.Error("deadlocked main returned nil error")
		}
	})
}

func TestMassThreadsAllWake(t *testing.T) {
	const n = 100_000
	run(t, func(p *sim.Proc, s *Scheduler) {
		woke := 0
		var ws []Waiter
		for i := 0; i < n; i++ {
			d := time.Duration(500+i%1000) * time.Millisecond // 0.5–1.5s, as in Fig 7a
			ws = append(ws, Bind(s.Sleep(d), func(struct{}) *Promise[struct{}] {
				woke++
				return Return(s, struct{}{})
			}))
		}
		if err := s.Run(p, Join(s, ws...)); err != nil {
			t.Fatal(err)
		}
		if woke != n {
			t.Errorf("woke = %d, want %d", woke, n)
		}
	})
}

func TestHeapChargedPerThread(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewScheduler(k)
	cpu := k.NewCPU("vcpu")
	s.Heap = mem.NewHeap(mem.DefaultHeapConfig())
	s.CPU = cpu
	k.Spawn("main", func(p *sim.Proc) {
		var ws []Waiter
		for i := 0; i < 200_000; i++ {
			ws = append(ws, s.Sleep(time.Second))
		}
		s.Run(p, Join(s, ws...))
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Heap.MinorGCs == 0 {
		t.Error("mass thread creation triggered no minor GCs")
	}
	if cpu.BusyTime() == 0 {
		t.Error("GC cost never charged to the vCPU")
	}
}

func TestDoubleResolvePanics(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewScheduler(k)
	p := NewPromise[int](s)
	p.Resolve(1)
	defer func() {
		if recover() == nil {
			t.Error("double resolve did not panic")
		}
	}()
	p.Resolve(2)
}
