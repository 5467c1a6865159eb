package sim

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*time.Second) {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if end != woke {
		t.Errorf("end = %v, want %v", end, woke)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(Time(30), func() { order = append(order, 3) })
	k.At(Time(10), func() { order = append(order, 1) })
	k.At(Time(20), func() { order = append(order, 2) })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantEventsRunInInsertionOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Time(100), func() { order = append(order, i) })
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, not insertion order", order)
		}
	}
}

func TestSpawnedProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel(7)
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(time.Millisecond)
				}
			})
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length: %d vs %d", len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic trace at %d: %v vs %v", i, first, again)
			}
		}
	}
}

func TestKernelTraceAndMetricsDeterministic(t *testing.T) {
	run := func() ([]byte, string) {
		tr := obs.NewTracer(obs.DefaultCap)
		tr.Enable()
		reg := obs.NewRegistry()
		k := NewKernelObs(7, tr, reg)
		cpu := k.NewCPU("pcpu0")
		for _, name := range []string{"a", "b", "c"} {
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Use(cpu, time.Microsecond)
					p.Sleep(time.Millisecond)
				}
			})
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), reg.Snapshot().Format()
	}
	trace1, metrics1 := run()
	trace2, metrics2 := run()
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("trace JSON differs across same-seed kernels:\n%s\n--- vs ---\n%s", trace1, trace2)
	}
	if metrics1 != metrics2 {
		t.Fatalf("metrics differ across same-seed kernels:\n%s\n--- vs ---\n%s", metrics1, metrics2)
	}
	for _, want := range []string{`"cat":"kernel"`, `"cat":"cpu"`} {
		if !bytes.Contains(trace1, []byte(want)) {
			t.Errorf("trace missing %s events", want)
		}
	}
}

func TestSignalWakesWaiter(t *testing.T) {
	k := NewKernel(1)
	s := k.NewSignal("evt")
	var wokeAt Time
	k.Spawn("waiter", func(p *Proc) {
		p.Wait(s)
		wokeAt = p.Now()
	})
	k.At(Time(42), func() { s.Set() })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 42 {
		t.Errorf("woke at %v, want 42", wokeAt)
	}
}

func TestPendingSignalConsumedImmediately(t *testing.T) {
	k := NewKernel(1)
	s := k.NewSignal("evt")
	s.Set()
	ran := false
	k.Spawn("waiter", func(p *Proc) {
		p.Wait(s)
		if p.Now() != 0 {
			t.Errorf("pending signal should not block; woke at %v", p.Now())
		}
		ran = true
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("waiter never ran")
	}
	if s.Pending() {
		t.Error("signal still pending after Wait")
	}
}

// waitAny waits from p's goroutine until any of sigs fires, the way an
// inline body waits: arm, suspend until the wake, collect.
func waitAny(p *Proc, sigs ...*Signal) int {
	i := p.ArmWaitAny(sigs...)
	if i < 0 {
		p.Suspend(func() bool {
			i = p.CollectWaitAny(sigs...)
			return true
		})
	}
	return i
}

func TestWaitAnyReturnsFiredIndex(t *testing.T) {
	k := NewKernel(1)
	a, b := k.NewSignal("a"), k.NewSignal("b")
	var got int
	k.Spawn("waiter", func(p *Proc) {
		got = waitAny(p, a, b)
	})
	k.At(Time(5), func() { b.Set() })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("waitAny = %d, want 1", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel(1)
	s := k.NewSignal("never")
	k.Spawn("stuck", func(p *Proc) { p.Wait(s) })
	if _, err := k.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestCPUSerializesWork(t *testing.T) {
	k := NewKernel(1)
	c := k.NewCPU("cpu0")
	var done [2]Time
	k.Spawn("p0", func(p *Proc) {
		p.Use(c, 10*time.Millisecond)
		done[0] = p.Now()
	})
	k.Spawn("p1", func(p *Proc) {
		p.Use(c, 10*time.Millisecond)
		done[1] = p.Now()
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != Time(10*time.Millisecond) {
		t.Errorf("p0 done at %v, want 10ms", done[0])
	}
	if done[1] != Time(20*time.Millisecond) {
		t.Errorf("p1 done at %v, want 20ms (queued behind p0)", done[1])
	}
	if c.BusyTime() != 20*time.Millisecond {
		t.Errorf("busy = %v, want 20ms", c.BusyTime())
	}
}

func TestRunForStopsAtLimit(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	end, err := k.RunFor(5500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if end != Time(5500*time.Millisecond) {
		t.Errorf("end = %v, want 5.5s", end)
	}
	// Resuming continues from where we stopped.
	if _, err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if ticks != 6 {
		t.Errorf("ticks after resume = %d, want 6", ticks)
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Millisecond)
			n++
			if n == 10 {
				k.Stop()
			}
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("n = %d, want 10 (Stop should halt promptly)", n)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate from proc")
		}
	}()
	k := NewKernel(1)
	k.Spawn("boom", func(p *Proc) { panic("boom") })
	k.Run()
}

func TestYieldRoundRobinsAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < 2; i++ {
			trace = append(trace, "a")
			p.Yield()
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < 2; i++ {
			trace = append(trace, "b")
			p.Yield()
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "abab"
	got := ""
	for _, s := range trace {
		got += s
	}
	if got != want {
		t.Errorf("trace = %q, want %q", got, want)
	}
}

// Property: for any set of sleep durations, each proc wakes exactly at its
// own duration and the kernel ends at the max.
func TestPropSleepWakesExactly(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 {
			return true
		}
		if len(ds) > 64 {
			ds = ds[:64]
		}
		k := NewKernel(99)
		wakes := make([]Time, len(ds))
		var max Time
		for i, d := range ds {
			i, dur := i, time.Duration(d)*time.Microsecond
			if Time(dur) > max {
				max = Time(dur)
			}
			k.Spawn("p", func(p *Proc) {
				p.Sleep(dur)
				wakes[i] = p.Now()
			})
		}
		end, err := k.Run()
		if err != nil {
			return false
		}
		for i, d := range ds {
			want := Time(time.Duration(d) * time.Microsecond)
			if wakes[i] != want {
				return false
			}
		}
		return end == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CPU busy time equals the sum of all Use durations regardless of
// arrival order, and the last completion is at least the sum (serialized).
func TestPropCPUBusyConservation(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 {
			return true
		}
		if len(ds) > 32 {
			ds = ds[:32]
		}
		k := NewKernel(5)
		c := k.NewCPU("cpu")
		var sum time.Duration
		for _, d := range ds {
			dur := time.Duration(d) * time.Microsecond
			sum += dur
			k.Spawn("p", func(p *Proc) { p.Use(c, dur) })
		}
		end, err := k.Run()
		if err != nil {
			return false
		}
		return c.BusyTime() == sum && end == Time(sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
