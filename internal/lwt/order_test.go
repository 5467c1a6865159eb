package lwt

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestContinuationOrderContract: a fixed program that mixes every combinator
// over pending, already-resolved and failed promises — with a Join that
// waits on one promise twice and an empty Join — logs its continuations in
// exactly this order. Every virtual result rests on the order the ready
// queue runs continuations in, so the sequence is a contract: a change to
// how continuations are represented must leave it as it is.
func TestContinuationOrderContract(t *testing.T) {
	var log []string
	tag := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	run(t, func(p *sim.Proc, s *Scheduler) {
		a := NewPromise[int](s) // resolved by a deferred callback
		b := NewPromise[int](s) // failed by a continuation of a Bind on a
		r := Return(s, 10)
		f := FailWith[int](s, errors.New("boom"))
		outcome := func(name string, w Waiter) {
			Always(w, func() { tag("%s: %v", name, w.Failed()) })
		}

		b1 := Bind(a, func(v int) *Promise[int] {
			tag("bind a %d", v)
			return Map(r, func(x int) int { tag("map r %d", x); return v + x })
		})
		outcome("b1", b1)
		b2 := Bind(r, func(v int) *Promise[int] { tag("bind r %d", v); return b })
		outcome("b2", b2)
		b3 := Bind(f, func(int) *Promise[int] { tag("bind f ran"); return r })
		outcome("b3", b3)
		m1 := Map(a, func(v int) string { tag("map a %d", v); return "x" })
		outcome("m1", m1)
		m2 := Map(f, func(int) int { tag("map f ran"); return 0 })
		outcome("m2", m2)
		j1 := Join(s, a, a, r)
		outcome("join a a r", j1)
		j0 := Join(s)
		outcome("join empty", j0)
		j2 := Join(s, b, f, a) // f fails first in completion order
		outcome("join b f a", j2)
		Always(a, func() {
			tag("always a")
			Always(a, func() { tag("always a, nested") })
		})
		Always(r, func() { tag("always r") })
		Always(f, func() { tag("always f") })
		s.Defer(func() {
			tag("defer 1")
			a.Resolve(1)
			s.Defer(func() { tag("defer 1, nested") })
		})
		Always(b1, func() { tag("fail b"); b.Fail(errors.New("late")) })
		s.Defer(func() { tag("defer 2") })
		main := Bind(Join(s, b1, m1, j1), func(struct{}) *Promise[struct{}] {
			tag("main")
			return s.Sleep(time.Millisecond)
		})
		if err := s.Run(p, main); err != nil {
			t.Fatal(err)
		}
	})
	want := `bind r 10
join empty: <nil>
always r
always f
defer 1
defer 2
b3: boom
m2: boom
bind a 1
map a 1
always a
defer 1, nested
map r 10
m1: <nil>
join a a r: <nil>
always a, nested
b1: <nil>
fail b
main
join b f a: boom
b2: late`
	if got := strings.Join(log, "\n"); got != want {
		t.Errorf("continuations ran as:\n%s\nwant:\n%s", got, want)
	}
}

// TestSleepOrderContract: a Sleep is one kernel event, so guest timers follow
// the kernel's (time, seq) order and the loop keeps no timer state of its
// own beyond a count of armed Sleeps.
func TestSleepOrderContract(t *testing.T) {
	t.Run("same deadline in call order", func(t *testing.T) {
		var log []string
		run(t, func(p *sim.Proc, s *Scheduler) {
			sleep := func(name string, d time.Duration) Waiter {
				return Map(s.Sleep(d), func(struct{}) struct{} {
					log = append(log, fmt.Sprintf("%v %s", s.K.Now(), name))
					return struct{}{}
				})
			}
			main := Join(s, sleep("a", 2*time.Millisecond), sleep("b", time.Millisecond),
				sleep("c", 2*time.Millisecond), sleep("d", time.Millisecond))
			if err := s.Run(p, main); err != nil {
				t.Fatal(err)
			}
		})
		if got, want := strings.Join(log, ", "), "1ms b, 1ms d, 2ms a, 2ms c"; got != want {
			t.Errorf("Sleeps resolved as %s, want %s", got, want)
		}
	})

	t.Run("non-positive at the current instant after queued events", func(t *testing.T) {
		var log []string
		run(t, func(p *sim.Proc, s *Scheduler) {
			main := Bind(s.Sleep(time.Millisecond), func(struct{}) *Promise[struct{}] {
				var zero, negative *Promise[struct{}]
				s.K.At(s.K.Now(), func() {
					log = append(log, fmt.Sprintf("%v event: zero done %v, negative done %v",
						s.K.Now(), zero.Completed(), negative.Completed()))
				})
				zero, negative = s.Sleep(0), s.Sleep(-time.Millisecond)
				Always(zero, func() { log = append(log, fmt.Sprintf("%v zero", s.K.Now())) })
				Always(negative, func() { log = append(log, fmt.Sprintf("%v negative", s.K.Now())) })
				return Join(s, zero, negative)
			})
			if err := s.Run(p, main); err != nil {
				t.Fatal(err)
			}
		})
		want := "1ms event: zero done false, negative done false, 1ms zero, 1ms negative"
		if got := strings.Join(log, ", "); got != want {
			t.Errorf("ran as %s, want %s", got, want)
		}
	})

	t.Run("a pending Sleep is not a deadlock", func(t *testing.T) {
		for _, sleeping := range []bool{true, false} {
			run(t, func(p *sim.Proc, s *Scheduler) {
				main := NewPromise[struct{}](s)
				s.K.At(sim.Time(5*time.Millisecond), func() { main.Resolve(struct{}{}) })
				if sleeping {
					s.Sleep(time.Hour) // awaited by nobody
				}
				err := s.Run(p, main)
				switch {
				case sleeping && (err != nil || p.Now() != sim.Time(5*time.Millisecond)):
					t.Errorf("with a Sleep armed: Run = %v at %v, want nil at 5ms", err, p.Now())
				case !sleeping && (err == nil || !strings.HasPrefix(err.Error(), "lwt: deadlock: ")):
					t.Errorf("with nothing armed: Run = %v, want lwt's deadlock error", err)
				}
			})
		}
	})

	t.Run("parks under a far-off Sleep leave the event queue as it is", func(t *testing.T) {
		const parks = 10000
		k := sim.NewKernel(1)
		s := NewScheduler(k)
		sig := k.NewSignal("dev")
		var tick func() // a chain of events, one queued at a time
		tick = func() { sig.Set(); k.After(time.Microsecond, tick) }
		k.After(time.Microsecond, tick)
		woken := 0
		k.Spawn("guest", func(p *sim.Proc) {
			main := NewPromise[struct{}](s)
			s.OnSignal(sig, func() {
				if woken++; woken == parks {
					main.Resolve(struct{}{})
				}
			})
			s.Sleep(time.Hour)
			if err := s.Run(p, main); err != nil {
				t.Error(err)
			}
		})
		var lens []int
		for i := 0; i < 10; i++ {
			if _, err := k.RunFor(parks / 10 * time.Microsecond); err != nil {
				t.Fatal(err)
			}
			lens = append(lens, k.EventQueueLen())
		}
		if woken != parks {
			t.Fatalf("guest woke %d times, want %d", woken, parks)
		}
		for _, n := range lens {
			if n != lens[0] {
				t.Fatalf("EventQueueLen over %d parks = %v, want it constant", parks, lens)
			}
		}
		if lens[0] > 2 {
			t.Errorf("EventQueueLen = %d, want the tick and the Sleep only", lens[0])
		}
	})
}
