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
