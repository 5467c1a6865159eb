// Package lwt is the cooperative threading library of a unikernel runtime
// (paper §3.3, after Vouillon's Lwt [18]): lightweight threads are
// heap-allocated promise values composed with Bind/Map/Join, and a
// per-domain scheduler evaluates blocking points into event descriptors so
// application code keeps straight-line control flow.
//
// The VM is either executing code or blocked — there is no preemption and
// no asynchronous interrupts. The run loop parks the domain on its event
// channels via domainpoll (sim.Proc.ArmWaitAny), exactly as §3.3 describes.
// A Sleep is the hypervisor timer that ends such a poll: one kernel event
// whose callback resolves the Sleep's promise, which wakes the loop like any
// other completion from kernel context. So the kernel's event queue is the
// one timer order, and the library keeps none of its own. The loop is an
// event loop in the simulator too: after its first pass it suspends the
// domain's goroutine (sim.Proc.Suspend), and every later wake runs it on the
// kernel's stack, until the main thread completes. Thread scheduling lives
// entirely in this library and can be modified by the application (see
// Scheduler hooks).
package lwt

import (
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

// state of a promise.
const (
	pending = iota
	resolved
	failed
)

// Waiter is the untyped face of a promise, used by combinators that do not
// care about the value type.
type Waiter interface {
	Completed() bool
	Failed() error
	onComplete(c cont)
}

// cont is a continuation: one step on the ready queue. A combinator's node
// is its own continuation, so composing threads allocates no closure.
type cont interface{ run() }

// callback adapts a plain func (Always, Defer) to cont. A func value is
// pointer-shaped, so the conversion allocates nothing.
type callback func()

func (f callback) run() { f() }

// Promise is a lightweight thread: a heap-allocated value that is either
// pending, resolved with a T, or failed with an error.
type Promise[T any] struct {
	s     *Scheduler
	state int
	value T
	err   error
	// Continuations run in registration order: first, then more. Almost
	// every promise is awaited exactly once, so the first continuation has
	// its own field and the list behind more exists only from the second on.
	first cont
	more  *[]cont
}

// init makes p a pending promise owned by s, charging s for one thread.
// Every promise, whether allocated alone or inside a combinator's node, is
// born here.
func (p *Promise[T]) init(s *Scheduler) {
	s.Created++
	if s.Heap != nil {
		s.Heap.Alloc(threadRecordBytes)
	}
	p.s = s
}

// Completed reports whether the promise is resolved or failed.
func (p *Promise[T]) Completed() bool { return p.state != pending }

// Failed returns the failure error, or nil.
func (p *Promise[T]) Failed() error { return p.err }

// Value returns the resolved value; it panics on a non-resolved promise.
func (p *Promise[T]) Value() T {
	if p.state != resolved {
		panic("lwt: Value of unresolved promise")
	}
	return p.value
}

func (p *Promise[T]) onComplete(c cont) {
	if p.state != pending {
		p.s.enqueue(c)
		return
	}
	if p.first == nil {
		p.first = c
		return
	}
	if p.more == nil {
		p.more = new([]cont)
	}
	*p.more = append(*p.more, c)
}

func (p *Promise[T]) complete() {
	if c := p.first; c != nil {
		p.first = nil
		p.s.enqueue(c)
	}
	if more := p.more; more != nil {
		p.more = nil
		for _, c := range *more {
			p.s.enqueue(c)
		}
	}
	// A completion with no callbacks may still be the main thread Run is
	// waiting on; poke the domain in case this ran in kernel context.
	p.s.poke()
}

// Resolve fulfils the promise. Resolving a completed promise is an error in
// the program; it panics.
func (p *Promise[T]) Resolve(v T) {
	if p.state != pending {
		panic("lwt: double resolve")
	}
	p.state = resolved
	p.value = v
	p.complete()
}

// Fail completes the promise with an error.
func (p *Promise[T]) Fail(err error) {
	if p.state != pending {
		panic("lwt: fail of completed promise")
	}
	p.state = failed
	p.err = err
	p.complete()
}

// Scheduler evaluates lightweight threads inside one domain.
type Scheduler struct {
	K        *sim.Kernel
	ready    []cont
	sleeping int // Sleeps whose kernel event has not fired yet

	sigScratch []*sim.Signal // Run's park list, rebuilt in place each park

	// wake is an internal signal Run always parks on: completions and
	// deferred callbacks arriving from kernel context (device events,
	// protocol timers) set it so the domain notices without relying on the
	// event source to also fire a watched signal.
	wake   *sim.Signal
	parked bool

	// Run's loop between wakes: the proc it runs on, the thread it waits
	// for, where it is suspended, main's failure once it completes, and the
	// loop as the proc's inline body (s.step, bound once).
	p    *sim.Proc
	main Waiter
	at   int
	err  error
	body func() bool

	// Heap, when set, is charged threadRecordBytes per promise created;
	// CPU, when set, receives the drained heap costs during Run.
	Heap *mem.Heap
	CPU  *sim.CPU

	watched []watch

	// Stats
	Created int // promises created
	Wakes   int // timer wakeups delivered
}

type watch struct {
	sig *sim.Signal
	fn  func()
}

// threadRecordBytes approximates the heap footprint of one Lwt thread
// (promise record, closure, timer entry).
const threadRecordBytes = 96

// NewScheduler creates a scheduler over the simulation kernel.
func NewScheduler(k *sim.Kernel) *Scheduler {
	return &Scheduler{K: k, wake: k.NewSignal("lwt-wake")}
}

// NewPromise creates a pending promise owned by s.
func NewPromise[T any](s *Scheduler) *Promise[T] {
	p := &Promise[T]{}
	p.init(s)
	return p
}

// Return creates an already-resolved promise.
func Return[T any](s *Scheduler, v T) *Promise[T] {
	p := NewPromise[T](s)
	p.state = resolved
	p.value = v
	return p
}

// FailWith creates an already-failed promise.
func FailWith[T any](s *Scheduler, err error) *Promise[T] {
	p := NewPromise[T](s)
	p.state = failed
	p.err = err
	return p
}

// Defer queues fn on the ready queue.
func (s *Scheduler) Defer(fn func()) { s.enqueue(callback(fn)) }

// enqueue queues a continuation on the ready queue.
func (s *Scheduler) enqueue(c cont) {
	s.ready = append(s.ready, c)
	s.poke()
}

// poke wakes the domain if it is parked in Run.
func (s *Scheduler) poke() {
	if s.parked {
		s.wake.Set()
	}
}

// bindNode is all of one Bind: the result promise, and the continuation it
// registers first on p and then on f's promise.
type bindNode[A, B any] struct {
	out   Promise[B]
	p     *Promise[A]
	f     func(A) *Promise[B]
	inner *Promise[B]
}

func (n *bindNode[A, B]) run() {
	if p := n.p; p != nil { // p has completed
		f := n.f
		n.p, n.f = nil, nil
		if p.state == failed {
			n.out.Fail(p.err)
			return
		}
		n.inner = f(p.value)
		n.inner.onComplete(n)
		return
	}
	inner := n.inner
	n.inner = nil
	if inner.state == failed {
		n.out.Fail(inner.err)
	} else {
		n.out.Resolve(inner.value)
	}
}

// Bind sequences f after p: when p resolves, f runs with its value and the
// returned promise adopts f's result. Failures propagate.
func Bind[A, B any](p *Promise[A], f func(A) *Promise[B]) *Promise[B] {
	n := &bindNode[A, B]{p: p, f: f}
	n.out.init(p.s)
	p.onComplete(n)
	return &n.out
}

// mapNode is all of one Map: the result promise and its continuation on p.
type mapNode[A, B any] struct {
	out Promise[B]
	p   *Promise[A]
	f   func(A) B
}

func (n *mapNode[A, B]) run() {
	p, f := n.p, n.f
	n.p, n.f = nil, nil
	if p.state == failed {
		n.out.Fail(p.err)
	} else {
		n.out.Resolve(f(p.value))
	}
}

// Map applies f to p's value.
func Map[A, B any](p *Promise[A], f func(A) B) *Promise[B] {
	n := &mapNode[A, B]{p: p, f: f}
	n.out.init(p.s)
	p.onComplete(n)
	return &n.out
}

// Always runs fn when w completes, whether resolved or failed — the
// finaliser combinator used for cleanup paths.
func Always(w Waiter, fn func()) { w.onComplete(callback(fn)) }

// joinNode is a Join's result and count; each waiter gets one joinArm, and
// the arms share one slice.
type joinNode struct {
	out       Promise[struct{}]
	remaining int
	firstErr  error
}

type joinArm struct {
	n *joinNode
	w Waiter
}

func (a *joinArm) run() {
	n := a.n
	if err := a.w.Failed(); err != nil && n.firstErr == nil {
		n.firstErr = err
	}
	n.remaining--
	if n.remaining == 0 {
		if n.firstErr != nil {
			n.out.Fail(n.firstErr)
		} else {
			n.out.Resolve(struct{}{})
		}
	}
}

// Join resolves when all of ws complete; it fails with the first failure.
func Join(s *Scheduler, ws ...Waiter) *Promise[struct{}] {
	n := &joinNode{remaining: len(ws)}
	n.out.init(s)
	if len(ws) == 0 {
		n.out.Resolve(struct{}{})
		return &n.out
	}
	arms := make([]joinArm, len(ws))
	for i, w := range ws {
		arms[i] = joinArm{n: n, w: w}
		w.onComplete(&arms[i])
	}
	return &n.out
}

// Sleep returns a promise resolving after d of virtual time. It arms one
// kernel event, so Sleeps fire in the kernel's (time, seq) order: those due
// at one instant in call order, and a non-positive d at the current instant
// after the events already queued there. The promise is the event's
// argument, so arming allocates nothing beyond it.
func (s *Scheduler) Sleep(d time.Duration) *Promise[struct{}] {
	p := NewPromise[struct{}](s)
	s.sleeping++
	s.K.AtArg(s.K.Now().Add(d), wakeSleeper, p, 0)
	return p
}

// wakeSleeper is a Sleep's kernel event: it resolves the promise, whose
// completion pokes the scheduler.
func wakeSleeper(arg any, _ uint64) {
	p := arg.(*Promise[struct{}])
	s := p.s
	s.sleeping--
	if p.state == pending {
		s.Wakes++
		p.Resolve(struct{}{})
	}
}

// OnSignal arranges for fn to run whenever sig fires while the scheduler is
// parked in Run — this is how device drivers inject events.
func (s *Scheduler) OnSignal(sig *sim.Signal, fn func()) {
	s.watched = append(s.watched, watch{sig, fn})
}

// pass drains the ready queue once, then books the accrued heap costs on the
// CPU. It reports whether it armed such a charge: the domain then waits out
// the CPU time before going on.
func (s *Scheduler) pass(p *sim.Proc) bool {
	// Index drain so the backing array is reused: callbacks may Defer more
	// work, which the growing-bound loop picks up in order.
	for i := 0; i < len(s.ready); i++ {
		c := s.ready[i]
		s.ready[i] = nil
		c.run()
	}
	s.ready = s.ready[:0]
	if s.Heap == nil {
		return false
	}
	gc := s.Heap.Drain()
	return s.CPU != nil && p.ArmUse(s.CPU, gc)
}

// Where Run's loop is suspended between wakes.
const (
	atTop  = iota // not suspended: the next step starts a pass
	atUse         // a pass's CPU charge is being waited out
	atPoll        // parked in domainpoll on the watched signals and the wake
)

// Run evaluates threads until main completes, parking the domain on its
// watched signals in between — the §3.3 main loop over domainpoll; a Sleep
// falling due wakes it like a completion from kernel context. It returns
// main's failure, if any. The loop's first steps run on p's goroutine; at
// its first wait the goroutine suspends, and every later wake of p runs the
// loop on the kernel's stack until main completes and the goroutine resumes.
func (s *Scheduler) Run(p *sim.Proc, main Waiter) error {
	s.p, s.main, s.at = p, main, atTop
	if !s.step() {
		if s.body == nil {
			s.body = s.step
		}
		p.Suspend(s.body)
	}
	err := s.err
	s.p, s.main, s.err = nil, nil, nil
	return err
}

// step runs the loop from where it was suspended until it must wait again —
// it arms that wait and returns false — or main has completed (true, with
// main's failure or a deadlock in s.err).
func (s *Scheduler) step() bool {
	p := s.p
	if s.at == atPoll {
		s.polled(p.CollectWaitAny(s.sigScratch...))
		s.at = atTop
	}
	for {
		if s.at == atUse {
			p.CollectUse()
			s.at = atTop
		} else if s.pass(p) {
			s.at = atUse
			return false
		}
		if len(s.ready) > 0 {
			continue
		}
		if s.main.Completed() {
			s.err = s.main.Failed()
			return true
		}
		if s.sleeping == 0 && len(s.watched) == 0 {
			s.err = fmt.Errorf("lwt: deadlock: main thread pending with no timers or events")
			return true
		}
		n := len(s.watched) + 1
		if cap(s.sigScratch) < n {
			s.sigScratch = make([]*sim.Signal, n)
		}
		sigs := s.sigScratch[:n]
		for i, w := range s.watched {
			sigs[i] = w.sig
		}
		sigs[n-1] = s.wake
		s.sigScratch = sigs // CollectWaitAny takes the same list
		s.parked = true
		idx := p.ArmWaitAny(sigs...)
		if idx < 0 {
			s.at = atPoll
			return false
		}
		s.polled(idx)
	}
}

// polled ends a domainpoll that returned idx: a watched signal's handler
// runs.
func (s *Scheduler) polled(idx int) {
	s.parked = false
	if idx >= 0 && idx < len(s.watched) {
		s.watched[idx].fn()
	}
}
