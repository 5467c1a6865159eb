// Package lwt is the cooperative threading library of a unikernel runtime
// (paper §3.3, after Vouillon's Lwt [18]): lightweight threads are
// heap-allocated promise values composed with Bind/Map/Join/Choose, and a
// per-domain scheduler evaluates blocking points into event descriptors so
// application code keeps straight-line control flow.
//
// The VM is either executing code or blocked — there is no preemption and
// no asynchronous interrupts. Only the run loop touches the platform: it
// parks the domain on its event channels and its next timer via domainpoll
// (sim.Proc.ArmWaitAny), exactly as §3.3 describes. The loop is an event
// loop in the simulator too: after its first pass it suspends the domain's
// goroutine (sim.Proc.Suspend), and every later wake runs it on the
// kernel's stack, until the main thread completes. Thread scheduling lives
// entirely in this library and can be modified by the application (timers
// sit in a heap-allocated priority queue; see Scheduler hooks).
package lwt

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

// ErrCanceled is the failure state of a cancelled thread.
var ErrCanceled = errors.New("lwt: thread canceled")

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
	onComplete(fn func())
	cancel()
}

// Promise is a lightweight thread: a heap-allocated value that is either
// pending, resolved with a T, or failed with an error.
type Promise[T any] struct {
	s     *Scheduler
	state int
	value T
	err   error
	// Continuations run in registration order: first, then callbacks. Almost
	// every promise is awaited exactly once, so the first continuation has
	// its own field and the slice exists only from the second on.
	first     func()
	callbacks []func()
	onCancel  func()
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

func (p *Promise[T]) onComplete(fn func()) {
	if p.state != pending {
		p.s.Defer(fn)
		return
	}
	if p.first == nil {
		p.first = fn
		return
	}
	p.callbacks = append(p.callbacks, fn)
}

func (p *Promise[T]) complete() {
	if cb := p.first; cb != nil {
		p.first = nil
		p.s.Defer(cb)
	}
	cbs := p.callbacks
	p.callbacks = nil
	for _, cb := range cbs {
		p.s.Defer(cb)
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

// Cancel fails a pending promise with ErrCanceled and runs its cancel hook
// (used by the scheduler to free resources held by a thread, §3.4.1).
func (p *Promise[T]) Cancel() { p.cancel() }

func (p *Promise[T]) cancel() {
	if p.state != pending {
		return
	}
	if h := p.onCancel; h != nil {
		p.onCancel = nil
		h()
	}
	p.Fail(ErrCanceled)
}

// OnCancel registers a hook run if the thread is cancelled.
func (p *Promise[T]) OnCancel(fn func()) { p.onCancel = fn }

type timerEntry struct {
	at  sim.Time
	seq uint64
	p   *Promise[struct{}]
}

type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timerEntry)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler evaluates lightweight threads inside one domain.
type Scheduler struct {
	K      *sim.Kernel
	ready  []func()
	timers timerHeap
	seq    uint64

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
	// CPU, when set, receives drained heap costs and per-wake dispatch
	// costs during Run.
	Heap *mem.Heap
	CPU  *sim.CPU
	// WakeCost is the dispatch cost per timer wake (default 0).
	WakeCost time.Duration

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
	s.Created++
	if s.Heap != nil {
		s.Heap.Alloc(threadRecordBytes)
	}
	return &Promise[T]{s: s, state: pending}
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
func (s *Scheduler) Defer(fn func()) {
	s.ready = append(s.ready, fn)
	s.poke()
}

// poke wakes the domain if it is parked in Run.
func (s *Scheduler) poke() {
	if s.parked {
		s.wake.Set()
	}
}

// Bind sequences f after p: when p resolves, f runs with its value and the
// returned promise adopts f's result. Failures propagate.
func Bind[A, B any](p *Promise[A], f func(A) *Promise[B]) *Promise[B] {
	out := NewPromise[B](p.s)
	p.onComplete(func() {
		if p.state == failed {
			out.Fail(p.err)
			return
		}
		inner := f(p.value)
		inner.onComplete(func() {
			if inner.state == failed {
				out.Fail(inner.err)
			} else {
				out.Resolve(inner.value)
			}
		})
	})
	return out
}

// Map applies f to p's value.
func Map[A, B any](p *Promise[A], f func(A) B) *Promise[B] {
	out := NewPromise[B](p.s)
	p.onComplete(func() {
		if p.state == failed {
			out.Fail(p.err)
		} else {
			out.Resolve(f(p.value))
		}
	})
	return out
}

// Always runs fn when w completes, whether resolved or failed — the
// finaliser combinator used for cleanup paths.
func Always(w Waiter, fn func()) { w.onComplete(fn) }

// Join resolves when all of ws complete; it fails with the first failure.
func Join(s *Scheduler, ws ...Waiter) *Promise[struct{}] {
	out := NewPromise[struct{}](s)
	remaining := len(ws)
	if remaining == 0 {
		out.Resolve(struct{}{})
		return out
	}
	var firstErr error
	for _, w := range ws {
		w := w
		w.onComplete(func() {
			if err := w.Failed(); err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 {
				if firstErr != nil {
					out.Fail(firstErr)
				} else {
					out.Resolve(struct{}{})
				}
			}
		})
	}
	return out
}

// Choose resolves with the index of the first of ws to complete.
func Choose(s *Scheduler, ws ...Waiter) *Promise[int] {
	out := NewPromise[int](s)
	for i, w := range ws {
		i, w := i, w
		w.onComplete(func() {
			if out.state == pending {
				out.Resolve(i)
			}
		})
	}
	return out
}

// Sleep returns a promise resolving after d of virtual time.
func (s *Scheduler) Sleep(d time.Duration) *Promise[struct{}] {
	p := NewPromise[struct{}](s)
	s.seq++
	heap.Push(&s.timers, &timerEntry{at: s.K.Now().Add(d), seq: s.seq, p: p})
	return p
}

// OnSignal arranges for fn to run whenever sig fires while the scheduler is
// parked in Run — this is how device drivers inject events.
func (s *Scheduler) OnSignal(sig *sim.Signal, fn func()) {
	s.watched = append(s.watched, watch{sig, fn})
}

// pass drains the ready queue and fires due timers once, then books the
// accrued heap and dispatch costs on the CPU. It reports whether it armed
// such a charge: the domain then waits out the CPU time before going on.
func (s *Scheduler) pass(p *sim.Proc) bool {
	// Index drain so the backing array is reused: callbacks may Defer more
	// work, which the growing-bound loop picks up in order.
	for i := 0; i < len(s.ready); i++ {
		fn := s.ready[i]
		s.ready[i] = nil
		fn()
	}
	s.ready = s.ready[:0]
	fired := 0
	now := s.K.Now()
	for len(s.timers) > 0 && s.timers[0].at <= now {
		e := heap.Pop(&s.timers).(*timerEntry)
		if e.p.state == pending {
			e.p.Resolve(struct{}{})
			fired++
		}
	}
	s.Wakes += fired
	dispatch := time.Duration(fired) * s.WakeCost
	if s.Heap != nil {
		dispatch += s.Heap.Drain()
	}
	return s.CPU != nil && p.ArmUse(s.CPU, dispatch)
}

// idle reports whether nothing is runnable now: no ready callback, no due
// timer.
func (s *Scheduler) idle() bool {
	return len(s.ready) == 0 && (len(s.timers) == 0 || s.timers[0].at > s.K.Now())
}

// Where Run's loop is suspended between wakes.
const (
	atTop  = iota // not suspended: the next step starts a pass
	atUse         // a pass's CPU charge is being waited out
	atPoll        // parked in domainpoll on the watched signals and next timer
)

// Run evaluates threads until main completes, parking the domain on its
// watched signals and the next timer deadline in between — the §3.3 main
// loop over domainpoll. It returns main's failure, if any. The loop's first
// steps run on p's goroutine; at its first wait the goroutine suspends, and
// every later wake of p runs the loop on the kernel's stack until main
// completes and the goroutine resumes.
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
		if !s.idle() {
			continue
		}
		if s.main.Completed() {
			s.err = s.main.Failed()
			return true
		}
		// idle: the next timer, if any, lies in the future.
		var timeout time.Duration
		if len(s.timers) > 0 {
			timeout = s.timers[0].at.Sub(s.K.Now())
		}
		if timeout == 0 && len(s.watched) == 0 {
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
		idx := p.ArmWaitAny(timeout, sigs...)
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
