// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock and an event queue. Simulated activities
// run as Procs: goroutines that are strictly coroutine-scheduled so that at
// most one of them (or the kernel itself) executes at any instant. Procs
// park on timers, signals, or CPU resources; the kernel advances virtual
// time to the next scheduled event whenever no proc is runnable. An activity
// that only ever reacts to one signal and never blocks mid-way — a device
// backend — is a handler instead (SpawnHandler): a proc's identity and
// run-queue slot without the goroutine. A proc whose waiting is a loop — a
// guest's scheduler — can suspend its goroutine into an inline body
// (Suspend): each wake then runs that body on the kernel's stack, in the
// proc's run-queue slot, and the goroutine resumes only when the body is
// done. Waiting on any of several signals and charging CPU time come in an
// arm and a collect half (ArmWaitAny/CollectWaitAny, ArmUse/CollectUse) so a
// body can wait without blocking.
//
// Determinism: one order governs everything scheduled for the future. The
// run queue is FIFO. Timed events fire in (time, insertion sequence) order:
// those due at one instant in the order they were armed, and one armed for
// the past at the current instant, after those already queued there. A
// guest's lwt Sleep is one such event, so guest timers need no order of
// their own. Timing-wheel timers (wheel.go) fire in (deadline, key, seq)
// order at the 1 ms tick boundary their deadline rounds up to; the wheel
// carries the protocol timers that a million connections arm and cancel,
// and stays out of guest sleeps, whose µs deadlines its tick would round.
// All randomness flows through the kernel's seeded RNG. Two runs of the same
// program observe identical virtual-time traces.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/obs"
)

// Time is an instant of virtual time, in nanoseconds since simulation start.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t, interpreted as a span, into a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// event is one queued callback: fn(arg, n) runs at at (AtArg; At queues
// callFunc with the func() as arg).
type event struct {
	at  Time
	seq uint64
	fn  func(arg any, n uint64)
	arg any
	n   uint64
}

// eventHeap is a 4-ary min-heap ordered by (at, seq), a total order. The
// wider fan-out halves tree depth versus a binary heap, so each push and pop
// sifts through half as many levels. Nothing leaves it but by popping: every
// queued event fires.
type eventHeap []*event

// before reports whether a fires before b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up sifts the entry at i towards the root.
func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// down sifts the entry at i towards the leaves.
func (h eventHeap) down(i int) {
	e, n := h[i], len(h)
	for {
		c0 := i*4 + 1
		if c0 >= n {
			break
		}
		min := c0
		for c := c0 + 1; c < c0+4 && c < n; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}

func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop takes the earliest entry out of the heap and returns it.
func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	e, last := q[0], q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n > 0 {
		q[0] = last
		q.down(0)
	}
	return e
}

// Kernel is a discrete-event simulation kernel. Create one with NewKernel;
// the zero value is not usable.
type Kernel struct {
	now     Time
	events  eventHeap
	evFree  []*event // retired event structs recycled by AtArg
	runq    []*Proc
	runqHd  int // index of the next runnable proc (drained head)
	seq     uint64
	rng     *rand.Rand
	live    map[*Proc]struct{}
	stopped bool
	limit   Time // 0 means no limit
	procSeq int

	// parked receives the proc that just yielded control back to the
	// kernel (or nil when it exited).
	parked   chan *Proc
	handoffs int // goroutine resumes, each a two-channel switch (handOff)

	panicVal any
	panicked bool

	trace   *obs.Tracer
	metrics *obs.Registry
	cpus    []*CPU

	wheel    *Wheel // lazily created hierarchical timing wheel (see wheel.go)
	heapPeak int    // high-water mark of the event heap

	mxSpawns *obs.Counter
	mxWakes  *obs.Counter

	// Sharding (nil cluster on a plain kernel; every new field below is
	// inert then, keeping the single-kernel path bit-for-bit identical).
	cluster *Cluster
	shard   int
	winEnd  Time    // exclusive event bound of the current epoch window (0 = none)
	mbox    mailbox // cross-shard sends destined for this kernel
	xseq    uint64  // outgoing cross-shard send sequence
}

// NewKernel returns a kernel with virtual time 0, an RNG seeded with seed, a
// fresh disabled tracer and a fresh registry.
func NewKernel(seed int64) *Kernel { return NewKernelObs(seed, nil, nil) }

// NewKernelObs is NewKernel attached to the caller's tracer and registry:
// every kernel of one run is handed the same pair, so a multi-kernel run
// lands on one timeline and one metric space. Either may be nil (fresh
// disabled tracer / fresh registry).
func NewKernelObs(seed int64, t *obs.Tracer, m *obs.Registry) *Kernel {
	k := &Kernel{
		rng:     rand.New(rand.NewSource(seed)),
		live:    map[*Proc]struct{}{},
		parked:  make(chan *Proc),
		trace:   t,
		metrics: m,
	}
	if k.trace == nil {
		k.trace = obs.NewTracer(0)
	} else {
		k.trace.Rebase()
	}
	if k.metrics == nil {
		k.metrics = obs.NewRegistry()
	}
	k.trace.NameProcess(0, "host")
	k.mxSpawns = k.metrics.Counter("sim_procs_spawned_total")
	k.mxWakes = k.metrics.Counter("sim_proc_wakes_total")
	return k
}

// Trace returns the kernel's tracer (never nil, possibly disabled).
func (k *Kernel) Trace() *obs.Tracer { return k.trace }

// Metrics returns the kernel's metrics registry (never nil).
func (k *Kernel) Metrics() *obs.Registry { return k.metrics }

// shards returns the kernels this kernel's whole-run readings range over:
// every shard of its cluster, or just itself.
func (k *Kernel) shards() []*Kernel {
	if k.cluster == nil {
		return []*Kernel{k}
	}
	return k.cluster.kernels
}

// CPUs returns every CPU created on this kernel — on a sharded kernel,
// across all shards — in (shard, creation) order.
func (k *Kernel) CPUs() []*CPU {
	var out []*CPU
	for _, sk := range k.shards() {
		out = append(out, sk.cpus...)
	}
	return out
}

// TraceTime converts the kernel clock for tracer calls.
func (k *Kernel) TraceTime() obs.Time { return obs.Time(k.now) }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// At schedules fn to run in kernel context at virtual time t. Times in the
// past run at the current instant, after already-queued events.
func (k *Kernel) At(t Time, fn func()) { k.AtArg(t, callFunc, fn, 0) }

// callFunc is the callback At queues: its argument is the func() to run. A
// func value is pointer-shaped, so the event holds it without allocating.
func callFunc(fn any, _ uint64) { fn.(func())() }

// AtArg is At for a callback that is built once and told by the event what
// it is about: fn(arg, n) runs at t. A per-frame event then needs no closure,
// and storing a pointer-shaped arg (a pointer, or an interface holding one)
// allocates nothing; n carries a word of metadata beside it. The event
// struct is a recycled one when there is one.
func (k *Kernel) AtArg(t Time, fn func(arg any, n uint64), arg any, n uint64) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	var e *event
	if last := len(k.evFree) - 1; last >= 0 {
		e = k.evFree[last]
		k.evFree[last] = nil
		k.evFree = k.evFree[:last]
		e.at, e.seq = t, k.seq
	} else {
		e = &event{at: t, seq: k.seq}
	}
	e.fn, e.arg, e.n = fn, arg, n
	k.events.push(e)
	if len(k.events) > k.heapPeak {
		k.heapPeak = len(k.events)
	}
}

// EventQueueLen returns the number of scheduled events; on a sharded kernel,
// summed across shards. Only meaningful outside the run loop — call it
// between Run calls.
func (k *Kernel) EventQueueLen() int {
	n := 0
	for _, sk := range k.shards() {
		n += len(sk.events)
	}
	return n
}

// EventHeapPeak returns the high-water mark of the event heap; on a sharded
// kernel, the sum of per-shard peaks. Call between Run calls.
func (k *Kernel) EventHeapPeak() int {
	n := 0
	for _, sk := range k.shards() {
		n += sk.heapPeak
	}
	return n
}

// WheelTimers returns the number of pending timing-wheel timers; on a
// sharded kernel, summed across shards. Call between Run calls.
func (k *Kernel) WheelTimers() int {
	n := 0
	for _, sk := range k.shards() {
		if sk.wheel != nil {
			n += sk.wheel.count
		}
	}
	return n
}

// WheelTimerPeak returns the high-water mark of pending timing-wheel
// timers, summed across shards on a sharded kernel. Call between Run calls.
func (k *Kernel) WheelTimerPeak() int {
	n := 0
	for _, sk := range k.shards() {
		if sk.wheel != nil {
			n += sk.wheel.peak
		}
	}
	return n
}

// After schedules fn to run d after the current instant.
func (k *Kernel) After(d time.Duration, fn func()) { k.At(k.now.Add(d), fn) }

// recycle retires an event struct that has left the heap for reuse by AtArg.
func (k *Kernel) recycle(e *event) {
	e.fn, e.arg = nil, nil
	k.evFree = append(k.evFree, e)
}

// peek returns the earliest scheduled event, nil when the queue is empty.
func (k *Kernel) peek() *event {
	if len(k.events) == 0 {
		return nil
	}
	return k.events[0]
}

// Stop terminates the run loop after the currently executing step. On a
// sharded kernel it stops the whole cluster: the current epoch's other
// shards still complete their windows (a deterministic boundary), then the
// cluster run returns.
func (k *Kernel) Stop() {
	k.stopped = true
	if k.cluster != nil {
		k.cluster.stopped = true
	}
}

// StopAt sets a virtual-time limit: Run returns once the clock would pass
// t. On a sharded kernel this applies cluster-wide and must be called
// outside the run loop (setup or between Run calls).
func (k *Kernel) StopAt(t Time) {
	k.limit = t
	if c := k.cluster; c != nil {
		c.limit = t
		for _, sk := range c.kernels {
			sk.limit = t
		}
	}
}

// Proc is a simulated process: a goroutine coroutine-scheduled by the kernel.
// A handler (SpawnHandler) is a Proc without the goroutine: it owns the same
// identity, run-queue slot and wake accounting, and step runs it inline. So
// does a proc suspended into an inline body (Suspend) until the body is done.
type Proc struct {
	k      *Kernel
	name   string
	id     int
	resume chan struct{}
	ready  bool // already on the run queue or scheduled to wake
	done   bool
	daemon bool   // daemon procs may remain parked at simulation end
	parkAt string // description of the current park site, for diagnostics

	wake func() // schedules the proc; the one callback every park timer uses

	body      func() bool // while suspended (Suspend), or a handler's for good: what each wake runs
	inBody    bool        // body is running, on the kernel's stack
	bodyPanic any         // a panic out of body, re-raised on the goroutine

	tracePid int // trace process the proc is attributed to (domain ID; 0 = host)
}

// SetTracePid attributes the proc's trace events to a domain's process row
// (the hypervisor calls this when it starts a domain's boot proc).
func (p *Proc) SetTracePid(pid int) {
	p.tracePid = pid
	p.k.trace.NameThread(pid, p.id, p.name)
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// tidStride namespaces proc IDs (trace thread IDs) per shard: shard i's
// procs are numbered i*tidStride+1, i*tidStride+2, …, so (pid, tid) pairs
// stay unique cluster-wide and thread-name registrations cannot collide
// across shards.
const tidStride = 1 << 20

// Spawn creates a process running fn and marks it runnable. fn starts
// executing when the kernel next schedules it.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := k.newProc(name)
	p.resume = make(chan struct{})
	go func() {
		<-p.resume
		defer func() {
			if v := recover(); v != nil {
				k.panicVal = fmt.Sprintf("sim: proc %q panicked: %v", p.name, v)
				k.panicked = true
			}
			p.done = true
			k.parked <- nil
		}()
		fn(p)
	}()
	return p
}

// newProc registers a live, runnable proc (no body yet) at the back of the
// run queue.
func (k *Kernel) newProc(name string) *Proc {
	k.procSeq++
	// Shards stride their proc IDs apart so trace (pid, tid) pairs stay
	// unique cluster-wide; on a plain kernel shard is 0 and IDs are 1, 2, …
	// exactly as before.
	p := &Proc{k: k, name: name, id: k.shard*tidStride + k.procSeq}
	p.wake = func() { k.schedule(p) }
	k.live[p] = struct{}{}
	k.mxSpawns.Inc()
	if k.trace.Enabled() {
		k.trace.NameThread(0, p.id, name)
		k.trace.Instant(k.TraceTime(), "kernel", "spawn", 0, p.id, obs.Str("proc", name))
	}
	p.ready = true
	k.runq = append(k.runq, p)
	return p
}

// SpawnDaemon creates a process like Spawn, but the simulation is allowed
// to end while it is still parked (device backends, servers).
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	p := k.Spawn(name, fn)
	p.daemon = true
	return p
}

// SpawnHandler creates a daemon that needs no goroutine: a proc born with an
// inline body (see Suspend) that never finishes. The body is the loop of a
// daemon proc running `for { fn(); p.Wait(sig) }`, through Wait's own halves —
// fn runs once when the kernel first schedules it, then once per wake-up by
// sig, and again at once while a Set arrived during the run — in the very
// run-queue slot that proc would have been resumed in, so which form a backend
// takes is invisible to virtual time, event order, the wake count and the
// trace. fn must not block: it has no Proc to park. Use a Proc for anything
// that sleeps, waits on several signals or consumes CPU time with Use.
func (k *Kernel) SpawnHandler(name string, sig *Signal, fn func()) {
	p := k.newProc(name)
	p.daemon = true
	p.body = func() bool {
		if p.parkAt != "" { // woken out of its wait
			p.collectWait(sig)
		}
		for {
			fn()
			if p.armWait(sig) {
				return false
			}
		}
	}
}

// runBody is one wake of a suspended proc: its body runs here, on the
// kernel's stack, in the run-queue slot where the goroutine would have been
// resumed. Once the body is done — or has panicked — the goroutine resumes
// in this same step, so Suspend returns (or re-raises) exactly where the
// goroutine would have carried on. A handler has no goroutine: its panic
// ends the run here, named as the handler's.
func (k *Kernel) runBody(p *Proc) {
	if !p.callBody() {
		return
	}
	if p.resume == nil {
		k.panicVal = fmt.Sprintf("sim: handler %q panicked: %v", p.name, p.bodyPanic)
		k.panicked = true
		return
	}
	p.body = nil
	k.handOff(p)
}

// callBody runs p's body once and reports whether it is done; a panic counts
// as done and is kept for the goroutine to re-raise as its own.
func (p *Proc) callBody() (done bool) {
	defer func() {
		p.inBody = false
		if v := recover(); v != nil {
			p.bodyPanic, done = v, true
		}
	}()
	p.inBody = true
	return p.body()
}

// handOff resumes p's goroutine and waits until it parks again or exits: the
// two-channel switch every goroutine step costs.
func (k *Kernel) handOff(p *Proc) {
	k.handoffs++
	p.resume <- struct{}{}
	<-k.parked
	if p.done {
		delete(k.live, p)
	}
}

// schedule marks p runnable at the current instant (idempotent).
func (k *Kernel) schedule(p *Proc) {
	if p.ready || p.done {
		return
	}
	p.ready = true
	k.runq = append(k.runq, p)
	k.mxWakes.Inc()
	if k.trace.Enabled() {
		k.trace.Instant(k.TraceTime(), "kernel", "wake", p.tracePid, p.id)
	}
}

// step runs one runnable proc or advances the clock to the next event.
// It reports whether any progress was made.
func (k *Kernel) step() bool {
	for k.runqHd == len(k.runq) {
		e := k.peek()
		if e == nil {
			break
		}
		if k.limit != 0 && e.at > k.limit {
			return false
		}
		if k.winEnd != 0 && e.at >= k.winEnd {
			return false
		}
		k.events.pop()
		k.now = e.at
		fn, arg, n := e.fn, e.arg, e.n
		k.recycle(e)
		fn(arg, n) // may schedule procs or more events (and reuse e)
	}
	if k.runqHd == len(k.runq) {
		return false
	}
	p := k.runq[k.runqHd]
	k.runq[k.runqHd] = nil
	k.runqHd++
	if k.runqHd == len(k.runq) {
		k.runq, k.runqHd = k.runq[:0], 0 // reuse the backing array
	}
	p.ready = false
	if p.done {
		return true
	}
	if p.body != nil {
		k.runBody(p)
	} else {
		k.handOff(p)
	}
	if k.panicked {
		panic(k.panicVal)
	}
	return true
}

// Run executes the simulation until no proc is runnable and no event is
// pending (or Stop/StopAt applies). It returns the final virtual time.
// If live procs remain parked with nothing to wake them, Run returns an
// error describing the deadlock. On a sharded kernel Run drives the whole
// cluster through its epoch loop.
func (k *Kernel) Run() (Time, error) {
	if k.cluster != nil {
		return k.cluster.Run()
	}
	for !k.stopped {
		if !k.step() {
			break
		}
	}
	if !k.stopped && (k.limit == 0 || k.peek() == nil) {
		return k.now, deadlock(k.now, k.shards())
	}
	return k.now, nil
}

// RunFor advances the simulation by d of virtual time.
func (k *Kernel) RunFor(d time.Duration) (Time, error) {
	if k.cluster != nil {
		return k.cluster.RunFor(d)
	}
	prev := k.limit
	k.limit = k.now.Add(d)
	t, err := k.Run()
	if k.now < k.limit {
		k.now = k.limit
		t = k.now
	}
	k.limit = prev
	k.stopped = false
	return t, err
}

// deadlock is the one report both drivers end a run with: nil when every
// proc still live on kernels is a daemon (backends and servers may stay
// parked), otherwise an error naming the stuck procs — the first eight in
// name order — and where each is parked.
func deadlock(now Time, kernels []*Kernel) error {
	var parked []string
	for _, k := range kernels {
		for p := range k.live {
			if !p.daemon {
				parked = append(parked, fmt.Sprintf("%s@%s", p.name, p.parkAt))
			}
		}
	}
	n := len(parked)
	if n == 0 {
		return nil
	}
	sort.Strings(parked)
	if n > 8 {
		parked = append(parked[:8], "...")
	}
	return fmt.Errorf("sim: deadlock at %v: %d procs parked: %s", now, n, fmt.Sprint(parked))
}

// park blocks p until the kernel resumes it. The caller must already have
// arranged for a future schedule(p) (timer, signal, ...).
func (p *Proc) park(site string) {
	p.beginPark(site)
	p.block()
	p.endPark()
}

// beginPark records that p waits at site and opens its park:<site> span;
// endPark closes it when p runs again. Every wait — a goroutine's, a
// handler's, an inline body's — goes through this pair, so the spans and the
// deadlock report's park sites do not depend on which form waited.
func (p *Proc) beginPark(site string) {
	p.parkAt = site
	if p.k.trace.Enabled() {
		p.k.trace.Begin(p.k.TraceTime(), "kernel", "park:"+site, p.tracePid, p.id)
	}
}

func (p *Proc) endPark() {
	if p.k.trace.Enabled() {
		p.k.trace.End(p.k.TraceTime(), "kernel", "park:"+p.parkAt, p.tracePid, p.id)
	}
	p.parkAt = ""
}

// block hands control from p's goroutine back to the kernel until the kernel
// resumes it.
func (p *Proc) block() {
	if p.inBody {
		panic(fmt.Sprintf("sim: proc %q blocked inside its inline body", p.name))
	}
	p.k.parked <- p
	<-p.resume
}

// Suspend parks p's goroutine until body is done. The caller must already
// have armed p's next wake (ArmWaitAny, ArmUse). From then on each wake of p
// runs body on the kernel's own stack, in the run-queue slot where the
// goroutine would have been resumed, with no goroutine switch: body collects
// what woke it (CollectWaitAny, CollectUse), does its work, and either arms
// the next wake and returns false or returns true. The goroutine resumes in
// the step where body returned true, and Suspend returns. body must not
// block (Sleep, Wait, Use, Yield); a panic in body is re-raised here, so it
// surfaces as this proc's panic.
func (p *Proc) Suspend(body func() bool) {
	p.body = body
	p.block()
	if v := p.bodyPanic; v != nil {
		p.bodyPanic = nil
		panic(v)
	}
}

// Yield places p at the back of the run queue and lets other work run at
// the same instant.
func (p *Proc) Yield() {
	p.ready = true
	p.k.runq = append(p.k.runq, p)
	p.park("yield")
}

// Sleep parks p for d of virtual time. Non-positive d yields.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.k.After(d, p.wake)
	p.park("sleep")
}

// Signal is a level-triggered wakeup source: Set marks it pending and wakes
// every waiter; waiting on an already-pending signal returns immediately and
// consumes the pending state.
//
// A Signal belongs to the shard of the kernel that created it: Set and Wait
// must run in that shard's context (cross-shard producers Post to the home
// shard first). As a safety net, Set routes wakes for waiters homed on a
// different kernel through that kernel's mailbox.
type Signal struct {
	k       *Kernel
	site    string // park label of a Wait on this signal ("wait:<name>"), built once
	pending bool
	waiters []*Proc
}

// NewSignal creates a signal owned by k.
func (k *Kernel) NewSignal(name string) *Signal {
	return &Signal{k: k, site: "wait:" + name}
}

// Pending reports whether the signal has an unconsumed Set.
func (s *Signal) Pending() bool { return s.pending }

// Set marks the signal pending and wakes all current waiters at the current
// instant. Safe to call from proc or kernel context.
func (s *Signal) Set() {
	s.pending = true
	for _, w := range s.waiters {
		if w.k == s.k {
			s.k.schedule(w)
		} else {
			s.k.Post(w.k, 0, w.wake)
		}
	}
	s.waiters = s.waiters[:0]
}

// Wait parks p until the signal fires (or returns immediately, consuming a
// pending Set).
func (p *Proc) Wait(s *Signal) {
	if p.armWait(s) {
		p.block()
		p.collectWait(s)
	}
}

// armWait is the first half of Wait: it consumes a pending Set and reports
// false, or joins s's waiters, parks p at s's site and reports true.
func (p *Proc) armWait(s *Signal) bool {
	if s.pending {
		s.pending = false
		return false
	}
	s.waiters = append(s.waiters, p)
	p.beginPark(s.site)
	return true
}

// collectWait is the second half of Wait, run when p next runs: it consumes
// the Set that woke p.
func (p *Proc) collectWait(s *Signal) {
	p.endPark()
	s.pending = false
}

// ArmWaitAny is the first half of waiting until any of sigs fires. A pending
// signal is consumed and its index returned at once. Otherwise p joins every
// signal's waiter list and parks at "waitany", and ArmWaitAny returns -1;
// CollectWaitAny with the same sigs is the second half, run when p next
// runs. A wait with a deadline is a signal that a kernel event sets.
func (p *Proc) ArmWaitAny(sigs ...*Signal) int {
	for i, s := range sigs {
		if s.pending {
			s.pending = false
			return i
		}
	}
	for _, s := range sigs {
		s.waiters = append(s.waiters, p)
	}
	p.beginPark("waitany")
	return -1
}

// CollectWaitAny is the second half of ArmWaitAny: it returns the index of
// the signal that fired, consuming that signal's Set and taking p off every
// waiter list. It returns -1 if none of sigs is pending by then: another
// waiter on the same signal consumed the Set first.
func (p *Proc) CollectWaitAny(sigs ...*Signal) int {
	p.endPark()
	result := -1
	for i, s := range sigs {
		// Detect which signal fired and remove p from all waiter lists.
		if s.pending && result == -1 {
			s.pending = false
			result = i
		}
		for j, w := range s.waiters {
			if w == p {
				s.waiters = append(s.waiters[:j], s.waiters[j+1:]...)
				break
			}
		}
	}
	return result
}

// CPU models a serially-shared processing resource. Procs consume virtual
// CPU time with Use; overlapping requests queue in call order, so a busy CPU
// delays later work — this is how compute contention appears in benchmarks.
type CPU struct {
	k      *Kernel
	name   string
	id     int // trace tid (offset past proc IDs)
	freeAt Time
	busy   time.Duration // total busy time accumulated
	qwait  time.Duration // total time requests waited behind earlier work
}

// cpuTidBase keeps CPU trace tids clear of proc tids under pid 0.
const cpuTidBase = 1000

// NewCPU creates a CPU resource.
func (k *Kernel) NewCPU(name string) *CPU {
	c := &CPU{k: k, name: name, id: cpuTidBase + len(k.cpus)}
	k.cpus = append(k.cpus, c)
	k.trace.NameThread(0, c.id, "cpu:"+name)
	return c
}

// Name returns the CPU's name.
func (c *CPU) Name() string { return c.name }

// Kernel returns the shard kernel this CPU is homed on; Reserve/Use must
// run in that kernel's context.
func (c *CPU) Kernel() *Kernel { return c.k }

// BusyTime returns the total virtual time this CPU has spent executing work.
func (c *CPU) BusyTime() time.Duration { return c.busy }

// QueueWait returns the total virtual time reservations spent waiting for
// the CPU to free (runqueue delay: work arriving while earlier work still
// occupies the CPU starts late; the gap accumulates here).
func (c *CPU) QueueWait() time.Duration { return c.qwait }

// reserve books d of CPU time and returns the completion instant without
// blocking. Exposed for asynchronous cost accounting (e.g. device models).
func (c *CPU) reserve(d time.Duration) Time {
	start := c.k.now
	if c.freeAt > start {
		start = c.freeAt
		c.qwait += start.Sub(c.k.now)
	}
	end := start.Add(d)
	c.freeAt = end
	c.busy += d
	if c.k.trace.Enabled() && d > 0 {
		c.k.trace.Complete(obs.Time(start), obs.Time(d), "cpu", c.name, 0, c.id)
	}
	return end
}

// Reserve books d of CPU time asynchronously and returns the virtual instant
// at which that work completes. Use it for device/backend cost accounting
// where no proc should block.
func (c *CPU) Reserve(d time.Duration) Time { return c.reserve(d) }

// Use consumes d of CPU time on c, parking p until the work completes.
func (p *Proc) Use(c *CPU, d time.Duration) {
	if p.ArmUse(c, d) {
		p.block()
		p.CollectUse()
	}
}

// ArmUse is the first half of Use: it books d of CPU time on c and parks p
// ("sleep") until the completion instant, reporting false — with nothing
// booked — when d <= 0. CollectUse is the second half, run when p next runs.
func (p *Proc) ArmUse(c *CPU, d time.Duration) bool {
	if d <= 0 {
		return false
	}
	p.k.At(c.reserve(d), p.wake)
	p.beginPark("sleep")
	return true
}

// CollectUse is the second half of ArmUse: the charged work has completed.
func (p *Proc) CollectUse() { p.endPark() }
