// Conservative sharded simulation: a Cluster is a set of shard kernels,
// one per simulated pCPU plus one for the host/dom0 side, advanced in
// lockstep epochs on one thread. Within an epoch every shard drains its
// own event queue independently; all cross-shard interaction travels as
// timestamped sends into the destination shard's mailbox with a delay of at
// least the cluster lookahead W — the minimum cross-pCPU event latency
// (bridge propagation, vchan/event-channel hops).
//
// The epoch barrier is null-message-free (Fujimoto-style conservative
// synchronization): each epoch drains every mailbox, finds T, the earliest
// pending work on any shard, and runs every shard that has work before
//
//	E = T + W
//
// up to (not including) E. A send posted inside the window leaves a shard
// whose clock is at least T and lands at least W later, so at or after E:
// no shard ever receives work inside a window it has already run, and every
// send is delivered at its natural timestamp (drainMailboxes checks this).
// Mailbox drains sort by (timestamp, source shard, source sequence) and
// then assign destination-local sequence numbers, so the per-shard
// execution order — and every trace, metric and experiment output — is a
// pure function of the virtual schedule.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/obs"
)

// xevent is one cross-shard send parked in a destination mailbox until the
// next epoch barrier.
type xevent struct {
	at  Time
	src int
	seq uint64
	fn  func()
}

// mailbox collects cross-shard sends. Two slices ping-pong between the
// append side and the barrier drain, so steady-state operation allocates
// nothing.
type mailbox struct {
	q        []xevent // senders append
	proc     []xevent // last barrier's drain, recycled
	recycled bool     // q's backing array came from an earlier drain
}

// Cluster is a set of shard kernels advanced in conservative epochs.
type Cluster struct {
	kernels []*Kernel
	w       Time // lookahead: minimum cross-shard event latency
	limit   Time // 0 = no limit (mirrors Kernel.limit cluster-wide)
	stopped bool

	mxEpochs  *obs.Counter
	mxClamped *obs.Counter
	mxElided  *obs.Counter
	mxReuse   *obs.Counter
}

// NewClusterObs creates shards kernels sharing one virtual timeline, with
// cross-shard lookahead w (must be positive). Shard 0 is the host/dom0
// shard and keeps the raw seed so single-shard behavior matches a plain
// kernel; other shards derive their RNG seed deterministically. All shards
// share shard 0's metrics registry (m, or a private one when nil) and trace
// timeline (t; per-shard trace buffers merged at export).
func NewClusterObs(seed int64, shards int, w time.Duration, t *obs.Tracer, m *obs.Registry) *Cluster {
	if shards < 1 {
		shards = 1
	}
	if w <= 0 {
		panic("sim: cluster lookahead must be positive")
	}
	c := &Cluster{w: Time(w)}
	k0 := NewKernelObs(seed, t, m)
	k0.cluster = c
	c.kernels = append(c.kernels, k0)
	for i := 1; i < shards; i++ {
		k := &Kernel{
			rng:     rand.New(rand.NewSource(seed ^ int64(i)*0x9E3779B9)),
			live:    map[*Proc]struct{}{},
			parked:  make(chan *Proc),
			trace:   k0.trace.Shard(i),
			metrics: k0.metrics,
			cluster: c,
			shard:   i,
		}
		k.mxSpawns = k0.mxSpawns
		k.mxWakes = k0.mxWakes
		c.kernels = append(c.kernels, k)
	}
	m = k0.metrics
	c.mxEpochs = m.Counter("sim_cluster_epochs_total")
	c.mxClamped = m.Counter("sim_cluster_clamped_sends_total")
	c.mxElided = m.Counter("sim_cluster_barriers_elided_total")
	c.mxReuse = m.Counter("sim_cluster_mailbox_reuse_total")
	return c
}

// Shards returns the number of shard kernels.
func (c *Cluster) Shards() int { return len(c.kernels) }

// Kernel returns shard i's kernel.
func (c *Cluster) Kernel(i int) *Kernel { return c.kernels[i] }

// Cluster returns the cluster this kernel shards, or nil for a plain kernel.
func (k *Kernel) Cluster() *Cluster { return k.cluster }

// Post schedules fn on dst's shard at least d after the current instant.
// On the same kernel this is a plain After. Cross-shard, the delay is
// clamped up to the cluster lookahead W (counted in
// sim_cluster_clamped_sends_total) and the send parks in dst's mailbox
// until the next epoch barrier. Call from k's own context.
func (k *Kernel) Post(dst *Kernel, d time.Duration, fn func()) {
	if dst == k {
		k.After(d, fn)
		return
	}
	c := k.cluster
	if c == nil || dst.cluster != c {
		panic("sim: Post across unrelated kernels")
	}
	at := k.now.Add(d)
	if lo := k.now + c.w; at < lo {
		at = lo
		c.mxClamped.Inc()
	}
	k.xseq++
	dst.mbox.q = append(dst.mbox.q, xevent{at: at, src: k.shard, seq: k.xseq, fn: fn})
}

// PostAt is Post with an absolute target time (same clamping rules).
func (k *Kernel) PostAt(dst *Kernel, t Time, fn func()) {
	k.Post(dst, t.Sub(k.now), fn)
}

// SpawnTo spawns fn as a proc named name on dst, attributing its trace
// events to pid (0 = host). Same-kernel spawns are immediate; cross-shard
// spawns ride the mailbox and start one lookahead later.
func (k *Kernel) SpawnTo(dst *Kernel, name string, pid int, fn func(p *Proc)) {
	if dst == k {
		p := k.Spawn(name, fn)
		if pid != 0 {
			p.SetTracePid(pid)
		}
		return
	}
	k.Post(dst, 0, func() {
		p := dst.Spawn(name, fn)
		if pid != 0 {
			p.SetTracePid(pid)
		}
	})
}

// nextWork returns the shard's earliest pending work: a runnable proc runs
// at the current instant, otherwise the earliest scheduled event.
func (k *Kernel) nextWork() (Time, bool) {
	if k.runqHd != len(k.runq) {
		return k.now, true
	}
	if e := k.peek(); e != nil {
		return e.at, true
	}
	return 0, false
}

// runWindow drains runnable procs and events strictly before winEnd.
func (k *Kernel) runWindow(winEnd Time) {
	k.winEnd = winEnd
	for !k.stopped && k.step() {
	}
	k.winEnd = 0
}

// drainMailboxes moves every parked cross-shard send into its destination
// heap. Sends sort by (timestamp, source shard, source sequence) before
// destination-local sequence numbers are assigned, so the resulting order
// is independent of the order the shards' windows ran in. A send behind its
// destination's clock would break the epoch invariant (every send lands at
// or after the window its sender ran in), so it panics.
func (c *Cluster) drainMailboxes() {
	for _, k := range c.kernels {
		m := &k.mbox
		q := m.q
		if len(q) > 0 && m.recycled {
			c.mxReuse.Inc()
		}
		m.q = m.proc[:0]
		m.recycled = cap(m.proc) > 0
		m.proc = q
	}
	for _, k := range c.kernels {
		q := k.mbox.proc
		slices.SortFunc(q, func(a, b xevent) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
		})
		for i := range q {
			if q[i].at < k.now {
				panic(fmt.Sprintf("sim: late cross-shard delivery to shard %d: send from shard %d at %v, shard clock %v",
					k.shard, q[i].src, q[i].at, k.now))
			}
			k.At(q[i].at, q[i].fn)
			q[i].fn = nil // drop the closure reference until the slot recycles
		}
	}
}

// mailboxesPending reports whether any cross-shard send is still parked.
func (c *Cluster) mailboxesPending() bool {
	for _, k := range c.kernels {
		if len(k.mbox.q) > 0 {
			return true
		}
	}
	return false
}

// runEpochs is the barrier loop: drain the mailboxes, find the earliest
// pending work T, and run every shard with work before E = T + W up to E in
// shard order. Shard 0 runs first, so an event there sees every other shard
// as of the epoch's start. A panic in a window propagates at once, as on a
// plain kernel.
func (c *Cluster) runEpochs() {
	n := len(c.kernels)
	next := make([]Time, n)
	has := make([]bool, n)
	for !c.stopped {
		c.drainMailboxes()
		T := Time(math.MaxInt64)
		any := false
		for i, k := range c.kernels {
			next[i], has[i] = k.nextWork()
			if has[i] && next[i] < T {
				T = next[i]
				any = true
			}
		}
		if !any || (c.limit != 0 && T > c.limit) {
			break
		}
		end := T + c.w
		for i, k := range c.kernels {
			if !has[i] {
				continue
			}
			if next[i] >= end {
				// Quiet-shard elision: every event (heap and timing wheel
				// both feed nextWork) lies at or past the window's end, so
				// the window would run nothing — skip it.
				c.mxElided.Inc()
				continue
			}
			k.runWindow(end)
		}
		c.mxEpochs.Inc()
	}
}

// Run executes the cluster until no shard has pending work (or Stop /
// StopAt applies), mirroring Kernel.Run's deadlock semantics cluster-wide.
func (c *Cluster) Run() (Time, error) {
	c.runEpochs()
	hasWork := c.mailboxesPending()
	for _, k := range c.kernels {
		if k.peek() != nil {
			hasWork = true
		}
	}
	now := c.Now()
	if !c.stopped && (c.limit == 0 || !hasWork) {
		return now, deadlock(now, c.kernels)
	}
	return now, nil
}

// RunFor advances the cluster by d of virtual time; every shard clock lands
// exactly on the limit so successive calls stay aligned.
func (c *Cluster) RunFor(d time.Duration) (Time, error) {
	prev := c.limit
	limit := c.Now().Add(d)
	c.limit = limit
	for _, k := range c.kernels {
		k.limit = limit
	}
	_, err := c.Run()
	for _, k := range c.kernels {
		if k.now < limit {
			k.now = limit
		}
		k.limit = prev
		k.stopped = false
	}
	c.limit = prev
	c.stopped = false
	return c.Now(), err
}

// Now returns the cluster's virtual-time front: the furthest shard clock.
func (c *Cluster) Now() Time {
	var t Time
	for _, k := range c.kernels {
		if k.now > t {
			t = k.now
		}
	}
	return t
}
