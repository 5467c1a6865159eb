package sim

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/obs"
)

// Hierarchical timing wheel.
//
// The event heap costs O(log n) per arm/disarm and keeps one live entry per
// pending timer, so a million connections (each holding an RTO or TIME_WAIT
// timer) means a million-entry heap and a million-sift boot. The wheel
// replaces that with O(1) Schedule/Cancel into fixed slot arrays: virtual
// time is quantised into ticks, each level spans 64 slots of geometrically
// coarser granularity, and timers cascade toward level 0 as their deadline
// approaches. The kernel's event heap carries at most a handful of wheel
// events (one per armed "next interesting tick"), so heap population tracks
// active timer *ticks*, not timer *count*.
//
// Determinism: timers in a firing slot run ordered by (deadline, key, seq) —
// key is a caller-chosen identity (TCP uses the connection 4-tuple) and seq
// the wheel-local schedule sequence — so same-seed runs fire in identical
// order. Each shard kernel owns a private wheel; all
// operations happen in that shard's context.
//
// Lateness: a timer fires at the first tick boundary at or after its
// deadline, and never earlier than the tick after the wheel's current one —
// i.e. within one tick (1ms of virtual time) of the requested deadline.
const (
	wheelTick   = Time(1e6) // tick granularity: 1ms of virtual time
	wheelLevels = 5
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
)

// Timer is a wheel-schedulable callback. Embed one per timer in the owning
// struct, Init it once, then Schedule/Cancel freely: neither allocates.
// The zero value is inert until Init.
type Timer struct {
	key      uint64 // caller identity; first-order intra-slot tiebreak
	fn       func()
	w        *Wheel
	deadline Time  // exact requested deadline (fire order within a slot)
	tick     int64 // quantised deadline: first boundary >= deadline
	seq      uint64
	pending  bool
	level    int8 // slot level; -1 while detached into a firing batch
	slot     uint8
	prev     *Timer
	next     *Timer
}

// Init sets the timer's identity key and callback. Call once before the
// first Schedule; the key orders same-deadline timers deterministically.
func (t *Timer) Init(key uint64, fn func()) {
	t.key, t.fn = key, fn
}

// Pending reports whether the timer is scheduled and not yet fired.
func (t *Timer) Pending() bool { return t.pending }

// Cancel unschedules the timer. It reports whether it was pending.
func (t *Timer) Cancel() bool {
	if t.w == nil {
		return false
	}
	return t.w.Cancel(t)
}

// Wheel is a per-kernel hierarchical timing wheel. Obtain one with
// Kernel.Wheel; operate on it only from the owning shard's context.
type Wheel struct {
	k         *Kernel
	cur       int64 // last processed tick; all pending timers have tick > cur
	count     int
	peak      int
	seq       uint64
	advancing bool
	armed     Time // fire time of the earliest outstanding kernel event (0 = none)
	slots     [wheelLevels][wheelSlots]*Timer
	bitmap    [wheelLevels]uint64 // per-level slot occupancy
	buf       []*Timer            // firing batch, reused across ticks
	seqs      []uint64

	mxSched   *obs.Counter
	mxFired   *obs.Counter
	mxCancel  *obs.Counter
	mxCascade *obs.Counter
}

// Wheel returns the kernel's timing wheel, creating it on first use.
func (k *Kernel) Wheel() *Wheel {
	if k.wheel == nil {
		k.wheel = &Wheel{
			k:         k,
			mxSched:   k.metrics.Counter("sim_wheel_scheduled_total"),
			mxFired:   k.metrics.Counter("sim_wheel_fired_total"),
			mxCancel:  k.metrics.Counter("sim_wheel_cancelled_total"),
			mxCascade: k.metrics.Counter("sim_wheel_cascades_total"),
		}
	}
	return k.wheel
}

// Schedule (re)schedules t to fire at the first tick boundary at or after
// deadline. Rescheduling a pending timer moves it; scheduling from inside
// its own callback re-arms it. O(1), allocation-free.
func (w *Wheel) Schedule(t *Timer, deadline Time) {
	if t.fn == nil {
		panic("sim: Wheel.Schedule on a Timer without Init")
	}
	if t.pending {
		if t.level >= 0 {
			w.unlink(t)
		}
	} else {
		t.pending = true
		w.count++
		if w.count > w.peak {
			w.peak = w.count
		}
		if w.count == 1 && !w.advancing {
			// Wheel was idle: re-sync the current tick to the clock so
			// placement deltas are relative to now, not to the last fire.
			w.cur = int64(w.k.now) / int64(wheelTick)
		}
	}
	w.seq++
	t.seq = w.seq
	t.w = w
	t.deadline = deadline
	tick := (int64(deadline) + int64(wheelTick) - 1) / int64(wheelTick)
	if tick <= w.cur {
		tick = w.cur + 1
	}
	t.tick = tick
	w.place(t)
	w.mxSched.Inc()
	if !w.advancing {
		w.rearm()
	}
}

// Cancel unschedules t; O(1). It reports whether t was pending.
func (w *Wheel) Cancel(t *Timer) bool {
	if !t.pending {
		return false
	}
	if t.level >= 0 {
		w.unlink(t)
	}
	t.pending = false
	w.count--
	w.mxCancel.Inc()
	return true
}

// place links t into the slot its tick maps to at the current wheel
// position: level by distance, slot by the tick's digit at that level.
func (w *Wheel) place(t *Timer) {
	delta := t.tick - w.cur
	var level int
	switch {
	case delta <= wheelSlots:
		level = 0
	case delta <= 1<<(2*wheelBits):
		level = 1
	case delta <= 1<<(3*wheelBits):
		level = 2
	case delta <= 1<<(4*wheelBits):
		level = 3
	default:
		level = 4 // beyond the horizon: laps cascade in place, harmlessly
	}
	s := int((t.tick >> (wheelBits * level)) & wheelMask)
	t.level, t.slot = int8(level), uint8(s)
	head := w.slots[level][s]
	t.prev, t.next = nil, head
	if head != nil {
		head.prev = t
	}
	w.slots[level][s] = t
	w.bitmap[level] |= 1 << s
}

func (w *Wheel) unlink(t *Timer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		w.slots[t.level][t.slot] = t.next
		if t.next == nil {
			w.bitmap[t.level] &^= 1 << t.slot
		}
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.prev, t.next = nil, nil
}

// nextTick returns the earliest tick > cur at which anything happens: a
// level-0 slot fires or a higher-level slot reaches its cascade boundary.
// Each level scans its 64-bit occupancy bitmap with one rotate + tzcnt.
// Caller guarantees count > 0.
func (w *Wheel) nextTick() int64 {
	best := int64(-1)
	for level := 0; level < wheelLevels; level++ {
		bm := w.bitmap[level]
		if bm == 0 {
			continue
		}
		// Block index at this level: level 0 advances every tick, level L
		// pops slot (block & mask) when the block boundary is crossed.
		block := w.cur >> (wheelBits * level)
		off := uint((block + 1) & wheelMask)
		rot := bm>>off | bm<<(wheelSlots-off)
		next := block + 1 + int64(bits.TrailingZeros64(rot))
		cand := next << (wheelBits * level)
		if best == -1 || cand < best {
			best = cand
		}
	}
	return best
}

// rearm makes sure a kernel event is pending at the next interesting tick.
// Stale events (superseded by a nearer deadline, or whose timers were
// cancelled) are not cancelled: they fire as deterministic no-ops.
func (w *Wheel) rearm() {
	if w.count == 0 {
		return
	}
	ft := Time(w.nextTick()) * wheelTick
	if w.armed == 0 || ft < w.armed {
		w.k.AtArg(ft, fireWheelTick, w, 0)
		w.armed = ft
	}
}

// fireWheelTick is the kernel event rearm queues, carrying its wheel: built
// once, so arming the next tick allocates nothing.
func fireWheelTick(w any, _ uint64) { w.(*Wheel).onTick() }

func (w *Wheel) onTick() {
	w.armed = 0
	w.advance(int64(w.k.now) / int64(wheelTick))
	w.rearm()
}

// advance processes every interesting tick up to and including target:
// cascade boundary slots downward, then fire the due level-0 slot. Spans
// with no occupied slots are jumped over in one step.
func (w *Wheel) advance(target int64) {
	w.advancing = true
	for w.count > 0 {
		nt := w.nextTick()
		if nt > target {
			break
		}
		w.cur = nt
		w.cascade(nt)
		w.fire(nt)
	}
	if w.cur < target {
		w.cur = target
	}
	w.advancing = false
}

// cascade re-places the contents of every higher-level slot whose boundary
// is crossed at tick t. Processed top-down: re-placed timers land strictly
// below (or, past the horizon, back on the top level) and are never popped
// twice in one tick.
func (w *Wheel) cascade(t int64) {
	for level := wheelLevels - 1; level >= 1; level-- {
		if t&(1<<(wheelBits*level)-1) != 0 {
			continue
		}
		s := int((t >> (wheelBits * level)) & wheelMask)
		head := w.slots[level][s]
		if head == nil {
			continue
		}
		w.slots[level][s] = nil
		w.bitmap[level] &^= 1 << s
		for head != nil {
			next := head.next
			head.prev, head.next = nil, nil
			w.place(head)
			w.mxCascade.Inc()
			head = next
		}
	}
}

// fireOrder orders a firing batch by (deadline, key, seq). seq is unique,
// so the order is total.
func fireOrder(a, b *Timer) int {
	if c := cmp.Compare(a.deadline, b.deadline); c != 0 {
		return c
	}
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// fire runs the level-0 slot due at tick t in (deadline, key, seq) order.
// The batch is detached before any callback runs, so a callback cancelling
// or rescheduling a sibling timer in the same slot takes effect (the
// sibling's captured seq no longer matches and it is skipped).
func (w *Wheel) fire(t int64) {
	s := int(t & wheelMask)
	head := w.slots[0][s]
	if head == nil {
		return
	}
	w.slots[0][s] = nil
	w.bitmap[0] &^= 1 << s
	buf, seqs := w.buf[:0], w.seqs[:0]
	for head != nil {
		next := head.next
		head.prev, head.next = nil, nil
		head.level = -1
		buf = append(buf, head)
		head = next
	}
	slices.SortFunc(buf, fireOrder)
	for _, tm := range buf {
		seqs = append(seqs, tm.seq)
	}
	for i, tm := range buf {
		buf[i] = nil
		if !tm.pending || tm.seq != seqs[i] {
			continue // cancelled or rescheduled by an earlier callback
		}
		tm.pending = false
		w.count--
		w.mxFired.Inc()
		tm.fn()
	}
	w.buf, w.seqs = buf[:0], seqs[:0]
}
