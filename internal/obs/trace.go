// Package obs is the deterministic observability layer: a bounded
// virtual-time event tracer exporting Chrome trace-event JSON, and a
// metrics registry of typed counters/gauges/histograms with deterministic
// snapshots. It imports nothing from the rest of the tree so every layer
// (sim kernel, hypervisor, drivers, protocol stacks) can link against it —
// the "observability as a library module" shape the functor-style
// unikernel argues for.
//
// Everything here is deterministic: timestamps are virtual nanoseconds
// supplied by the caller, iteration orders are sorted, and floats are
// formatted with fixed precision, so two same-seed runs emit byte-identical
// trace files and snapshots.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Time is virtual nanoseconds since the owning kernel booted (mirrors
// sim.Time without importing it).
type Time int64

// Arg is one ordered key/value annotation on an event. Args are a slice,
// not a map, so emission order is deterministic.
type Arg struct {
	Key string
	Val string
}

// Str builds a string-valued Arg.
func Str(k, v string) Arg { return Arg{Key: k, Val: v} }

// Int builds an integer-valued Arg.
func Int(k string, v int64) Arg { return Arg{Key: k, Val: strconv.FormatInt(v, 10)} }

// Event is one trace record. Ph follows the Chrome trace-event phases:
// 'B'/'E' span begin/end, 'X' complete (TS..TS+Dur), 'i' instant, and
// 's'/'t'/'f' flow start/step/end (connected arcs across pids, keyed by
// Flow).
type Event struct {
	TS   Time
	Dur  Time
	Ph   byte
	Cat  string
	Name string
	Pid  int    // domain ID (0 = host/hypervisor)
	Tid  int    // proc or CPU ID within the pid
	Flow uint64 // flow/trace identity for 's'/'t'/'f' events
	Args []Arg
}

// DefaultCap is the tracer's default event capacity.
const DefaultCap = 1 << 18

// Tracer is a bounded in-memory buffer of virtual-time events. A nil or
// disabled Tracer is safe to use and records nothing; hot paths should
// guard emission with Enabled() to skip argument construction.
//
// For sharded simulation a root tracer hands out per-shard views via
// Shard(): each view appends to its own buffer, name metadata is funneled
// to the root, and WriteJSON merges the buffers by virtual timestamp with
// shard index as the tiebreaker — so the exported trace is a pure function
// of the virtual schedule, independent of the order shard windows ran in.
type Tracer struct {
	enabled bool
	cap     int
	events  []Event
	dropped int
	maxTS   Time
	base    Time
	pids    map[int]string
	tids    map[int]map[int]string

	parent *Tracer   // non-nil on shard views
	shards []*Tracer // root only: views handed out by Shard()
}

// NewTracer returns a disabled tracer holding at most cap events
// (DefaultCap if cap <= 0).
func NewTracer(cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Tracer{cap: cap, pids: map[int]string{}, tids: map[int]map[int]string{}}
}

// Enable turns event recording on.
func (t *Tracer) Enable() { t.enabled = true }

// Enabled reports whether Add calls will record. Safe on nil.
func (t *Tracer) Enabled() bool {
	if t == nil {
		return false
	}
	if t.parent != nil {
		return t.parent.enabled
	}
	return t.enabled
}

// root returns the tracer owning shared state (names, base, enablement).
func (t *Tracer) root() *Tracer {
	if t.parent != nil {
		return t.parent
	}
	return t
}

// Shard returns a per-shard view of a root tracer: events recorded through
// it land in the view's own buffer and are merged deterministically by
// WriteJSON on the root. Views share the root's enablement, timestamp base
// and name metadata. Idempotent per index.
func (t *Tracer) Shard(i int) *Tracer {
	if t == nil {
		return nil
	}
	r := t.root()
	for len(r.shards) <= i {
		r.shards = append(r.shards, nil)
	}
	if r.shards[i] == nil {
		r.shards[i] = &Tracer{cap: r.cap, parent: r}
	}
	return r.shards[i]
}

// Rebase shifts the timestamp origin for subsequently added events past
// everything recorded so far (plus a 10µs gap). Kernels attach to a shared
// tracer with Rebase so sequential simulations lay out sequentially on one
// Perfetto timeline instead of overlapping at t=0.
func (t *Tracer) Rebase() {
	if t == nil {
		return
	}
	r := t.root()
	max, has := r.maxTS, len(r.events) > 0
	for _, s := range r.shards {
		if s == nil {
			continue
		}
		if s.maxTS > max {
			max = s.maxTS
		}
		has = has || len(s.events) > 0
	}
	r.base = max
	if has {
		r.base += 10_000
	}
}

// NameProcess records a metadata name for a pid (domain).
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.root().pids[pid] = name
}

// NameThread records a metadata name for a tid within a pid.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	r := t.root()
	m := r.tids[pid]
	if m == nil {
		m = map[int]string{}
		r.tids[pid] = m
	}
	m[tid] = name
}

func (t *Tracer) add(e Event) {
	if !t.Enabled() {
		return
	}
	e.TS += t.root().base
	if end := e.TS + e.Dur; end > t.maxTS {
		t.maxTS = end
	}
	if len(t.events) >= t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Instant records a point event.
func (t *Tracer) Instant(ts Time, cat, name string, pid, tid int, args ...Arg) {
	t.add(Event{TS: ts, Ph: 'i', Cat: cat, Name: name, Pid: pid, Tid: tid, Args: args})
}

// Begin opens a span; close it with End on the same pid/tid.
func (t *Tracer) Begin(ts Time, cat, name string, pid, tid int, args ...Arg) {
	t.add(Event{TS: ts, Ph: 'B', Cat: cat, Name: name, Pid: pid, Tid: tid, Args: args})
}

// End closes the innermost open span on pid/tid.
func (t *Tracer) End(ts Time, cat, name string, pid, tid int) {
	t.add(Event{TS: ts, Ph: 'E', Cat: cat, Name: name, Pid: pid, Tid: tid})
}

// Complete records a span with a known duration in one event.
func (t *Tracer) Complete(ts Time, dur Time, cat, name string, pid, tid int, args ...Arg) {
	t.add(Event{TS: ts, Dur: dur, Ph: 'X', Cat: cat, Name: name, Pid: pid, Tid: tid, Args: args})
}

// FlowStart opens a flow arc (Chrome phase 's'): the origin of a causal
// chain that FlowStep/FlowEnd events with the same flow id connect across
// pids. Perfetto renders the chain as arrows between the enclosing slices.
func (t *Tracer) FlowStart(ts Time, cat, name string, pid, tid int, flow uint64, args ...Arg) {
	t.add(Event{TS: ts, Ph: 's', Cat: cat, Name: name, Pid: pid, Tid: tid, Flow: flow, Args: args})
}

// FlowStep records an intermediate point on a flow arc (phase 't').
func (t *Tracer) FlowStep(ts Time, cat, name string, pid, tid int, flow uint64, args ...Arg) {
	t.add(Event{TS: ts, Ph: 't', Cat: cat, Name: name, Pid: pid, Tid: tid, Flow: flow, Args: args})
}

// FlowEnd terminates a flow arc (phase 'f', binding point "enclosing").
func (t *Tracer) FlowEnd(ts Time, cat, name string, pid, tid int, flow uint64, args ...Arg) {
	t.add(Event{TS: ts, Ph: 'f', Cat: cat, Name: name, Pid: pid, Tid: tid, Flow: flow, Args: args})
}

// Len returns the number of recorded events (on a root: across all shards).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := len(t.events)
	for _, s := range t.shards {
		if s != nil {
			n += len(s.events)
		}
	}
	return n
}

// Dropped returns how many events were discarded once the buffer filled.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	n := t.dropped
	for _, s := range t.shards {
		if s != nil {
			n += s.dropped
		}
	}
	return n
}

// jstr renders s as a JSON string (encoding/json escaping is deterministic).
func jstr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// usec renders virtual ns as the microsecond timestamps Chrome tracing
// expects, with fixed millinanosecond precision.
func usec(ns Time) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// WriteJSON emits the buffer in Chrome trace-event JSON ("traceEvents"
// array form): process/thread name metadata first (sorted), then events in
// recording order. Load the file in Perfetto or chrome://tracing.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}

	pids := make([]int, 0, len(t.pids))
	for pid := range t.pids {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			pid, jstr(t.pids[pid])))
	}
	tpids := make([]int, 0, len(t.tids))
	for pid := range t.tids {
		tpids = append(tpids, pid)
	}
	sort.Ints(tpids)
	for _, pid := range tpids {
		tids := make([]int, 0, len(t.tids[pid]))
		for tid := range t.tids[pid] {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				pid, tid, jstr(t.tids[pid][tid])))
		}
	}

	// A plain tracer emits in recording order (legacy layout). A root with
	// shard views stable-merges every buffer by virtual timestamp; ties keep
	// buffer order with the root (shard 0) first, so the byte stream is a
	// pure function of the virtual schedule.
	events := t.events
	if len(t.shards) > 0 {
		merged := make([]Event, 0, t.Len())
		merged = append(merged, t.events...)
		for _, s := range t.shards {
			if s != nil {
				merged = append(merged, s.events...)
			}
		}
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].TS < merged[j].TS })
		events = merged
	}
	for i := range events {
		e := &events[i]
		var line []byte
		line = append(line, `{"name":`...)
		line = append(line, jstr(e.Name)...)
		line = append(line, `,"cat":`...)
		line = append(line, jstr(e.Cat)...)
		line = append(line, `,"ph":"`...)
		line = append(line, e.Ph)
		line = append(line, `","ts":`...)
		line = append(line, usec(e.TS)...)
		if e.Ph == 'X' {
			line = append(line, `,"dur":`...)
			line = append(line, usec(e.Dur)...)
		}
		if e.Ph == 'i' {
			line = append(line, `,"s":"t"`...)
		}
		switch e.Ph {
		case 's', 't', 'f':
			line = append(line, `,"id":`...)
			line = strconv.AppendUint(line, e.Flow, 10)
			if e.Ph == 'f' {
				line = append(line, `,"bp":"e"`...)
			}
		}
		line = append(line, `,"pid":`...)
		line = strconv.AppendInt(line, int64(e.Pid), 10)
		line = append(line, `,"tid":`...)
		line = strconv.AppendInt(line, int64(e.Tid), 10)
		if len(e.Args) > 0 {
			line = append(line, `,"args":{`...)
			for j, a := range e.Args {
				if j > 0 {
					line = append(line, ',')
				}
				line = append(line, jstr(a.Key)...)
				line = append(line, ':')
				line = append(line, jstr(a.Val)...)
			}
			line = append(line, '}')
		}
		line = append(line, '}')
		emit(string(line))
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return bw.Flush()
}
