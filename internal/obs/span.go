package obs

import "strconv"

// Causal request spans. A traced request is identified by a Trace id that
// travels with the request as metadata (frame descriptors, connection
// state — never wire bytes, so traced and untraced runs stay byte-identical
// in virtual time). Each layer that handles the request derives a child
// Span and emits slices/flow events tagged with the ids, so one request
// renders as a connected arc across domains in the exported Chrome trace.
//
// Ids are derived from deterministic inputs (client index, session index,
// layer constants) — never from global counters or wall clocks — so the
// same seed yields the same span tree, sharded or not.

// Span is one causal segment of a traced request.
type Span struct {
	Trace  uint64 // request identity; doubles as the flow-event id
	ID     uint64 // this segment's identity
	Parent uint64 // parent segment's identity (0 for the root)
}

// TraceID derives a deterministic trace id from two small indices (e.g.
// client and session number). The result is nonzero whenever either input
// is, so "nonzero = sampled" holds.
func TraceID(hi, lo uint32) uint64 {
	return uint64(hi)<<32 | uint64(lo)
}

// NewRootSpan starts a span tree for trace id tr: the root span's ID is the
// trace id itself.
func NewRootSpan(tr uint64) Span {
	return Span{Trace: tr, ID: tr}
}

// Child derives a child span. The layer id must be a small per-layer
// constant (distinct at each hop) so sibling spans get distinct ids without
// any shared counter.
func (s Span) Child(layer uint64) Span {
	return Span{Trace: s.Trace, ID: s.ID ^ (layer * 0x9E3779B97F4A7C15), Parent: s.ID}
}

// Args prefixes extra with the span's identity annotations, for attaching
// to slices and instants that belong to the span.
func (s Span) Args(extra ...Arg) []Arg {
	args := make([]Arg, 0, 3+len(extra))
	args = append(args,
		Arg{Key: "trace_id", Val: u64str(s.Trace)},
		Arg{Key: "span_id", Val: u64str(s.ID)})
	if s.Parent != 0 {
		args = append(args, Arg{Key: "parent_id", Val: u64str(s.Parent)})
	}
	return append(args, extra...)
}

func u64str(v uint64) string { return strconv.FormatUint(v, 10) }

// U64 builds an unsigned-integer Arg (trace and span ids exceed int64
// range in general, so Int is not safe for them).
func U64(k string, v uint64) Arg { return Arg{Key: k, Val: u64str(v)} }

// SpanSlice records a complete slice (phase 'X') annotated with the span's
// identity, for the service/queueing segments of a traced request.
func (t *Tracer) SpanSlice(ts, dur Time, cat, name string, pid, tid int, sp Span, extra ...Arg) {
	t.Complete(ts, dur, cat, name, pid, tid, sp.Args(extra...)...)
}
