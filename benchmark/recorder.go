package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
)

// A recorder is what one load-generating guest observes. It is owned by that
// guest: on the parallel workload each client guest runs on its own shard
// thread and writes only its own recorder, and the harness merges them after
// Run — so the benchmark adds no cross-shard write to the program.
//
// All times are virtual nanoseconds since the platform started.
type recorder struct {
	traced bool

	id  []int32 // op id of each completed op, in completion order
	lat []int64 // its latency: done − due
	bad int     // completed ops whose output was wrong

	firstDue int64 // earliest due time of any op (−1 until one begins)
	lastDone int64

	late  []int64 // open loop only: how long after its due time each session was launched
	spans []span  // traced runs only
}

func newRecorder(traced bool, expectOps int) *recorder {
	return &recorder{
		traced:   traced,
		id:       make([]int32, 0, expectOps),
		lat:      make([]int64, 0, expectOps),
		firstDue: -1,
	}
}

// begin notes that an op is due at virtual time due (for a closed loop, the
// instant it is issued).
func (r *recorder) begin(due int64) {
	if r.firstDue < 0 || due < r.firstDue {
		r.firstDue = due
	}
}

// end completes op: it was due at due, finished at now, and ok says whether
// its output was correct.
func (r *recorder) end(op int, due, now int64, ok bool) {
	r.id = append(r.id, int32(op))
	r.lat = append(r.lat, now-due)
	if !ok {
		r.bad++
	}
	if now > r.lastDone {
		r.lastDone = now
	}
	if r.traced {
		r.spans = append(r.spans, span{kind: spanOp, op: int32(op), start: due, end: now})
	}
}

// Harness spans: one per op, and one child around each call the guest makes
// into a layer. Kept in memory; written when the run ends.
type spanKind uint8

const (
	spanOp spanKind = iota
	spanDeploy
	spanConnect
	spanWrite
	spanRead
	spanUDP
	spanKVSet
	spanKVGet
	spanKVCheckpoint
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "Deploy", "TCP.Connect", "Conn.Write", "Conn.Read", "SendUDP-reply",
	"KV.Set", "KV.Get", "KV.Checkpoint",
}

type span struct {
	kind       spanKind
	op         int32 // the op this call served; −1 for calls outside any op
	start, end int64
}

// child records a span around one call into a layer, on behalf of op.
func (r *recorder) child(kind spanKind, op int, start, end int64) {
	if r.traced {
		r.spans = append(r.spans, span{kind: kind, op: int32(op), start: start, end: end})
	}
}

// merged is the union of a repetition's recorders, indexed by op id.
type merged struct {
	planned  int
	lat      []int64 // −1 = never completed
	bad      int
	firstDue int64
	lastDone int64
	late     []int64
	spans    [][]span // per recorder (= per guest), for the trace file
}

func merge(planned int, recs []*recorder) *merged {
	m := &merged{planned: planned, lat: make([]int64, planned), firstDue: -1}
	for i := range m.lat {
		m.lat[i] = -1
	}
	for _, r := range recs {
		for i, id := range r.id {
			if int(id) < 0 || int(id) >= planned || m.lat[id] >= 0 {
				m.bad++ // an op completed twice, or one that was never planned
				continue
			}
			m.lat[id] = r.lat[i]
		}
		m.bad += r.bad
		if r.firstDue >= 0 && (m.firstDue < 0 || r.firstDue < m.firstDue) {
			m.firstDue = r.firstDue
		}
		if r.lastDone > m.lastDone {
			m.lastDone = r.lastDone
		}
		m.late = append(m.late, r.late...)
		m.spans = append(m.spans, r.spans)
	}
	return m
}

// failed counts ops that never completed or completed with a wrong output.
func (m *merged) failed() int {
	n := m.bad
	for _, l := range m.lat {
		if l < 0 {
			n++
		}
	}
	return n
}

// sloMisses counts ops that failed or took longer than limit.
func (m *merged) sloMisses(limit int64) int {
	n := m.bad
	for _, l := range m.lat {
		if l < 0 || l > limit {
			n++
		}
	}
	if n > m.planned {
		n = m.planned
	}
	return n
}

// digest hashes the repetition's virtual results: every op's latency in op-id
// order, the end time, and the lines of the registry delta.
func (m *merged) digest(registry []string) string {
	h := sha256.New()
	var b [8]byte
	for _, l := range m.lat {
		binary.BigEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	binary.BigEndian.PutUint64(b[:], uint64(m.lastDone))
	h.Write(b[:])
	for _, line := range registry {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// percentile returns the q-quantile of sorted (nearest rank), or 0 if empty.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// spansOf returns the sorted durations of every span of one kind.
func (m *merged) spansOf(kind spanKind) []int64 {
	var out []int64
	for _, ss := range m.spans {
		for _, s := range ss {
			if s.kind == kind {
				out = append(out, s.end-s.start)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writeSpans writes the spans as Chrome trace JSON: one complete event per
// span, one thread row per guest, the op id and parent in args. An op's self
// time — its span minus its children — is time the generator spent thinking.
func (m *merged) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for tid, ss := range m.spans {
		for _, s := range ss {
			if !first {
				w.WriteByte(',')
			}
			first = false
			parent := "op"
			if s.kind == spanOp || s.op < 0 {
				parent = ""
			}
			fmt.Fprintf(w, "\n"+`{"name":%q,"cat":"bench","ph":"X","ts":%d.%03d,"dur":%d.%03d,"pid":1,"tid":%d,"args":{"op":%d,"parent":%q}}`,
				spanNames[s.kind], s.start/1000, s.start%1000, (s.end-s.start)/1000, (s.end-s.start)%1000,
				tid+1, s.op, parent)
		}
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
