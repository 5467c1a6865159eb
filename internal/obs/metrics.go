package obs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Label is one dimension on a metric (domain, device, experiment...).
type Label struct {
	Key string
	Val string
}

// L builds a Label.
func L(k, v string) Label { return Label{Key: k, Val: v} }

// Counter is a monotonically increasing int64. Methods are nil-safe so
// instrumented code can run without a registry.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time float64 (nil-safe, see Counter).
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add shifts the value by d.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed upper-bound buckets (the last
// bucket is implicitly +Inf). Bounds are fixed at creation, which keeps
// snapshots diffable and deterministic.
type Histogram struct {
	bounds []float64
	counts []int64
	count  int64
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.count++
	h.sum += v
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// QuantileFromBuckets estimates the q-quantile (0..1) of a histogram by
// linear interpolation within the bucket that crosses the target rank;
// samples beyond the last bound report the last bound (the histogram cannot
// resolve them further). It takes raw bucket data — bounds plus one overflow
// count, as produced by snapshot diffs — so callers can compute quantiles
// over an interval (end minus start) rather than all time.
//
// Degenerate inputs are answered, not trusted: a non-positive total or an
// unbounded histogram (no finite buckets) reports 0, negative interval
// counts (a malformed diff) are skipped, and q is clamped to [0,1].
func QuantileFromBuckets(bounds []float64, counts []int64, total int64, q float64) float64 {
	if total <= 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c <= 0 {
			continue
		}
		if i > len(bounds) {
			break // malformed: more counts than bounds+overflow
		}
		lo := float64(0)
		if i > 0 {
			lo = bounds[i-1]
		}
		if float64(cum+c) >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1] // overflow bucket
			}
			hi := bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

// Buckets returns the histogram's bounds and per-bucket counts (the last
// count is the +Inf overflow). The returned slices are copies.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	return append([]float64(nil), h.bounds...), append([]int64(nil), h.counts...)
}

// Registry memoizes metrics by name + sorted labels. A nil Registry hands
// out nil metrics, which no-op. Hot paths resolve a series once and cache
// the pointer.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	bounds   map[string][]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		bounds:   map[string][]float64{},
	}
}

func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Val)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the counter for name+labels.
// Resolve once and cache the pointer on hot paths.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	c := r.counters[id]
	if c == nil {
		c = &Counter{}
		r.counters[id] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	g := r.gauges[id]
	if g == nil {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram for name+labels.
// bounds are ascending upper bounds; they must match on every call for the
// same series (first call wins).
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	h := r.hists[id]
	if h == nil {
		bs := append([]float64(nil), bounds...)
		h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
		r.hists[id] = h
		r.bounds[id] = bs
	}
	return h
}

// Row is one metric in a snapshot.
type Row struct {
	ID      string
	Kind    string // "counter", "gauge", "histogram"
	N       int64  // counter value / histogram count
	F       float64
	Sum     float64 // histogram only
	Buckets []int64
	Bounds  []float64
}

// Value renders the row's value deterministically.
func (row Row) Value() string {
	switch row.Kind {
	case "counter":
		return strconv.FormatInt(row.N, 10)
	case "gauge":
		return strconv.FormatFloat(row.F, 'f', 3, 64)
	default:
		mean := 0.0
		if row.N > 0 {
			mean = row.Sum / float64(row.N)
		}
		return fmt.Sprintf("count=%d mean=%s", row.N, strconv.FormatFloat(mean, 'f', 3, 64))
	}
}

// Snapshot is a sorted, self-contained copy of a registry's state.
type Snapshot struct {
	Rows []Row
}

// Snapshot captures every metric, sorted by ID.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for id, c := range r.counters {
		s.Rows = append(s.Rows, Row{ID: id, Kind: "counter", N: c.Value()})
	}
	for id, g := range r.gauges {
		s.Rows = append(s.Rows, Row{ID: id, Kind: "gauge", F: g.Value()})
	}
	for id, h := range r.hists {
		s.Rows = append(s.Rows, Row{
			ID: id, Kind: "histogram", N: h.count, Sum: h.sum,
			Buckets: append([]int64(nil), h.counts...),
			Bounds:  r.bounds[id],
		})
	}
	sort.Slice(s.Rows, func(i, j int) bool { return s.Rows[i].ID < s.Rows[j].ID })
	return s
}

// Diff returns the activity since prev: counters and histograms subtract
// the matching prev row and drop if nothing changed; gauges keep their
// current value but drop if present and unchanged in prev. The result is
// the per-run appendix for experiments sharing one registry.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	old := make(map[string]Row, len(prev.Rows))
	for _, row := range prev.Rows {
		old[row.ID] = row
	}
	var out Snapshot
	for _, row := range s.Rows {
		p, had := old[row.ID]
		switch row.Kind {
		case "counter":
			row.N -= p.N
			if row.N == 0 {
				continue
			}
		case "gauge":
			if had && p.F == row.F {
				continue
			}
		case "histogram":
			row.N -= p.N
			row.Sum -= p.Sum
			if row.N == 0 {
				continue
			}
			bs := append([]int64(nil), row.Buckets...)
			for i := range p.Buckets {
				if i < len(bs) {
					bs[i] -= p.Buckets[i]
				}
			}
			row.Buckets = bs
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Sum adds up the rows of counter name whose label sets hold every one of
// labels: Sum("tcp_retransmits_total") totals every stack's row.
func (s Snapshot) Sum(name string, labels ...Label) (n int64) {
	for _, row := range s.Rows {
		id, set, _ := strings.Cut(strings.TrimSuffix(row.ID, "}"), "{")
		pairs := strings.Split(set, ",")
		if row.Kind == "counter" && id == name && !slices.ContainsFunc(labels, func(l Label) bool { return !slices.Contains(pairs, l.Key+"="+l.Val) }) {
			n += row.N
		}
	}
	return n
}

// Filter keeps rows whose ID starts with any prefix.
func (s Snapshot) Filter(prefixes ...string) Snapshot {
	var out Snapshot
	for _, row := range s.Rows {
		for _, p := range prefixes {
			if strings.HasPrefix(row.ID, p) {
				out.Rows = append(out.Rows, row)
				break
			}
		}
	}
	return out
}

// Lines renders each row as "id = value".
func (s Snapshot) Lines() []string {
	if len(s.Rows) == 0 {
		return nil
	}
	wid := 0
	for _, row := range s.Rows {
		if len(row.ID) > wid {
			wid = len(row.ID)
		}
	}
	out := make([]string, 0, len(s.Rows))
	for _, row := range s.Rows {
		out = append(out, fmt.Sprintf("%-*s  %s", wid, row.ID, row.Value()))
	}
	return out
}

// Format renders the snapshot as an aligned text table.
func (s Snapshot) Format() string {
	var b strings.Builder
	for _, line := range s.Lines() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
