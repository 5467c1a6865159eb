package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestQuantileEdgeCases pins the hardened quantile behaviour on degenerate
// histograms: empties, single buckets, clamped q, malformed diffs.
func TestQuantileEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		bounds []float64
		counts []int64 // len(bounds)+1 with overflow last (shorter = malformed)
		total  int64
		q      float64
		want   float64
	}{
		{"empty total", []float64{10, 20}, []int64{0, 0, 0}, 0, 0.99, 0},
		{"negative total", []float64{10, 20}, []int64{0, 0, 0}, -5, 0.5, 0},
		{"no bounds", nil, []int64{7}, 7, 0.5, 0},
		{"single bucket all in", []float64{10}, []int64{4, 0}, 4, 0.5, 5},
		{"single bucket overflow only", []float64{10}, []int64{0, 3}, 3, 0.99, 10},
		{"q below zero clamps", []float64{10}, []int64{4, 0}, 4, -1, 0},
		{"q above one clamps", []float64{10, 20}, []int64{4, 0, 0}, 4, 2, 10},
		{"negative interval count skipped", []float64{10, 20}, []int64{-3, 4, 0}, 4, 0.5, 15},
		{"overflow reports last bound", []float64{10, 20}, []int64{0, 0, 9}, 9, 0.99, 20},
		{"more counts than buckets", []float64{10}, []int64{1, 1, 50, 50}, 2, 0.99, 10},
	}
	for _, c := range cases {
		if got := QuantileFromBuckets(c.bounds, c.counts, c.total, c.q); got != c.want {
			t.Errorf("%s: QuantileFromBuckets = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSnapshotLabelOrderStability checks that snapshot row identity and
// ordering do not depend on the order labels were supplied, and that
// Filter/Diff preserve the sorted order.
func TestSnapshotLabelOrderStability(t *testing.T) {
	build := func(flip bool) Snapshot {
		r := NewRegistry()
		if flip {
			r.Counter("pkts", L("dir", "tx"), L("dev", "vif1")).Add(5)
			r.Gauge("util", L("node", "b"), L("cpu", "0")).Set(0.5)
		} else {
			r.Counter("pkts", L("dev", "vif1"), L("dir", "tx")).Add(5)
			r.Gauge("util", L("cpu", "0"), L("node", "b")).Set(0.5)
		}
		r.Histogram("lat", []float64{1, 10}, L("fleet", "web")).Observe(3)
		return r.Snapshot()
	}
	a, b := build(false), build(true)
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i].ID != b.Rows[i].ID {
			t.Errorf("row %d id differs under label reordering: %q vs %q",
				i, a.Rows[i].ID, b.Rows[i].ID)
		}
	}
	for i := 1; i < len(a.Rows); i++ {
		if a.Rows[i-1].ID >= a.Rows[i].ID {
			t.Errorf("rows not strictly sorted: %q then %q", a.Rows[i-1].ID, a.Rows[i].ID)
		}
	}
	// Diff of reordered-label registries is empty (identical snapshots) and
	// a real diff keeps sorted order.
	if d := a.Diff(b); len(d.Rows) != 0 {
		t.Errorf("diff of identical snapshots has %d rows: %v", len(d.Rows), d.Rows)
	}
	f := a.Filter("pkts", "util")
	if len(f.Rows) != 2 || f.Rows[0].ID >= f.Rows[1].ID {
		t.Errorf("filter broke ordering: %+v", f.Rows)
	}
}

// TestFlowEventJSON checks the Chrome trace flow-event emission: the JSON
// parses, every flow phase carries its id, every finish ('f') has a
// matching start ('s') with the same id, and 'f' events bind enclosing
// ("bp":"e") per the trace-event spec.
func TestFlowEventJSON(t *testing.T) {
	tr := NewTracer(0)
	tr.Enable()
	root := TraceID(1, 2)
	tr.FlowStart(100, "trace", "client", 1, 0, root, U64("trace_id", root))
	tr.FlowStep(200, "trace", "lb", 0, 0, root)
	tr.FlowStep(300, "trace", "server", 2, 0, root)
	tr.FlowEnd(400, "trace", "client", 1, 0, root)
	sp := NewRootSpan(root).Child(3)
	tr.SpanSlice(250, 50, "httpd", "request", 2, 0, sp, Int("queue_us", 7))

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("flow trace not valid JSON: %v\n%s", err, buf.String())
	}
	starts := map[float64]bool{}
	var finishes []map[string]any
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "s", "t", "f":
			id, ok := e["id"].(float64)
			if !ok {
				t.Fatalf("flow event missing id: %v", e)
			}
			if e["ph"] == "s" {
				starts[id] = true
			}
			if e["ph"] == "f" {
				finishes = append(finishes, e)
				if e["bp"] != "e" {
					t.Errorf("flow finish missing bp=e: %v", e)
				}
			}
		}
	}
	if len(starts) == 0 || len(finishes) == 0 {
		t.Fatalf("expected both flow starts and finishes, got %d/%d", len(starts), len(finishes))
	}
	for _, f := range finishes {
		if !starts[f["id"].(float64)] {
			t.Errorf("flow finish id %v has no matching start", f["id"])
		}
	}
	// The span slice carries parent linkage args for reconstruction.
	if !strings.Contains(buf.String(), `"parent_id"`) || !strings.Contains(buf.String(), `"span_id"`) {
		t.Errorf("span slice missing span/parent ids:\n%s", buf.String())
	}
}

// TestSpanIdentity pins the deterministic span-id derivation: ids come only
// from (trace id, layer), never from counters or clocks.
func TestSpanIdentity(t *testing.T) {
	if TraceID(1, 2) != 1<<32|2 {
		t.Errorf("TraceID(1,2) = %x", TraceID(1, 2))
	}
	a, b := NewRootSpan(TraceID(1, 2)), NewRootSpan(TraceID(1, 2))
	if a.Child(3) != b.Child(3) {
		t.Error("same (trace, layer) derived different span ids")
	}
	if a.Child(3).ID == a.Child(4).ID {
		t.Error("different layers collided")
	}
	if c := a.Child(3); c.Parent != a.ID || c.Trace != a.Trace {
		t.Errorf("child lost lineage: %+v from %+v", c, a)
	}
}

// TestPromExposition checks the Prometheus text rendering: TYPE lines once
// per family, cumulative buckets, +Inf, label escaping.
func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs", L("fleet", "web"), L("replica", "web-0")).Add(3)
	r.Counter("reqs", L("fleet", "web"), L("replica", "web-1")).Add(4)
	r.Gauge("util", L("path", `C:\x "q"`)).Set(0.25)
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	out := r.Snapshot().Prom()
	for _, want := range []string{
		"# TYPE reqs counter\n",
		`reqs{fleet="web",replica="web-0"} 3` + "\n",
		`reqs{fleet="web",replica="web-1"} 4` + "\n",
		"# TYPE lat histogram\n",
		`lat_bucket{le="1"} 1` + "\n",
		`lat_bucket{le="10"} 2` + "\n",
		`lat_bucket{le="+Inf"} 3` + "\n",
		"lat_sum 55.5\n",
		"lat_count 3\n",
		`util{path="C:\\x \"q\""} 0.25` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE reqs counter") != 1 {
		t.Errorf("TYPE line repeated:\n%s", out)
	}
}
