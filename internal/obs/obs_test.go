package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerChromeJSON(t *testing.T) {
	tr := NewTracer(16)
	tr.Instant(100, "kernel", "ignored-while-disabled", 0, 1)
	tr.Enable()
	tr.NameProcess(0, "host")
	tr.NameThread(0, 1, "proc-a")
	tr.Begin(1000, "kernel", "park:io", 0, 1, Str("site", "io"))
	tr.End(2500, "kernel", "park:io", 0, 1)
	tr.Complete(3000, 750, "cpu", "pcpu0", 0, 7, Int("ns", 750))
	tr.Instant(4000, "tcp", "state:Established", 2, 0)
	if tr.Len() != 4 {
		t.Fatalf("recorded %d events, want 4", tr.Len())
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata + 4 events
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d traceEvents, want 6", len(doc.TraceEvents))
	}
	if !strings.Contains(buf.String(), `"ts":1.000`) {
		t.Errorf("ns->us timestamp conversion missing: %s", buf.String())
	}
}

func TestTracerBoundedAndRebased(t *testing.T) {
	tr := NewTracer(2)
	tr.Enable()
	tr.Instant(1, "a", "x", 0, 0)
	tr.Instant(2, "a", "y", 0, 0)
	tr.Instant(3, "a", "z", 0, 0)
	if tr.Len() != 2 || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", tr.Len(), tr.Dropped())
	}

	tr = NewTracer(0)
	tr.Enable()
	tr.Instant(5000, "a", "first-run", 0, 0)
	tr.Rebase()
	tr.Instant(0, "a", "second-run", 0, 0)
	ev := tr.events
	if ev[1].TS <= ev[0].TS {
		t.Errorf("rebase did not shift: %d then %d", ev[0].TS, ev[1].TS)
	}
}

func TestRegistrySnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts", L("dev", "vif1"), L("dir", "tx"))
	if r.Counter("pkts", L("dir", "tx"), L("dev", "vif1")) != c {
		t.Fatal("label order changed identity")
	}
	c.Add(5)
	r.Gauge("util", L("cpu", "dom0")).Set(0.25)
	h := r.Histogram("occ", []float64{1, 8, 16, 32})
	h.Observe(3)
	h.Observe(30)

	before := r.Snapshot()
	c.Add(7)
	h.Observe(3)
	r.Gauge("util", L("cpu", "dom0")).Set(0.5)
	r.Counter("idle").Value() // untouched counter stays zero

	d := r.Snapshot().Diff(before)
	if len(d.Rows) != 3 {
		t.Fatalf("diff rows = %d (%v), want 3", len(d.Rows), d.Rows)
	}
	if d.Rows[0].ID != "occ" || d.Rows[0].N != 1 {
		t.Errorf("hist diff row wrong: %+v", d.Rows[0])
	}
	if d.Rows[1].ID != "pkts{dev=vif1,dir=tx}" || d.Rows[1].N != 7 {
		t.Errorf("counter diff row wrong: %+v", d.Rows[1])
	}
	text := d.Format()
	if !strings.Contains(text, "pkts{dev=vif1,dir=tx}  7") {
		t.Errorf("format missing counter line:\n%s", text)
	}

	got := d.Filter("pkts")
	if len(got.Rows) != 1 {
		t.Errorf("filter kept %d rows, want 1", len(got.Rows))
	}
}

// TestSnapshotSum: Sum totals a counter's rows over every label set that
// holds the asked labels, and ignores other names, a name that only shares
// a prefix, and gauges.
func TestSnapshotSum(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkts", L("dev", "vif1"), L("dir", "tx")).Add(3)
	r.Counter("pkts", L("dev", "vif2"), L("dir", "tx")).Add(4)
	r.Counter("pkts", L("dev", "vif2"), L("dir", "rx")).Add(5)
	r.Counter("pkts_dropped", L("dir", "tx")).Add(100)
	r.Counter("idle").Add(2)
	r.Gauge("pkts", L("dir", "tx")).Set(9)
	s := r.Snapshot()
	for _, c := range []struct {
		labels []Label
		want   int64
	}{
		{nil, 12},
		{[]Label{L("dir", "tx")}, 7},
		{[]Label{L("dir", "tx"), L("dev", "vif2")}, 4},
		{[]Label{L("dir", "up")}, 0},
	} {
		if got := s.Sum("pkts", c.labels...); got != c.want {
			t.Errorf("Sum(pkts, %v) = %d, want %d", c.labels, got, c.want)
		}
	}
	if got := s.Sum("idle"); got != 2 {
		t.Errorf("Sum(idle) = %d, want 2", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Instant(1, "a", "b", 0, 0) // must not panic
	if tr.Enabled() || tr.Len() != 0 {
		t.Error("nil tracer not inert")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", nil).Observe(1)
	if r.Counter("x").Value() != 0 {
		t.Error("nil registry not inert")
	}
}
