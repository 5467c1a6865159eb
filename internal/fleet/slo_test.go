package fleet

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestIntervalDelta pins the watchdog's interval arithmetic: deltas are
// computed against the previous cut, "over" counts only buckets entirely at
// or past the target plus the overflow bucket, and an idle interval reads
// zeros.
func TestIntervalDelta(t *testing.T) {
	h := obs.NewRegistry().Histogram("h", []float64{100, 1000, 10000})
	v := &sloView{hist: h}
	intervalDelta := func() (float64, int64, int64) { return v.interval(1000) }

	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)
	h.Observe(50000)
	p99, over, n := intervalDelta()
	if n != 4 || over != 2 {
		t.Fatalf("interval 1: n=%d over=%d, want 4/2", n, over)
	}
	if p99 != 10000 {
		t.Errorf("interval 1: p99=%v, want last bound 10000", p99)
	}

	// Second interval sees only the new samples, none over target.
	h.Observe(500)
	h.Observe(500)
	h.Observe(500)
	p99, over, n = intervalDelta()
	if n != 3 || over != 0 {
		t.Fatalf("interval 2: n=%d over=%d, want 3/0", n, over)
	}
	if math.Abs(p99-991) > 1 {
		t.Errorf("interval 2: p99=%v, want ~991 (interpolated in 100..1000)", p99)
	}

	// Idle interval: no samples, no division by zero, no alert fodder.
	if p99, over, n = intervalDelta(); p99 != 0 || over != 0 || n != 0 {
		t.Errorf("idle interval: p99=%v over=%d n=%d, want zeros", p99, over, n)
	}
}

// TestSLOWatchdogAlertsDeterministic: with a latency target well under the
// handler cost the watchdog must fire, every scale action must carry a
// reason annotation, and the whole alert/action stream must be
// byte-identical across same-seed runs.
func TestSLOWatchdogAlertsDeterministic(t *testing.T) {
	run := func() *Fleet {
		pl := core.NewPlatform(7)
		spec := testSpec(1, 3, RoundRobin)
		spec.P99TargetUS = 1000 // 1 ms target vs 5 ms handler: must burn
		f := New(pl, spec)
		res := deployClient(pl, 8, 120, 3*time.Second, 20*time.Millisecond)
		if _, err := pl.RunFor(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := pl.Check(); err != nil {
			t.Fatal(err)
		}
		if res.SessFail > 0 {
			t.Fatalf("%d sessions failed", res.SessFail)
		}
		return f
	}

	f1 := run()
	if f1.SLO == nil {
		t.Fatal("P99TargetUS set but no watchdog")
	}
	alerts := f1.pl.K.Metrics().Counter("slo_alerts_total", obs.L("fleet", f1.spec.Name)).Value()
	if alerts == 0 {
		t.Fatalf("no SLO alerts despite 5x-over-target latency\nevents:\n%s",
			strings.Join(f1.Events, "\n"))
	}
	sawAlert := false
	for _, e := range f1.Events {
		if strings.Contains(e, "slo-alert") {
			sawAlert = true
		}
		if (strings.Contains(e, "summon") || strings.Contains(e, "drain")) &&
			!strings.Contains(e, "(") {
			t.Errorf("scale action without reason annotation: %q", e)
		}
	}
	if !sawAlert {
		t.Fatalf("slo_alerts_total=%d but no slo-alert event line:\n%s",
			alerts, strings.Join(f1.Events, "\n"))
	}

	f2 := run()
	if strings.Join(f1.Events, "\n") != strings.Join(f2.Events, "\n") {
		t.Fatalf("same-seed SLO event traces differ:\n--- run1\n%s\n--- run2\n%s",
			strings.Join(f1.Events, "\n"), strings.Join(f2.Events, "\n"))
	}
}
