package fleet

import (
	"repro/internal/obs"
)

// Watchdog is the fleet's SLO monitor. Every control interval it inspects
// each replica's latency histogram delta (the per-replica mirror of the
// fleet-wide request histogram) plus the fleet-wide error budget, emits a
// deterministic alert instant into the trace for every violation, and hands
// the autoscaler a machine-readable reason so each scaling action records
// why it happened. All inputs are virtual-time histogram counts, so the
// alert stream is byte-identical across same-seed runs.
//
// On a sharded platform replicas observe into the histograms from their own
// shards — guests are never homed on shard 0 — while the control loop runs on
// shard 0, which runs first in every epoch. A live read therefore sees every
// sample taken before the current epoch and none from it: a function of the
// virtual schedule.
type Watchdog struct {
	f *Fleet
	// TargetUS is the per-request latency objective in microseconds.
	TargetUS float64

	fleet sloView
	reps  []*sloView // parallel to Fleet.replicas

	mxAlerts *obs.Counter
}

// sloView is the watchdog's view of one cumulative latency histogram: the
// cut the previous interval ended on.
type sloView struct {
	hist  *obs.Histogram
	prev  []int64
	prevN int64
}

const (
	// sloBudget is the fraction of an interval's requests allowed over
	// target before the fleet's error budget counts as burning: 5%.
	sloBudget = 0.05
	// sloMinSamples gates alerts on intervals too thin to judge.
	sloMinSamples = 10
)

func newWatchdog(f *Fleet, targetUS float64) *Watchdog {
	w := &Watchdog{
		f:        f,
		TargetUS: targetUS,
		fleet:    sloView{hist: f.ReqLatency},
		mxAlerts: f.pl.K.Metrics().Counter("slo_alerts_total", obs.L("fleet", f.spec.Name)),
	}
	return w
}

// track registers a summoned replica: it gets a labeled per-replica latency
// histogram (wired into the replica's server as MirrorLatency by the
// appliance main) so the watchdog can attribute violations to a replica.
func (w *Watchdog) track(r *Replica) {
	h := w.f.pl.K.Metrics().Histogram("httpd_request_us", LatencyBounds,
		obs.L("fleet", w.f.spec.Name), obs.L("replica", r.Name))
	for len(w.reps) <= r.Index {
		w.reps = append(w.reps, nil)
	}
	w.reps[r.Index] = &sloView{hist: h}
	r.SLOHist = h
}

// evaluate runs once per control interval: per-replica p99 checks, then the
// fleet-wide error budget. It returns the reason the autoscaler should
// attach to a scale-up ("" = SLO healthy). Budget burn outranks a single
// replica's p99 because it means the fleet as a whole is failing users.
func (w *Watchdog) evaluate() string {
	reason := ""
	for i, rs := range w.reps {
		if rs == nil {
			continue
		}
		r := w.f.replicas[i]
		p99, over, n := rs.interval(w.TargetUS)
		if n < sloMinSamples {
			continue
		}
		if p99 > w.TargetUS {
			w.alert("slo-p99", r.Name, p99, over, n)
			if reason == "" {
				reason = "slo-p99"
			}
		}
	}
	p99, over, n := w.fleet.interval(w.TargetUS)
	if n >= sloMinSamples && float64(over) > sloBudget*float64(n) {
		w.alert("slo-budget-burn", "fleet", p99, over, n)
		reason = "slo-budget-burn"
	}
	return reason
}

// alert records one SLO violation: an event line, a counter bump, and a
// deterministic instant on the trace timeline (category "slo").
func (w *Watchdog) alert(kind, who string, p99 float64, over, n int64) {
	w.mxAlerts.Inc()
	f := w.f
	f.event("slo-alert %s %s p99=%.0fus target=%.0fus over=%d/%d",
		kind, who, p99, w.TargetUS, over, n)
	if tr := f.pl.K.Trace(); tr.Enabled() {
		tr.Instant(f.pl.K.TraceTime(), "slo", "alert", 0, 0,
			obs.Str("kind", kind), obs.Str("who", who),
			obs.Int("p99_us", int64(p99)), obs.Int("target_us", int64(w.TargetUS)),
			obs.Int("over", over), obs.Int("samples", n))
	}
}

// interval computes the p99 and over-target sample count of the samples
// observed since the previous interval's cut, then makes the histogram as it
// stands the previous cut.
func (v *sloView) interval(targetUS float64) (p99 float64, over, n int64) {
	n = v.hist.Count() - v.prevN
	if n <= 0 {
		return 0, 0, 0
	}
	bounds, counts := v.hist.Buckets()
	d := make([]int64, len(counts))
	for i, c := range counts {
		p := int64(0)
		if i < len(v.prev) {
			p = v.prev[i]
		}
		d[i] = c - p
	}
	v.prev, v.prevN = counts, v.prevN+n
	// Over-target samples: buckets whose lower edge is at or past the
	// target, plus the +Inf overflow bucket.
	for i, c := range d {
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		if i == len(bounds) || lower >= targetUS {
			over += c
		}
	}
	return obs.QuantileFromBuckets(bounds, d, n, 0.99), over, n
}
