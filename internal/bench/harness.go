package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpd"
	"repro/internal/lwt"
	"repro/internal/obs"
)

// The one sweep harness: every platform experiment boots through
// platformRun, every HTTP load generator drives sessions through httpSession into a tally, and
// every per-point figure is assembled by addSeries.

// platformRun is one platform run. The registry is snapshotted at boot so
// the appendix shows only what this run added.
type platformRun struct {
	id     string
	pl     *core.Platform
	before obs.Snapshot
}

// newRun builds experiment id's platform from the run's configuration.
func newRun(rc core.Config, id string, seed int64) *platformRun {
	pl := rc.NewPlatform(seed)
	return &platformRun{id: id, pl: pl, before: pl.K.Metrics().Snapshot()}
}

// runTo drives the platform to the absolute virtual instant at.
func (r *platformRun) runTo(at time.Duration) {
	if d := at - r.pl.K.Now().Duration(); d > 0 {
		if _, err := r.pl.RunFor(d); err != nil {
			panic(fmt.Sprintf("%s: %v", r.id, err))
		}
	}
}

// settle drives the platform to at and fails the experiment if any
// deployment did.
func (r *platformRun) settle(at time.Duration) {
	r.runTo(at)
	if err := r.pl.Check(); err != nil {
		panic(fmt.Sprintf("%s: %v", r.id, err))
	}
}

// finish is settle plus the metrics appendix filtered to prefixes. An
// experiment that prints no appendix calls settle: rendering one also
// records the per-CPU gauges in the run's registry.
func (r *platformRun) finish(at time.Duration, prefixes ...string) []string {
	r.settle(at)
	return metricsAppendix(r.pl.K, r.before, prefixes...)
}

// tally is the one client-side collector: per-request latencies and
// session outcomes. Each tally is written by exactly one guest — so by one
// shard — and tallies are merged only after Run returns; percentiles sort
// and counts sum, so the merged figures do not depend on which shard's
// thread ran first.
type tally struct {
	lats     []float64 // per-request latency, µs
	reqsDone int       // requests completing inside the phase window
	sessOK   int
	sessFail int
}

// mergeTallies folds per-guest tallies ([guest][point]) into one per point,
// in guest-index order.
func mergeTallies(perGuest [][]*tally) []*tally {
	out := make([]*tally, len(perGuest[0]))
	for p := range out {
		out[p] = &tally{}
		for _, g := range perGuest {
			out[p].lats = append(out[p].lats, g[p].lats...)
			out[p].reqsDone += g[p].reqsDone
			out[p].sessOK += g[p].sessOK
			out[p].sessFail += g[p].sessFail
		}
	}
	return out
}

// pct returns the q-quantile latency in µs (nearest rank), 0 when empty.
func (t *tally) pct(q float64) float64 {
	if len(t.lats) == 0 {
		return 0
	}
	s := append([]float64(nil), t.lats...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// httpSession runs n GETs over one keep-alive connection to the fleet VIP,
// recording each request's client-observed latency (write to parsed
// response) and the session's outcome in t. after(i, next) runs once
// response i is booked; the caller places its think time by choosing when
// to call next. done runs once, after the connection is closed or failed.
func httpSession(env *core.Env, t *tally, n int, after func(i int, next func()), done func()) {
	s := env.VM.S
	cn := env.Net.TCP.Connect(swVIP, 80)
	lwt.Always(cn, func() {
		if cn.Failed() != nil {
			t.sessFail++
			done()
			return
		}
		c := cn.Value()
		cl := httpd.NewClient(c)
		var issue func(i int)
		issue = func(i int) {
			if i == n {
				c.Close()
				t.sessOK++
				done()
				return
			}
			start := s.K.Now()
			cl.Do(&httpd.Request{Method: "GET", Path: "/"}, func(resp *httpd.Response) {
				if resp == nil {
					t.sessFail++
					c.Close()
					done()
					return
				}
				t.lats = append(t.lats, float64(s.K.Now().Sub(start).Microseconds()))
				after(i, func() { issue(i + 1) })
			})
		}
		issue(0)
	})
}

// sleepThen runs fn after d of the guest's virtual time.
func sleepThen(s *lwt.Scheduler, d time.Duration, fn func()) {
	lwt.Map(s.Sleep(d), func(struct{}) struct{} {
		fn()
		return struct{}{}
	})
}

// sampleLive samples the fleet's live-replica count every 100ms from swWarmup
// to the end of the last phase, folding each sample into the minimum and
// peak of the phase whose window covers it. The slices fill during the run;
// read them after it.
func sampleLive(pl *core.Platform, f *fleet.Fleet, phases []swPhase) (low, peak []int) {
	low, peak = make([]int, len(phases)), make([]int, len(phases))
	end := swWarmup
	for p, ph := range phases {
		low[p] = 1 << 30
		end += ph.dur
	}
	var sample func()
	sample = func() {
		now := pl.K.Now().Duration()
		base := swWarmup
		for p, ph := range phases {
			if now >= base && now < base+ph.dur {
				live := f.Live()
				if live < low[p] {
					low[p] = live
				}
				if live > peak[p] {
					peak[p] = live
				}
			}
			base += ph.dur
		}
		if now < end {
			pl.K.After(100*time.Millisecond, sample)
		}
	}
	pl.K.After(swWarmup, sample)
	return low, peak
}

// column is one series of a per-point figure: y(i) is its value at xs[i].
type column struct {
	name string
	y    func(i int) float64
}

// addSeries appends one Series per column, each evaluated at every x.
func (r *Result) addSeries(xs []float64, cols ...column) {
	for _, c := range cols {
		s := Series{Name: c.name, X: xs}
		for i := range xs {
			s.Y = append(s.Y, c.y(i))
		}
		r.Series = append(r.Series, s)
	}
}
