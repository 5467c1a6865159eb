package bench

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// The one sweep harness: every platform experiment boots through
// platformRun, every client is an internal/loadgen guest feeding a
// loadgen.Tally, and every per-point figure is assembled by addSeries.

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

// deploy deploys an appliance named name that links roots and whose main
// runs fn and exits 0.
func (r *platformRun) deploy(name string, fn func(env *core.Env), roots ...string) {
	r.pl.Deploy(core.Unikernel{
		Build: build.Config{Name: name, Roots: roots},
		Main:  func(env *core.Env) int { fn(env); return 0 },
	}, core.DeployOpts{})
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
