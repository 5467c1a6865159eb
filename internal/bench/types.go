// Package bench contains the experiment harnesses that regenerate every
// table and figure of the paper's evaluation (§4). Each experiment returns
// a Result holding the same series/rows the paper plots; cmd/repro prints
// them, and cmd/golden holds what it prints. All experiments run on
// virtual time with fixed seeds and are fully deterministic. The package's
// tests also hold the fast path's per-op allocation budgets.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Series is one line on a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string // e.g. "fig5"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
	// Metrics is a rendered appendix of the platform counters behind the
	// figure (empty when the experiment predates the registry).
	Metrics []string
}

// Format renders the result as an aligned text table (series as columns).
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Series) == 0 {
		return b.String()
	}
	// Collect the union of X values.
	xs := map[float64]bool{}
	for _, s := range r.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	var xvals []float64
	for x := range xs {
		xvals = append(xvals, x)
	}
	sort.Float64s(xvals)

	fmt.Fprintf(&b, "%16s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %22s", s.Name)
	}
	fmt.Fprintf(&b, "   [%s]\n", r.YLabel)
	// An X a series holds more than once (a CDF's flat stretch) gets one row
	// per point, the series' points at that X in their order.
	ys := make([][]float64, len(r.Series))
	for _, x := range xvals {
		rows := 0
		for i, s := range r.Series {
			ys[i] = pointsAt(s, x)
			rows = max(rows, len(ys[i]))
		}
		for row := 0; row < rows; row++ {
			fmt.Fprintf(&b, "%16.6g", x)
			for _, y := range ys {
				if row < len(y) {
					fmt.Fprintf(&b, " %22.6g", y[row])
				} else {
					fmt.Fprintf(&b, " %22s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Metrics) > 0 {
		fmt.Fprintf(&b, "-- metrics --\n")
		for _, l := range r.Metrics {
			fmt.Fprintf(&b, "  %s\n", l)
		}
	}
	return b.String()
}

// metricsAppendix renders the registry delta since before (plus per-CPU
// busy-time gauges) for attachment to a Result. Prefixes filter the rows
// so each figure's appendix shows the counters that explain it.
func metricsAppendix(k *sim.Kernel, before obs.Snapshot, prefixes ...string) []string {
	m := k.Metrics()
	for _, c := range k.CPUs() {
		m.Gauge("cpu_busy_seconds", obs.L("cpu", c.Name())).Set(c.BusyTime().Seconds())
	}
	snap := m.Snapshot().Diff(before)
	if len(prefixes) > 0 {
		snap = snap.Filter(prefixes...)
	}
	return snap.Lines()
}

// pointsAt returns the series' Y values at x, in series order.
func pointsAt(s Series, x float64) []float64 {
	var ys []float64
	for i, sx := range s.X {
		if sx == x {
			ys = append(ys, s.Y[i])
		}
	}
	return ys
}

// Get returns the series with the given name, or nil.
func (r *Result) Get(name string) *Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}
