package bench

import (
	"time"

	"repro/internal/conventional"
)

// sessionRates are the Figure 12 x-axis offered loads (sessions/s);
// each session is 10 requests: 9 GETs of the last 100 tweets and 1 POST.
var sessionRates = []int{5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// fig12ReplyRate runs a deterministic queueing simulation of the httperf
// workload: sessions arrive at a fixed rate for `window`; their requests
// queue FIFO on the appliance CPU with per-request costs from the profile.
// The result is replies completed within the window, per second. Past
// saturation the backlog grows and the reply rate pins at (or, with
// overload thrashing, sags below) the service capacity.
func fig12ReplyRate(w conventional.WebProfile, sessionsPerSec int, window time.Duration) float64 {
	const reqsPerSession = 10
	interval := time.Duration(float64(time.Second) / float64(sessionsPerSec))
	var cpuFree time.Duration
	replies := 0
	backlog := 0
	for t := time.Duration(0); t < window; t += interval {
		// One session: connection setup + 9 GETs + 1 POST.
		for i := 0; i < reqsPerSession; i++ {
			cost := w.GetCost
			if i == reqsPerSession-1 {
				cost = w.PostCost
			}
			if i == 0 {
				cost += w.ConnCost
			}
			// Overload thrashing: a deep backlog inflates per-request
			// cost (fd pressure, context switching) — the conventional
			// appliance degrades, the unikernel (ScaleExp 1.0, small
			// costs) stays linear far longer.
			if backlog > 100 && w.ScaleExp < 1.0 {
				cost += cost / 4
			}
			start := t
			if cpuFree > start {
				start = cpuFree
			}
			cpuFree = start + cost
			if cpuFree <= window {
				replies++
				backlog = 0
			} else {
				backlog++
			}
		}
	}
	return float64(replies) / window.Seconds()
}

// Fig12DynWeb regenerates Figure 12: reply rate against offered session
// rate for the Mirage "Twitter-like" appliance (B-tree backed) and the
// Linux nginx+fastCGI+web.py appliance.
func Fig12DynWeb() *Result {
	r := &Result{
		ID:     "fig12",
		Title:  "Dynamic web appliance: reply rate vs offered sessions",
		XLabel: "sessions/s (10 requests each)",
		YLabel: "replies/s",
		Notes: []string{
			"paper: Mirage scales linearly to ~80 sessions/s (~800 req/s) before CPU-bound; Linux PV saturates ~20 sessions/s",
		},
	}
	const window = 10 * time.Second
	for _, w := range []conventional.WebProfile{conventional.MirageDynWeb(), conventional.LinuxDynWeb()} {
		s := Series{Name: w.Name}
		for _, rate := range sessionRates {
			s.X = append(s.X, float64(rate))
			s.Y = append(s.Y, fig12ReplyRate(w, rate, window))
		}
		r.Series = append(r.Series, s)
	}
	return r
}

// Fig13StaticWeb regenerates Figure 13: static-page serving throughput for
// Apache2 on Linux in three placements (1 host x 6 vCPUs, 2 x 3, 6 x 1)
// against 6 single-vCPU Mirage unikernels.
func Fig13StaticWeb() *Result {
	ap := conventional.ApacheStaticWeb()
	mg := conventional.MirageStaticWeb()
	configs := []struct {
		name string
		tput float64
	}{
		{"linux-1x6vcpu", ap.Throughput(6)},
		{"linux-2x3vcpu", 2 * ap.Throughput(3)},
		{"linux-6x1vcpu", 6 * ap.Throughput(1)},
		{"mirage-6x1vcpu", 6 * mg.Throughput(1)},
	}
	r := &Result{
		ID:     "fig13",
		Title:  "Static page serving (conns/s)",
		XLabel: "configuration",
		YLabel: "conns/s",
		Notes: []string{
			"paper: scaling out beats multi-vCPU Apache, and 6 Mirage unikernels beat every Apache placement",
		},
	}
	for i, c := range configs {
		r.Series = append(r.Series, Series{Name: c.name, X: []float64{float64(i)}, Y: []float64{c.tput}})
	}
	return r
}
