package bench

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hypervisor"
	"repro/internal/ipv4"
	"repro/internal/loadgen"
	"repro/internal/netstack"
	"repro/internal/obs"
)

// ScaleSweep drives stepped offered load (httperf-style sessions, §4.4)
// against two platforms sharing one seed: an autoscaled fleet that summons
// web-server replicas on demand behind the virtual balancer (§5.2), and a
// fixed single-replica baseline. The fleet should hold tail latency as the
// load steps up; the baseline should degrade. Per phase it reports
// client-observed p50/p99 and goodput, plus the fleet's replica high-water
// mark and boot-to-first-byte for every summoned replica.

var (
	swVIP    = ipv4.AddrFrom4(10, 0, 0, 100)
	swBaseIP = ipv4.AddrFrom4(10, 0, 0, 10)
	swLBIP   = ipv4.AddrFrom4(10, 0, 0, 99)
)

// Every sweep session is one keep-alive connection carrying swReqs GETs,
// swThink apart.
const (
	swReqs  = 8
	swThink = 25 * time.Millisecond
)

// swPhase is one step of offered load.
type swPhase struct {
	sessPerSec int // session arrival rate across all clients
	dur        time.Duration
}

func swPhases(quick bool) []swPhase {
	if quick {
		return []swPhase{
			{sessPerSec: 10, dur: 1500 * time.Millisecond},
			{sessPerSec: 40, dur: 1500 * time.Millisecond},
			{sessPerSec: 90, dur: 1500 * time.Millisecond},
		}
	}
	return []swPhase{
		{sessPerSec: 30, dur: 3 * time.Second},
		{sessPerSec: 100, dur: 3 * time.Second},
		{sessPerSec: 200, dur: 3 * time.Second},
		{sessPerSec: 350, dur: 3 * time.Second},
	}
}

// swRun is the outcome of one platform run.
type swRun struct {
	stats   []loadgen.Tally
	peak    []int // per-phase peak live replicas
	fleet   *fleet.Fleet
	metrics []string
	domstat string // final per-domain accounting table
}

const (
	swWarmup  = 2 * time.Second // fleet boot, before the first phase
	swClients = 4               // load-generator guests
)

// deploySweepClients deploys the load-generator guests and returns the
// per-phase tallies they share. Client idx launches its share of each
// phase's sessions (index mod swClients) at deterministic arrival offsets
// from swWarmup. Requests answered after their phase ends do not count
// toward goodput, which penalises an overloaded server that spills work
// past its step.
func deploySweepClients(pl *core.Platform, phases []swPhase) []loadgen.Tally {
	stats := make([]loadgen.Tally, len(phases))
	ss := &loadgen.Sessions{Addr: swVIP, Reqs: loadgen.GETs(swReqs), Think: swThink}
	for idx := 0; idx < swClients; idx++ {
		var plan []loadgen.Launch
		base := swWarmup
		for p, ph := range phases {
			// In time.Duration: sessPerSec × ns overflows a 32-bit int.
			total := int(time.Duration(ph.sessPerSec) * ph.dur / time.Second)
			gap := ph.dur / time.Duration(total)
			for j := idx; j < total; j += swClients {
				ln := loadgen.Launch{At: base + time.Duration(j)*gap, End: base + ph.dur, T: &stats[p]}
				if j == idx {
					// Sample each client's first session per phase: the trace
					// id is derived from (client, phase, slot) alone, so the
					// same seed traces the same requests, sharded or not.
					ln.Span = obs.TraceID(uint32(idx+1), uint32(p+1)<<16|uint32(j+1))
				}
				plan = append(plan, ln)
			}
			base += ph.dur
		}
		pl.Deploy(core.Unikernel{
			Build:  build.Config{Name: fmt.Sprintf("loadgen-%d", idx), Roots: []string{"http"}},
			Memory: 64 << 20,
			Main:   func(env *core.Env) int { return ss.Plan(env, plan) },
		}, core.DeployOpts{
			Net: &netstack.Config{
				MAC: core.MAC(0x20 + byte(idx)), IP: ipv4.AddrFrom4(10, 0, 0, 200+uint8(idx)),
				Netmask: benchMask,
			},
			PCPU: -1,
		})
	}
	return stats
}

// scalesweepRun boots one fleet (Min..Max replicas) and drives the phased
// load at it, sampling the live-replica count through the run.
func scalesweepRun(rc core.Config, seed int64, minR, maxR int, policy fleet.Policy,
	phases []swPhase, handlerCost time.Duration) *swRun {
	rn := newRun(rc, "scalesweep", seed)
	pl := rn.pl
	f := fleet.New(pl, fleet.Spec{
		Name:          "web",
		Build:         build.WebAppliance(),
		Memory:        64 << 20,
		Main:          fleet.WebMain(handlerCost, []byte("<html>unikernel fleet</html>"), 250*time.Millisecond),
		VIP:           swVIP,
		BaseIP:        swBaseIP,
		Netmask:       benchMask,
		LBIP:          swLBIP,
		MACBase:       0x40,
		Min:           minR,
		Max:           maxR,
		Policy:        policy,
		ScaleUpConns:  16,
		P99TargetUS:   10_000, // tight enough that burst phases trip the SLO watchdog
		Interval:      250 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
	})
	stats := deploySweepClients(pl, phases)
	_, peak := sampleLive(pl, f, phases)

	// Tail: let in-flight sessions finish and the fleet scale back down.
	end := swWarmup + 8*time.Second
	for _, ph := range phases {
		end += ph.dur
	}
	run := &swRun{stats: stats, fleet: f, peak: peak}
	run.metrics = rn.finish(end, "fleet_", "lb_", "httpd_")
	// Per-domain accounting: publish labeled gauges and keep the table (the
	// virtual xentop) — both derived from virtual-time state, so they are
	// byte-identical across same-seed runs.
	pl.Host.PublishDomStats(pl.K.Metrics())
	run.domstat = hypervisor.FormatDomStats(pl.Host.DomStats())
	return run
}

// ScaleSweepDomStat runs the sweep against the autoscaled fleet (minR..maxR)
// and the fixed single-replica baseline, same seed, and reports both, plus
// the autoscaled run's final domstat table (per-domain vCPU time, runqueue
// wait, notifications, pool usage).
func ScaleSweepDomStat(rc core.Config, seed int64, quick bool, minR, maxR int, policy fleet.Policy) (*Result, string) {
	if minR <= 0 {
		minR = 1
	}
	if maxR <= 0 {
		maxR = 4
		if quick {
			maxR = 3
		}
	}
	phases := swPhases(quick)
	handlerCost := time.Millisecond
	if quick {
		handlerCost = 2 * time.Millisecond
	}

	auto := scalesweepRun(rc, seed, minR, maxR, policy, phases, handlerCost)
	fixed := scalesweepRun(rc, seed, 1, 1, policy, phases, handlerCost)

	res := &Result{
		ID:     "scalesweep",
		Title:  "Autoscaled fleet vs fixed appliance under stepped load",
		XLabel: "offered req/s",
		YLabel: "ms / req/s / replicas",
	}
	xs := make([]float64, len(phases))
	for p, ph := range phases {
		xs[p] = float64(ph.sessPerSec * swReqs)
	}
	res.addSeries(xs,
		column{"fleet p99 ms", func(p int) float64 { return auto.stats[p].Pct(0.99) / 1000 }},
		column{"fixed p99 ms", func(p int) float64 { return fixed.stats[p].Pct(0.99) / 1000 }},
		column{"fleet p50 ms", func(p int) float64 { return auto.stats[p].Pct(0.50) / 1000 }},
		column{"fixed p50 ms", func(p int) float64 { return fixed.stats[p].Pct(0.50) / 1000 }},
		column{"fleet goodput", func(p int) float64 {
			return float64(auto.stats[p].ReqsDone) / phases[p].dur.Seconds()
		}},
		column{"fixed goodput", func(p int) float64 {
			return float64(fixed.stats[p].ReqsDone) / phases[p].dur.Seconds()
		}},
		column{"fleet replicas", func(p int) float64 { return float64(auto.peak[p]) }})

	res.Notes = append(res.Notes, fmt.Sprintf(
		"fleet %d..%d replicas, policy %s, handler %v, seed %d; baseline fixed at 1 replica",
		minR, maxR, policy, handlerCost, seed))
	for p, ph := range phases {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"phase %d (%d req/s offered): fleet sessions ok=%d fail=%d, fixed ok=%d fail=%d",
			p, ph.sessPerSec*swReqs,
			auto.stats[p].SessOK, auto.stats[p].SessFail,
			fixed.stats[p].SessOK, fixed.stats[p].SessFail))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"fleet boot-to-first-byte ms by replica: %v (-1 = never served)",
		auto.fleet.BootToFirstByteMS()))
	for _, e := range auto.fleet.Events {
		res.Notes = append(res.Notes, "fleet "+e)
	}
	res.Metrics = auto.metrics
	return res, auto.domstat
}
