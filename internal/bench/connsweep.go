package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ipv4"
	"repro/internal/loadgen"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/tcp"
)

// ConnSweep parks a stepped population of keep-alive TCP connections on a
// fixed appliance fleet behind the stateless (rendezvous-hash) balancer and
// proves the control-plane cost stays flat: the kernel event queue must
// track the handful of *active* timers per wheel tick, never the parked
// population. The sweep then mass-closes every connection so a full
// population of TIME_WAIT timers parks on the hierarchical timing wheels at
// once — the wheel holds them all while the event heap stays small. At each
// plateau a probe session measures request latency through the VIP, and
// (with mem stats enabled) the process heap is sampled to report simulated
// bytes per connection across both endpoints and the fabric.

// csTimeWait is the client-side TIME_WAIT: longer than the whole close
// ramp, so the mass close parks every connection on the wheels at once.
const csTimeWait = 60 * time.Second

// csConfig sizes one sweep. connGap/closeGap are the *global* spacing
// between connection events; they pace the fleet-wide ramp so dom0's
// per-frame bridge cost is never saturated (a handshake is ~5 bridge
// traversals, so a 40µs gap keeps dom0 around 25% busy on handshakes).
type csConfig struct {
	steps       []int // cumulative target populations
	nClients    int
	nReplicas   int
	connGap     time.Duration
	closeGap    time.Duration
	plateau     time.Duration // hold after each ramp before the barrier
	settle      time.Duration // ramp-end to probe start
	probeReqs   int
	think       time.Duration
	handlerCost time.Duration
}

func csConf(quick bool) csConfig {
	if quick {
		return csConfig{
			steps:       []int{500, 2000},
			nClients:    4,
			nReplicas:   2,
			connGap:     200 * time.Microsecond,
			closeGap:    200 * time.Microsecond,
			plateau:     300 * time.Millisecond,
			settle:      50 * time.Millisecond,
			probeReqs:   15,
			think:       500 * time.Microsecond,
			handlerCost: 200 * time.Microsecond,
		}
	}
	// Full sweep: 64 clients × 15625 conns = 1M. Each client stays under
	// the 16384-port ephemeral range, so exhaustion never gates the ramp.
	return csConfig{
		steps:       []int{10_000, 100_000, 1_000_000},
		nClients:    64,
		nReplicas:   8,
		connGap:     40 * time.Microsecond,
		closeGap:    40 * time.Microsecond,
		plateau:     600 * time.Millisecond,
		settle:      100 * time.Millisecond,
		probeReqs:   40,
		think:       time.Millisecond,
		handlerCost: 200 * time.Microsecond,
	}
}

// csStep is one population plateau with its precomputed virtual schedule.
type csStep struct {
	target  int
	start   time.Duration // ramp begins
	rampEnd time.Duration
	barrier time.Duration // measurement instant (kernel quiesced here)
}

// csClient is one load generator's tally. Written only on its own guest's
// shard during the run; the driver reads it between Run calls, at the
// quiesced step barriers.
type csClient struct {
	established int
	failed      int
	closed      int
	conns       []*tcp.Conn
	st          *tcp.Stack
}

// deployConnClient deploys one connection-source guest. It opens its share
// of each step's new connections at interleaved global slots (slot =
// k*nClients+idx), parks them, and after the last plateau closes every one
// on the same spacing — the mass close that parks a full population of
// TIME_WAIT timers on the wheels. Each wait is chained from the last, so a
// guest holds exactly one pending timer: the sweep must not itself populate
// the event queues it is measuring, so connections are launched by a
// self-pacing chain rather than a pre-scheduled event per connection.
func deployConnClient(pl *core.Platform, idx int, cl *csClient, cfg csConfig,
	steps []csStep, closeStart, drainEnd time.Duration) {
	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: fmt.Sprintf("connsrc-%d", idx), Roots: []string{"http"}},
		Memory: 64 << 20,
		Main: func(env *core.Env) int {
			s := env.VM.S
			cl.st = env.Net.TCP
			cl.st.Params.TimeWait = csTimeWait
			done := lwt.NewPromise[struct{}](s)

			var closer func(k int)
			closer = func(k int) {
				if k >= len(cl.conns) {
					loadgen.Until(s, drainEnd, func() { done.Resolve(struct{}{}) })
					return
				}
				at := closeStart + time.Duration(k*cfg.nClients+idx)*cfg.closeGap
				loadgen.Until(s, at, func() {
					cl.conns[k].Close()
					cl.closed++
					closer(k + 1)
				})
			}

			// share returns how many of step si's new connections this
			// client owns (remainder spread over the low indices).
			share := func(si int) int {
				prev := 0
				if si > 0 {
					prev = steps[si-1].target
				}
				n := steps[si].target - prev
				sh := n / cfg.nClients
				if idx < n%cfg.nClients {
					sh++
				}
				return sh
			}
			var launch func(si, k int)
			launch = func(si, k int) {
				if si == len(steps) {
					closer(0)
					return
				}
				if k == share(si) {
					launch(si+1, 0)
					return
				}
				at := steps[si].start + time.Duration(k*cfg.nClients+idx)*cfg.connGap
				loadgen.Until(s, at, func() {
					cn := cl.st.Connect(swVIP, 80)
					lwt.Always(cn, func() {
						if cn.Failed() != nil {
							cl.failed++
						} else {
							cl.established++
							cl.conns = append(cl.conns, cn.Value())
						}
					})
					launch(si, k+1)
				})
			}
			launch(0, 0)
			return env.VM.Main(env.P, done)
		},
	}, core.DeployOpts{
		Net: &netstack.Config{
			MAC: core.MAC(0x80 + byte(idx)), IP: ipv4.AddrFrom4(10, 0, 0, 120+uint8(idx)),
			Netmask: benchMask,
		},
		PCPU: -1,
	})
}

// deployConnProbe deploys the probe guest: one keep-alive session per step,
// run on the plateau, recording client-observed request latency while the
// parked population sits underneath. Each session is armed when the one
// before it ends, and the probe stays up until drainEnd. It returns the
// probe's per-step tallies (a failed session counts in SessFail).
func deployConnProbe(pl *core.Platform, cfg csConfig, steps []csStep, drainEnd time.Duration) []loadgen.Tally {
	probe := make([]loadgen.Tally, len(steps))
	ss := &loadgen.Sessions{Addr: swVIP, Reqs: loadgen.GETs(cfg.probeReqs), Think: cfg.think, Linger: true}
	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: "connprobe", Roots: []string{"http"}},
		Memory: 64 << 20,
		Main: func(env *core.Env) int {
			s := env.VM.S
			done := lwt.NewPromise[struct{}](s)
			var run func(si int)
			run = func(si int) {
				if si == len(steps) {
					loadgen.Until(s, drainEnd, func() { done.Resolve(struct{}{}) })
					return
				}
				loadgen.Until(s, steps[si].rampEnd+cfg.settle, func() {
					ss.Open(env, loadgen.Launch{T: &probe[si]}, func() { run(si + 1) })
				})
			}
			run(0)
			return env.VM.Main(env.P, done)
		},
	}, core.DeployOpts{
		Net: &netstack.Config{
			MAC: core.MAC(0x7F), IP: ipv4.AddrFrom4(10, 0, 0, 119),
			Netmask: benchMask,
		},
		PCPU: -1,
	})
	return probe
}

// csHeap forces a collection and returns the live heap, for the
// bytes-per-connection appendix. Host-dependent: only sampled when the
// caller asked for memory stats, so default output stays byte-comparable
// across machines and runs.
func csHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// ConnSweep runs the population sweep and reports, per plateau: established
// connections, probe p50/p99, the kernel event-queue population and the
// wheel-resident timer count — the latter two read at quiesced barriers
// between Run calls, where the sharded accessors are defined. memStats
// additionally samples the process heap at each barrier (host-dependent;
// off by default).
func ConnSweep(rc core.Config, seed int64, quick bool, memStats bool) *Result {
	cfg := csConf(quick)
	warmup := time.Second

	steps := make([]csStep, len(cfg.steps))
	cur, prev := warmup, 0
	for i, tgt := range cfg.steps {
		ramp := time.Duration(tgt-prev) * cfg.connGap
		steps[i] = csStep{target: tgt, start: cur, rampEnd: cur + ramp, barrier: cur + ramp + cfg.plateau}
		cur, prev = steps[i].barrier, tgt
	}
	total := prev
	closeStart := cur
	closeEnd := closeStart + time.Duration(total)*cfg.closeGap
	closeBarrier := closeEnd + cfg.settle
	drainEnd := closeEnd + csTimeWait + 500*time.Millisecond

	rn := newRun(rc, "connsweep", seed)
	pl := rn.pl

	// The fleet is fixed (Min == Max): every replica is deployed on its own
	// fresh pCPU shard and the balancer steers statelessly by rendezvous
	// hash, so each replica's demultiplexer owns its shard of the
	// connection space and no per-flow state accumulates in the balancer.
	stacks := make([]*tcp.Stack, cfg.nReplicas)
	webMain := fleet.WebMain(cfg.handlerCost, []byte("<html>parked</html>"), 0)
	f := fleet.New(pl, fleet.Spec{
		Name:   "conn",
		Build:  build.WebAppliance(),
		Memory: 64 << 20,
		Main: func(env *core.Env, r *fleet.Replica) int {
			stacks[r.Index] = env.Net.TCP
			return webMain(env, r)
		},
		VIP: swVIP, BaseIP: swBaseIP, Netmask: benchMask, LBIP: swLBIP,
		MACBase:       0x40,
		Min:           cfg.nReplicas,
		Max:           cfg.nReplicas,
		Policy:        fleet.Hash,
		ScaleUpConns:  1 << 20,
		Interval:      250 * time.Millisecond,
		ProbeInterval: 100 * time.Millisecond,
	})

	clients := make([]*csClient, cfg.nClients)
	for i := range clients {
		clients[i] = &csClient{}
		deployConnClient(pl, i, clients[i], cfg, steps, closeStart, drainEnd)
	}
	probe := deployConnProbe(pl, cfg, steps, drainEnd)

	rn.runTo(warmup)
	var baseHeap uint64
	if memStats {
		baseHeap = csHeap()
	}

	estab := make([]int, len(steps))
	failed := make([]int, len(steps))
	queueLen := make([]int, len(steps))
	wheelLen := make([]int, len(steps))
	heapAt := make([]uint64, len(steps))
	for si := range steps {
		rn.runTo(steps[si].barrier)
		for _, cl := range clients {
			estab[si] += cl.established
			failed[si] += cl.failed
		}
		queueLen[si] = pl.K.EventQueueLen()
		wheelLen[si] = pl.K.WheelTimers()
		if memStats {
			heapAt[si] = csHeap()
		}
	}

	rn.runTo(closeBarrier)
	closeWheel := pl.K.WheelTimers()
	closeQueue := pl.K.EventQueueLen()

	metrics := rn.finish(drainEnd, "tcp_", "lb_", "fleet_")
	counts := pl.K.Metrics().Snapshot().Diff(rn.before)

	openAfter, closedTotal, probeFail := 0, 0, 0
	for _, t := range probe {
		probeFail += t.SessFail
	}
	for _, cl := range clients {
		openAfter += cl.st.Conns()
		closedTotal += cl.closed
	}
	serverAfter := 0
	for _, st := range stacks {
		if st == nil {
			continue
		}
		serverAfter += st.Conns()
	}

	res := &Result{
		ID:     "connsweep",
		Title:  "Million-connection serving: parked keep-alive population sweep",
		XLabel: "target concurrent conns",
		YLabel: "conns / events / ms",
	}
	xs := make([]float64, len(steps))
	for si := range steps {
		xs[si] = float64(steps[si].target)
	}
	res.addSeries(xs,
		column{"established conns", func(si int) float64 { return float64(estab[si]) }},
		column{"probe p50 ms", func(si int) float64 { return probe[si].Pct(0.50) / 1000 }},
		column{"probe p99 ms", func(si int) float64 { return probe[si].Pct(0.99) / 1000 }},
		column{"event queue len", func(si int) float64 { return float64(queueLen[si]) }},
		column{"wheel timers", func(si int) float64 { return float64(wheelLen[si]) }})
	if memStats {
		res.addSeries(xs,
			column{"heap MiB", func(si int) float64 { return float64(heapAt[si]) / (1 << 20) }})
	}

	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d replicas (hash steering), %d clients + 1 probe, conn gap %v, seed %d, live replicas %d",
		cfg.nReplicas, cfg.nClients, cfg.connGap, seed, f.Live()))
	for si := range steps {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"step %d conns: established %d failed %d, event queue %d, wheel timers %d, probe p99 %.3f ms",
			steps[si].target, estab[si], failed[si], queueLen[si], wheelLen[si],
			probe[si].Pct(0.99)/1000))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"mass close: %d closed, %d TIME_WAIT timers parked on wheels, event queue %d at close barrier",
		closedTotal, closeWheel, closeQueue))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"run peaks: event heap %d, wheel timers %d", pl.K.EventHeapPeak(), pl.K.WheelTimerPeak()))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"after drain: client conns %d, server conns %d, ports exhausted %d, probe failures %d",
		openAfter, serverAfter, counts.Sum("tcp_ports_exhausted_total"), probeFail))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"syn cookies: sent %d validated %d failed %d", counts.Sum("tcp_syncookies_sent_total"),
		counts.Sum("tcp_syncookies_validated_total"), counts.Sum("tcp_syncookies_failed_total")))
	if memStats {
		last := len(steps) - 1
		perConn := float64(0)
		if total > 0 && heapAt[last] > baseHeap {
			perConn = float64(heapAt[last]-baseHeap) / float64(total)
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"memory: baseline heap %.1f MiB, at %d conns %.1f MiB — %.0f bytes per conn (both endpoints + fabric; host-dependent)",
			float64(baseHeap)/(1<<20), total, float64(heapAt[last])/(1<<20), perConn))
	}
	res.Metrics = metrics
	return res
}
