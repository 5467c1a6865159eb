package bench

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/ipv4"
	"repro/internal/loadgen"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/tcp"
)

var benchMask = ipv4.AddrFrom4(255, 255, 255, 0)

// PingLatency regenerates the §4.1.3 flood-ping comparison: a client
// floods echo requests at a Linux-stack target and a Mirage target over
// the full device path; Mirage pays a 4–10% latency premium for type-safe
// parsing. Returns mean RTTs.
func PingLatency(rc core.Config, pings int) *Result {
	var appendix []string
	run := func(label string, targetParams netstack.Params) time.Duration {
		rn := newRun(rc, "ping", 77)
		pl := rn.pl
		var t loadgen.Tally

		// Target: answers ICMP echo in its stack.
		pl.Deploy(core.Unikernel{
			Build: build.Config{Name: "target", Roots: []string{"icmp"}},
			Main: func(env *core.Env) int {
				env.Net.Params = targetParams
				return env.VM.Main(env.P, env.VM.S.Sleep(10*time.Minute))
			},
		}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: ipv4.AddrFrom4(10, 0, 0, 2), Netmask: benchMask}})

		// Pinger.
		pl.Deploy(core.Unikernel{
			Build: build.Config{Name: "pinger", Roots: []string{"icmp"}},
			Main: func(env *core.Env) int {
				return loadgen.Closed(env, 1, pings, loadgen.Ping(ipv4.AddrFrom4(10, 0, 0, 2)), &t)
			},
		}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: ipv4.AddrFrom4(10, 0, 0, 1), Netmask: benchMask}})

		metrics := rn.finish(10*time.Minute, "cpu_busy", "net_", "ring_occupancy", "hv_evtchn")
		if len(t.Lats) != pings {
			panic(fmt.Sprintf("ping bench: only %d/%d replies", len(t.Lats), pings))
		}
		var total time.Duration
		for _, d := range t.Lats {
			total += d
		}
		appendix = append(appendix, "["+label+"]")
		appendix = append(appendix, metrics...)
		return total / time.Duration(pings)
	}

	// The target's stack is what differs: C parsing vs type-safe parsing.
	linux := netstack.Params{RxCost: 1200 * time.Nanosecond, TxCost: 1300 * time.Nanosecond}
	mirage := netstack.Params{RxCost: 2200 * time.Nanosecond, TxCost: 2400 * time.Nanosecond}

	lRTT := run("linux-target", linux)
	mRTT := run("mirage-target", mirage)
	overhead := (float64(mRTT)/float64(lRTT) - 1) * 100

	return &Result{
		ID:     "ping",
		Title:  "ICMP flood-ping latency (§4.1.3)",
		XLabel: "target",
		YLabel: "mean RTT (µs)",
		Series: []Series{
			{Name: "linux-target", X: []float64{0}, Y: []float64{float64(lRTT) / 1e3}},
			{Name: "mirage-target", X: []float64{1}, Y: []float64{float64(mRTT) / 1e3}},
		},
		Notes: []string{
			fmt.Sprintf("mirage latency overhead: %.1f%% (paper: 4-10%%)", overhead),
			fmt.Sprintf("%d pings per target, zero losses", pings),
		},
		Metrics: appendix,
	}
}

// fig8Host is one endpoint of the iperf experiment: a real TCP stack whose
// segments are priced by a NetProfile on a dedicated CPU.
type fig8Host struct {
	st  *tcp.Stack
	s   *lwt.Scheduler
	sig *sim.Signal
	cpu *sim.CPU
}

// fig8Throughput transfers bytesPerFlow on each of n flows from a sender
// with sendProf to a receiver with recvProf and returns Mb/s.
func fig8Throughput(rc core.Config, sendProf, recvProf conventional.NetProfile, flows, bytesPerFlow int) (float64, []string) {
	k := sim.NewKernelObs(8, rc.Trace, rc.Metrics)
	before := k.Metrics().Snapshot()
	const (
		wireLatency = 15 * time.Microsecond
		ackCost     = 700 * time.Nanosecond // per-ACK processing either side
	)
	mk := func(name string, ip ipv4.Addr) *fig8Host {
		h := &fig8Host{
			s:   lwt.NewScheduler(k),
			sig: k.NewSignal(name + "-rx"),
			cpu: k.NewCPU(name + "-cpu"),
		}
		h.st = tcp.NewStack(h.s, ip, tcp.DefaultParams())
		h.s.OnSignal(h.sig, func() {})
		return h
	}
	snd := mk("sender", ipv4.AddrFrom4(10, 0, 0, 1))
	rcv := mk("receiver", ipv4.AddrFrom4(10, 0, 0, 2))

	wire := func(from *fig8Host, fromProf conventional.NetProfile, to *fig8Host, toProf conventional.NetProfile) {
		from.st.Output = func(dst ipv4.Addr, seg tcp.Segment) {
			n := len(seg.Payload)
			txCost := ackCost
			if n > 0 {
				txCost = time.Duration(n) * fromProf.TxPerKB / 1024
			}
			txDone := from.cpu.Reserve(txCost)
			src := from.st.LocalIP
			k.At(txDone.Add(wireLatency), func() {
				rxCost := ackCost
				if n > 0 {
					rxCost = time.Duration(n) * toProf.RxPerKB / 1024
				}
				rxDone := to.cpu.Reserve(rxCost)
				k.At(rxDone, func() {
					to.st.Input(src, seg)
					to.sig.Set()
				})
			})
		}
	}
	wire(snd, sendProf, rcv, recvProf)
	wire(rcv, recvProf, snd, sendProf)

	payload := make([]byte, bytesPerFlow)
	finished := 0
	var doneAt sim.Time

	k.SpawnDaemon("receiver", func(p *sim.Proc) {
		l, _ := rcv.st.Listen(5001)
		var accept func()
		accept = func() {
			lwt.Map(l.Accept(), func(c *tcp.Conn) struct{} {
				var loop func()
				loop = func() {
					lwt.Map(c.Read(256<<10), func(data []byte) struct{} {
						if len(data) == 0 {
							c.Close()
							finished++
							doneAt = k.Now()
							return struct{}{}
						}
						loop()
						return struct{}{}
					})
				}
				loop()
				accept()
				return struct{}{}
			})
		}
		accept()
		blocker := lwt.NewPromise[struct{}](rcv.s)
		rcv.s.Run(p, blocker)
	})
	k.SpawnDaemon("sender", func(p *sim.Proc) {
		var ws []lwt.Waiter
		for i := 0; i < flows; i++ {
			w := lwt.Bind(snd.st.Connect(rcv.st.LocalIP, 5001), func(c *tcp.Conn) *lwt.Promise[struct{}] {
				return lwt.Bind(c.Write(payload), func(int) *lwt.Promise[struct{}] {
					c.Close()
					return c.Done()
				})
			})
			ws = append(ws, w)
		}
		snd.s.Run(p, lwt.Join(snd.s, ws...))
	})

	if _, err := k.RunFor(20 * time.Minute); err != nil {
		panic(err)
	}
	if finished != flows {
		panic(fmt.Sprintf("fig8: %d/%d flows finished", finished, flows))
	}
	secs := doneAt.Seconds()
	appendix := metricsAppendix(k, before, "cpu_busy", "tcp_")
	return float64(flows*bytesPerFlow) * 8 / 1e6 / secs, appendix
}

// Fig8TCP regenerates the Figure 8 table: TCP throughput with all hardware
// offload disabled, for 1 and 10 flows, across Linux->Linux, Linux->Mirage
// and Mirage->Linux.
func Fig8TCP(rc core.Config, bytesPerFlow int) *Result {
	l, m := conventional.LinuxNetProfile(), conventional.MirageNetProfile()
	cases := []struct {
		name     string
		snd, rcv conventional.NetProfile
	}{
		{"linux-to-linux", l, l},
		{"linux-to-mirage", l, m},
		{"mirage-to-linux", m, l},
	}
	r := &Result{
		ID:     "fig8",
		Title:  "TCP throughput, hardware offload disabled (Mb/s)",
		XLabel: "flows",
		YLabel: "Mb/s",
		Notes: []string{
			"paper: L->L 1590/1534, L->M 1742/1710, M->L 975/952 (1/10 flows)",
			"receive is higher on Mirage (no userspace copy); transmit is lower (type-safe tx path, no offload)",
		},
	}
	for _, c := range cases {
		s := Series{Name: c.name}
		for _, flows := range []int{1, 10} {
			per := bytesPerFlow / flows
			tput, appendix := fig8Throughput(rc, c.snd, c.rcv, flows, per)
			s.X = append(s.X, float64(flows))
			s.Y = append(s.Y, tput)
			if flows == 10 {
				r.Metrics = append(r.Metrics, fmt.Sprintf("[%s, %d flows]", c.name, flows))
				r.Metrics = append(r.Metrics, appendix...)
			}
		}
		r.Series = append(r.Series, s)
	}
	return r
}

// zeroCopyEchoRate runs a UDP echo ping-pong between two unikernel guests
// with a 1 KB payload and returns (round trips per second of virtual time,
// pages recycled on the echo server). copyRX selects the server's receive
// path.
func zeroCopyEchoRate(rc core.Config, rounds int, copyRX bool) (float64, int) {
	rn := newRun(rc, "ablation-zerocopy", 31)
	pl := rn.pl
	serverIP, clientIP := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	payload := make([]byte, 1024)
	var serverPool *cstruct.Pool

	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "echo", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			serverPool = env.VM.Dom.Pool
			if copyRX {
				env.Net.Params.CopyRX = true
				env.Net.Params.CopyCost = 1200 * time.Nanosecond
			}
			env.Net.UDP.Bind(7, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				env.Net.SendUDP(src, sp, 7, data.Bytes())
				data.Release()
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(10*time.Minute))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: serverIP, Netmask: benchMask}})

	var t loadgen.Tally
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "pinger", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			return loadgen.Closed(env, 1, rounds, loadgen.Echo(serverIP, payload), &t)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: clientIP, Netmask: benchMask}})

	// UDP has no retransmission: one lost datagram ends the ping-pong, and
	// a rate over the rounds that did run would be a made-up number.
	rn.settle(10 * time.Minute)
	if len(t.Lats) != rounds {
		panic(fmt.Sprintf("ablation-zerocopy: only %d/%d echoes", len(t.Lats), rounds))
	}
	return float64(rounds) / t.Elapsed.Seconds(), serverPool.Recycled
}
