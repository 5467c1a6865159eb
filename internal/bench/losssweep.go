package bench

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netback"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// DefaultLossRates is the losssweep x-axis: per-frame drop probabilities.
var DefaultLossRates = []float64{0, 0.005, 0.01, 0.05}

// lossRunStats collects the observables of one impaired transfer.
type lossRunStats struct {
	goodput  float64      // application payload Mb/s
	counts   obs.Snapshot // the run's registry diff: the loss-recovery counters
	appendix []string
}

// lossSweepRun transfers bytesPerFlow from a client guest to a server
// guest across a bridge configured with faults and returns goodput and
// the run's registry diff. Both guests run the full device path
// (grant-copy TX, posted RX, ARP, IP), so every dropped frame exercises
// the same recovery machinery a real deployment would.
func lossSweepRun(rc core.Config, faults netback.Faults, bytesPerFlow int) lossRunStats {
	rn := newRun(rc, "losssweep", 53)
	pl := rn.pl
	pl.Bridge.SetFaults(faults)
	serverIP, clientIP := ipv4.AddrFrom4(10, 0, 0, 2), ipv4.AddrFrom4(10, 0, 0, 1)
	payload := make([]byte, bytesPerFlow)

	received := 0
	var startAt, doneAt sim.Time

	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "sink", Roots: []string{"tcp"}},
		Main: func(env *core.Env) int {
			l, err := env.Net.TCP.Listen(5001)
			if err != nil {
				panic(err)
			}
			fin := lwt.Bind(l.Accept(), func(c *tcp.Conn) *lwt.Promise[struct{}] {
				var loop func() *lwt.Promise[struct{}]
				loop = func() *lwt.Promise[struct{}] {
					return lwt.Bind(c.Read(256<<10), func(data []byte) *lwt.Promise[struct{}] {
						if len(data) == 0 {
							c.Close()
							return c.Done()
						}
						received += len(data)
						if received == bytesPerFlow {
							doneAt = env.VM.S.K.Now()
						}
						return loop()
					})
				}
				return loop()
			})
			return env.VM.Main(env.P, fin)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: serverIP, Netmask: benchMask}})

	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "source", Roots: []string{"tcp"}},
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			startAt = env.VM.S.K.Now()
			fin := lwt.Bind(env.Net.TCP.Connect(serverIP, 5001), func(c *tcp.Conn) *lwt.Promise[struct{}] {
				return lwt.Bind(c.Write(payload), func(int) *lwt.Promise[struct{}] {
					c.Close()
					return c.Done()
				})
			})
			return env.VM.Main(env.P, fin)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: clientIP, Netmask: benchMask}})

	appendix := rn.finish(30*time.Minute, "tcp_", "bridge_")
	if received != bytesPerFlow {
		panic(fmt.Sprintf("losssweep: %d/%d bytes received at drop=%.3f — connection wedged",
			received, bytesPerFlow, faults.Drop))
	}
	secs := doneAt.Sub(startAt).Seconds()
	return lossRunStats{
		goodput:  float64(bytesPerFlow) * 8 / 1e6 / secs,
		counts:   pl.K.Metrics().Snapshot().Diff(rn.before),
		appendix: appendix,
	}
}

// LossSweep measures TCP goodput and loss-recovery activity while the
// bridge drops a growing fraction of frames. The point is graceful
// degradation: every transfer must complete — recovery just shifts from
// fast retransmit to RTO (and persist probes) as loss grows.
func LossSweep(rc core.Config, bytesPerFlow int, rates []float64) *Result {
	if rates == nil {
		rates = DefaultLossRates
	}
	r := &Result{
		ID:     "losssweep",
		Title:  "TCP goodput under injected frame loss",
		XLabel: "frame loss (%)",
		YLabel: "goodput (Mb/s)",
		Notes: []string{
			fmt.Sprintf("%d KiB per transfer over the full guest device path; deterministic seeded faults", bytesPerFlow>>10),
		},
	}
	s := Series{Name: "goodput"}
	for i, rate := range rates {
		st := lossSweepRun(rc, netback.Faults{Drop: rate}, bytesPerFlow)
		s.X = append(s.X, rate*100)
		s.Y = append(s.Y, st.goodput)
		c := st.counts
		r.Notes = append(r.Notes, fmt.Sprintf(
			"loss=%.1f%%: goodput=%.1f Mb/s retx=%d fast=%d rto=%d persist=%d bridge-drops=%d",
			rate*100, st.goodput, c.Sum("tcp_retransmits_total"), c.Sum("tcp_fast_retransmits_total"),
			c.Sum("tcp_rto_timeouts_total"), c.Sum("tcp_persist_probes_total"),
			c.Sum("bridge_faults_total", obs.L("kind", "drop"))))
		if i == len(rates)-1 {
			r.Metrics = append(r.Metrics, fmt.Sprintf("[drop=%.1f%%]", rate*100))
			r.Metrics = append(r.Metrics, st.appendix...)
		}
	}
	r.Series = append(r.Series, s)
	return r
}
