package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/fleet"
)

// results wraps plain bench results in an Output.
func results(rs ...*bench.Result) (Output, error) {
	return Output{Results: rs}, nil
}

func init() {
	Register(Experiment{ID: "fig5", Title: "Boot time, synchronous toolstack",
		Params: []string{"quick"},
		Run: func(o Options) (Output, error) {
			mems := bench.DefaultBootMems
			if o.Quick {
				mems = []int{64, 512, 3072}
			}
			return results(bench.Fig5BootTime(o.Config, mems))
		}})
	Register(Experiment{ID: "fig6", Title: "VM startup, asynchronous toolstack",
		Run: func(o Options) (Output, error) {
			return results(bench.Fig6BootAsync())
		}})
	Register(Experiment{ID: "fig7a", Title: "Thread construction time",
		Params: []string{"quick"},
		Run: func(o Options) (Output, error) {
			counts := bench.DefaultThreadCounts
			if o.Quick {
				counts = []int{1_000_000, 5_000_000}
			}
			return results(bench.Fig7aThreads(counts))
		}})
	Register(Experiment{ID: "fig7b", Title: "Wakeup jitter CDF",
		Params: []string{"quick"},
		Run: func(o Options) (Output, error) {
			n := 1_000_000
			if o.Quick {
				n = 200_000
			}
			r, stats := bench.Fig7bJitter(n)
			out := Output{Results: []*bench.Result{r}}
			for _, s := range stats {
				out.Extra = append(out.Extra, fmt.Sprintf(
					"note: %s p50=%v p90=%v p99=%v max=%v", s.Name, s.P50, s.P90, s.P99, s.Max))
			}
			return out, nil
		}})
	Register(Experiment{ID: "ping", Title: "ICMP flood-ping latency",
		Params: []string{"quick"},
		Run: func(o Options) (Output, error) {
			n := 100_000
			if o.Quick {
				n = 5_000
			}
			return results(bench.PingLatency(o.Config, n))
		}})
	Register(Experiment{ID: "fig8", Title: "TCP throughput table",
		Params: []string{"quick"},
		Run: func(o Options) (Output, error) {
			bytes := 16 << 20
			if o.Quick {
				bytes = 2 << 20
			}
			return results(bench.Fig8TCP(o.Config, bytes))
		}})
	Register(Experiment{ID: "losssweep", Title: "TCP goodput under frame loss",
		Params: []string{"quick"},
		Run: func(o Options) (Output, error) {
			bytes := 4 << 20
			if o.Quick {
				bytes = 1 << 20
			}
			return results(bench.LossSweep(o.Config, bytes, nil))
		}})
	Register(Experiment{ID: "fig9", Title: "Sequential block read throughput",
		Params: []string{"quick"},
		Run: func(o Options) (Output, error) {
			sizes, reqs := bench.DefaultBlockSizes, 1024
			if o.Quick {
				sizes, reqs = []int{4, 64, 1024, 4096}, 256
			}
			return results(bench.Fig9BlockRead(o.Config, sizes, reqs))
		}})
	Register(Experiment{ID: "kvsweep", Title: "Durable KV appliance vs queue depth",
		Params: []string{"quick", "seed", "value-bytes", "read-pct", "qd-max"},
		Run: func(o Options) (Output, error) {
			return results(bench.KVSweep(o.Config, bench.KVSweepConfig{
				Seed:       o.Seed,
				Quick:      o.Quick,
				ValueBytes: o.ValueBytes,
				ReadPct:    o.ReadPct,
				QDMax:      o.QDMax,
			}))
		}})
	Register(Experiment{ID: "fig10", Title: "DNS throughput vs zone size",
		Params: []string{"quick"},
		Run: func(o Options) (Output, error) {
			zones, queries := bench.DefaultZoneSizes, 50_000
			if o.Quick {
				zones, queries = []int{100, 1000, 10000}, 5_000
			}
			return results(bench.Fig10DNS(o.Config, zones, queries))
		}})
	Register(Experiment{ID: "fig11", Title: "OpenFlow controller throughput",
		Params: []string{"quick"},
		Run: func(o Options) (Output, error) {
			n := 200_000
			if o.Quick {
				n = 50_000
			}
			return results(bench.Fig11OpenFlow(n))
		}})
	Register(Experiment{ID: "fig12", Title: "Dynamic web appliance",
		Run: func(o Options) (Output, error) {
			return results(bench.Fig12DynWeb())
		}})
	Register(Experiment{ID: "fig13", Title: "Static page serving",
		Run: func(o Options) (Output, error) {
			return results(bench.Fig13StaticWeb())
		}})
	Register(Experiment{ID: "fig14", Title: "Lines of code",
		Run: func(o Options) (Output, error) {
			return results(bench.Fig14LoC())
		}})
	Register(Experiment{ID: "table1", Title: "System facilities (libraries)",
		Run: func(o Options) (Output, error) {
			return Output{Extra: []string{strings.TrimRight(bench.Table1Facilities(), "\n")}}, nil
		}})
	Register(Experiment{ID: "table2", Title: "Image sizes",
		Run: func(o Options) (Output, error) {
			return results(bench.Table2Sizes())
		}})
	Register(Experiment{ID: "ablations", Title: "Design-choice ablations",
		Params: []string{"quick"},
		Run: func(o Options) (Output, error) {
			n := 5000
			if o.Quick {
				n = 1000
			}
			return results(
				bench.AblationSeal(o.Config),
				bench.AblationVchan(o.Config),
				bench.AblationDNSCompression(),
				bench.AblationToolstack(o.Config),
				bench.AblationZeroCopy(o.Config, n))
		}})
	Register(Experiment{ID: "scalesweep", Title: "Autoscaled fleet vs fixed appliance",
		Params: []string{"quick", "seed", "replicas-min", "replicas-max", "lb-policy", "domstat"},
		Run: func(o Options) (Output, error) {
			seed := o.Seed
			if seed == 0 {
				seed = 42
			}
			policy := fleet.RoundRobin
			if o.LBPolicy != "" {
				var err error
				if policy, err = fleet.ParsePolicy(o.LBPolicy); err != nil {
					return Output{}, err
				}
			}
			r, domstat := bench.ScaleSweepDomStat(o.Config, seed, o.Quick, o.ReplicasMin, o.ReplicasMax, policy)
			out := Output{Results: []*bench.Result{r}}
			if o.DomStat {
				out.Extra = append(out.Extra, strings.TrimRight(domstat, "\n"))
			}
			return out, nil
		}})
	Register(Experiment{ID: "connsweep", Title: "Million-connection parked population sweep",
		Params: []string{"quick", "seed", "memstats"},
		Run: func(o Options) (Output, error) {
			seed := o.Seed
			if seed == 0 {
				seed = 42
			}
			return results(bench.ConnSweep(o.Config, seed, o.Quick, o.MemStats))
		}})
	Register(Experiment{ID: "racksweep", Title: "Multi-host rack: live migration and whole-host failure",
		Params: []string{"quick", "seed"},
		Run: func(o Options) (Output, error) {
			seed := o.Seed
			if seed == 0 {
				seed = 42
			}
			return results(bench.RackSweep(o.Config, seed, o.Quick))
		}})
}
