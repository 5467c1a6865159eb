package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bench"
)

// size is an experiment's workload size: full, or quick at -quick.
func size[T any](o Options, full, quick T) T {
	if o.Quick {
		return quick
	}
	return full
}

// results wraps plain bench results in an Output.
func results(rs ...*bench.Result) (Output, error) {
	return Output{Results: rs}, nil
}

func init() {
	Register(Experiment{ID: "fig5", Title: "Boot time, synchronous toolstack",
		Params: kernelFlags,
		Run: func(o Options) (Output, error) {
			return results(bench.Fig5BootTime(o.Config, size(o, bench.DefaultBootMems, []int{64, 512, 3072})))
		}})
	Register(Experiment{ID: "fig6", Title: "VM startup, asynchronous toolstack",
		Params: kernelFlags,
		Run: func(o Options) (Output, error) {
			return results(bench.Fig6BootAsync(o.Config))
		}})
	Register(Experiment{ID: "fig7a", Title: "Thread construction time",
		Params: kernelFlags,
		Run: func(o Options) (Output, error) {
			return results(bench.Fig7aThreads(o.Config, size(o, bench.DefaultThreadCounts, []int{1_000_000, 5_000_000})))
		}})
	Register(Experiment{ID: "fig7b", Title: "Wakeup jitter CDF",
		Params: kernelFlags,
		Run: func(o Options) (Output, error) {
			r, stats := bench.Fig7bJitter(o.Config, size(o, 1_000_000, 200_000))
			out := Output{Results: []*bench.Result{r}}
			for _, s := range stats {
				out.Extra = append(out.Extra, fmt.Sprintf(
					"note: %s p50=%v p90=%v p99=%v max=%v", s.Name, s.P50, s.P90, s.P99, s.Max))
			}
			return out, nil
		}})
	Register(Experiment{ID: "ping", Title: "ICMP flood-ping latency",
		Params: platformRunFlags,
		Run: func(o Options) (Output, error) {
			return results(bench.PingLatency(o.Config, size(o, 100_000, 5_000)))
		}})
	Register(Experiment{ID: "fig8", Title: "TCP throughput table",
		Params: kernelFlags,
		Run: func(o Options) (Output, error) {
			return results(bench.Fig8TCP(o.Config, size(o, 16<<20, 2<<20)))
		}})
	Register(Experiment{ID: "losssweep", Title: "TCP goodput under frame loss",
		Params: append([]string{"pcpus"}, kernelFlags...), // each row sets its own bridge impairment
		Run: func(o Options) (Output, error) {
			return results(bench.LossSweep(o.Config, size(o, 4<<20, 1<<20), nil))
		}})
	Register(Experiment{ID: "fig9", Title: "Sequential block read throughput",
		Params: platformRunFlags,
		Run: func(o Options) (Output, error) {
			return results(bench.Fig9BlockRead(o.Config,
				size(o, bench.DefaultBlockSizes, []int{4, 64, 1024, 4096}), size(o, 1024, 256)))
		}})
	Register(Experiment{ID: "kvsweep", Title: "Durable KV appliance vs queue depth",
		Params: append([]string{"seed", "value-bytes", "read-pct", "qd-max"}, platformRunFlags...),
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
		Params: platformRunFlags,
		Run: func(o Options) (Output, error) {
			return results(bench.Fig10DNS(o.Config,
				size(o, bench.DefaultZoneSizes, []int{100, 1000, 10000}), size(o, 50_000, 5_000)))
		}})
	Register(Experiment{ID: "fig11", Title: "OpenFlow controller throughput",
		Run: func(o Options) (Output, error) {
			return results(bench.Fig11OpenFlow(size(o, 200_000, 50_000)))
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
	// The seal, vchan and toolstack rows boot domains on unsharded platforms
	// and put no frame on a bridge: none takes sharding or impairment.
	Register(Experiment{ID: "ablations", Title: "Design-choice ablations",
		Params: kernelFlags,
		Run: func(o Options) (Output, error) {
			return results(
				bench.AblationSeal(o.Config),
				bench.AblationVchan(o.Config),
				bench.AblationDNSCompression(),
				bench.AblationToolstack(o.Config),
				bench.AblationZeroCopy(o.Config, size(o, 5000, 1000)))
		}})
	Register(Experiment{ID: "scalesweep", Title: "Autoscaled fleet vs fixed appliance",
		Params: append([]string{"seed", "replicas-min", "replicas-max", "lb-policy", "domstat"}, platformRunFlags...),
		Run: func(o Options) (Output, error) {
			r, domstat := bench.ScaleSweepDomStat(o.Config, o.Seed, o.Quick, o.ReplicasMin, o.ReplicasMax, o.LBPolicy)
			out := Output{Results: []*bench.Result{r}}
			if o.DomStat {
				out.Extra = append(out.Extra, strings.TrimRight(domstat, "\n"))
			}
			return out, nil
		}})
	Register(Experiment{ID: "connsweep", Title: "Million-connection parked population sweep",
		Params: append([]string{"seed", "memstats"}, platformRunFlags...),
		Run: func(o Options) (Output, error) {
			return results(bench.ConnSweep(o.Config, o.Seed, o.Quick, o.MemStats))
		}})
	Register(Experiment{ID: "racksweep", Title: "Multi-host rack: live migration and whole-host failure",
		Params: append([]string{"seed"}, platformRunFlags...),
		Run: func(o Options) (Output, error) {
			return results(bench.RackSweep(o.Config, o.Seed, o.Quick))
		}})
}
