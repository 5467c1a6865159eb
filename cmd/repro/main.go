// Command repro runs the paper's experiments and prints each table and
// figure in text form. The experiment catalogue lives in
// internal/experiments and is shared with `mirage experiment`.
//
// Usage:
//
//	repro -experiment all            # everything (default)
//	repro -experiment fig10          # one experiment
//	repro -experiment fig5,fig6      # several
//	repro -quick                     # reduced workload sizes
//	repro -list                      # show available experiments
//	repro -experiment fig10 -trace t.json   # Chrome trace of the run
//	repro -experiment fig10 -metrics        # dump the metrics registry
//	repro -experiment losssweep             # TCP goodput under frame loss
//	repro -loss 0.01 -jitter 500us ...      # impair every virtual bridge
//	repro -experiment scalesweep -replicas-max 4 -lb-policy least-conns
//	repro -experiment scalesweep -json BENCH_scalesweep.json
//	repro -experiment scalesweep -domstat   # per-domain accounting (virtual xentop)
//	repro -experiment fig10 -metrics -metrics-format prom   # Prometheus exposition
//	repro -experiment fig8 -cpuprofile cpu.pb -memprofile mem.pb   # pprof profiles of the simulator
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netback"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	which := flag.String("experiment", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	metrics := flag.Bool("metrics", false, "print the full metrics registry after the run")
	metricsFormat := flag.String("metrics-format", "text", "registry dump format: text or prom (Prometheus exposition)")
	jsonOut := flag.String("json", "", "write the structured results (id -> series) as JSON to this file")
	loss := flag.Float64("loss", 0, "bridge frame drop probability [0,1] for every platform run")
	dup := flag.Float64("dup", 0, "bridge frame duplication probability [0,1]")
	reorder := flag.Float64("reorder", 0, "bridge frame reorder probability [0,1]")
	jitter := flag.Duration("jitter", 0, "max extra per-frame delivery delay (e.g. 500us)")
	pcpus := flag.Int("pcpus", 1, "shard the event queue across this many per-pCPU kernels (1 = classic single kernel)")
	parallel := flag.Bool("parallel", false, "drive the pCPU shards on OS threads (requires -pcpus > 1); output is byte-identical to the single-threaded run")
	// Every experiment knob (-quick, -seed, -replicas-min, ...) comes from
	// the registry's parameter declarations; nothing is hand-registered here.
	expOpts := experiments.BindFlags(flag.CommandLine)
	profile := experiments.BindProfileFlags(flag.CommandLine)
	flag.Parse()

	if *parallel && *pcpus <= 1 {
		fmt.Fprintln(os.Stderr, "repro: -parallel requires -pcpus > 1")
		os.Exit(2)
	}
	if *pcpus > 1 {
		core.SetDefaultSharding(*pcpus, *parallel)
	}

	if *loss > 0 || *dup > 0 || *reorder > 0 || *jitter > 0 {
		// Applies to every bridge the experiments create. Note some
		// experiments (e.g. ping) assert loss-free completion and will
		// abort under aggressive impairment — that is the point.
		netback.SetDefaultFaults(netback.Faults{
			Drop: *loss, Dup: *dup, Reorder: *reorder, Jitter: *jitter,
		})
	}

	var tracer *obs.Tracer
	registry := obs.NewRegistry()
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.DefaultCap)
		tracer.Enable()
	}
	// Every kernel the experiments create shares this tracer/registry, so
	// one trace file covers the whole invocation end to end.
	sim.SetDefaultObs(tracer, registry)

	exps := experiments.All()
	if *list {
		for _, e := range exps {
			fmt.Println(e.ListLine())
		}
		return
	}

	opts := expOpts()
	stopProfile, err := profile.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*which, ",") {
		want[strings.TrimSpace(id)] = true
	}
	structured := map[string]any{}
	ran := 0
	for _, e := range exps {
		if !want["all"] && !want[e.ID] {
			continue
		}
		start := time.Now()
		out, err := e.Run(opts)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		// Wall clock goes to stderr so stdout stays byte-comparable
		// between serial and parallel runs.
		fmt.Fprintf(os.Stderr, "repro: %s: wall %s (pcpus=%d parallel=%v)\n",
			e.ID, elapsed.Round(time.Millisecond), *pcpus, *parallel)
		fmt.Print(out.Text())
		fmt.Println()
		if len(out.Results) > 0 {
			structured[e.ID] = out.Results
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n",
			*which, strings.Join(experiments.IDs(), " "))
		os.Exit(2)
	}
	if err := stopProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(structured, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "results written to %s\n", *jsonOut)
	}
	if *metrics {
		switch *metricsFormat {
		case "prom":
			fmt.Print(registry.Snapshot().Prom())
		case "text", "":
			fmt.Println("== metrics registry ==")
			fmt.Print(registry.Snapshot().Format())
		default:
			fmt.Fprintf(os.Stderr, "repro: unknown -metrics-format %q (text or prom)\n", *metricsFormat)
			os.Exit(2)
		}
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.WriteJSON(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events written to %s (%d dropped at cap)\n",
			tracer.Len(), *traceOut, tracer.Dropped())
	}
}
