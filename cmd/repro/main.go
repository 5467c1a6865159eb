// Command repro runs the paper's experiments and prints each table and
// figure in text form. The experiment catalogue lives in
// internal/experiments.
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
	"time"

	"repro/internal/experiments"
)

func main() {
	which := flag.String("experiment", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.String("json", "", "write the structured results (id -> series) as JSON to this file")
	// Every experiment knob (-quick, -seed, -replicas-min, ...) comes from
	// the registry's parameter declarations, and the run flags and the
	// profile pair from theirs; nothing is hand-registered here.
	run := experiments.BindRunFlags(flag.CommandLine, "pcpus",
		"loss", "dup", "reorder", "jitter", "trace", "metrics", "metrics-format")
	expOpts := experiments.BindFlags(flag.CommandLine)
	profile := experiments.BindProfileFlags(flag.CommandLine)
	flag.Parse()

	// A bad invocation is refused with status 2 before anything runs.
	usage := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(2)
		}
	}
	// One configuration for the whole invocation: every platform and kernel
	// the experiments build shares its tracer and registry, so one trace file
	// and one dump cover the run end to end, and its impairment applies to
	// every bridge. Some experiments (e.g. ping) assert loss-free completion
	// and abort under aggressive impairment — that is the point.
	cfg, err := run.Config()
	usage(err)
	exps, err := experiments.Select(*which)
	usage(err)
	opts, err := expOpts()
	usage(err)

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ListLine())
		}
		return
	}

	opts.Config = cfg
	stopProfile, err := profile.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}

	structured := map[string]any{}
	for _, e := range exps {
		start := time.Now()
		out, err := e.Run(opts)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		// Wall clock goes to stderr so stdout stays byte-comparable
		// between runs.
		fmt.Fprintf(os.Stderr, "repro: %s: wall %s (pcpus=%d)\n",
			e.ID, elapsed.Round(time.Millisecond), cfg.PCPUs)
		fmt.Print(out.Text())
		fmt.Println()
		if len(out.Results) > 0 {
			structured[e.ID] = out.Results
		}
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
	if run.Metrics {
		if run.MetricsFormat == "prom" {
			fmt.Print(cfg.Metrics.Snapshot().Prom())
		} else {
			fmt.Println("== metrics registry ==")
			fmt.Print(cfg.Metrics.Snapshot().Format())
		}
	}
	if cfg.Trace != nil {
		if err := run.WriteTrace(cfg.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events written to %s (%d dropped at cap)\n",
			cfg.Trace.Len(), run.Trace, cfg.Trace.Dropped())
	}
}
