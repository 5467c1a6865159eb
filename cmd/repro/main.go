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
//	repro -experiment ping -loss 0.01 -jitter 500us   # impair every virtual bridge (-list: who takes it)
//	repro -experiment scalesweep -replicas-max 4 -lb-policy least-conns
//	repro -experiment scalesweep -json BENCH_scalesweep.json
//	repro -experiment scalesweep -domstat   # per-domain accounting (virtual xentop)
//	repro -experiment fig10 -metrics -metrics-format prom   # Prometheus exposition
//	repro -experiment fig8 -cpuprofile cpu.pb -memprofile mem.pb   # pprof profiles of the simulator
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	// Every flag (-experiment, -quick, the run flags, each experiment knob,
	// the profile pair) is declared in internal/experiments, which also
	// checks the command line whole: a bad invocation is refused with one
	// line and status 2 before anything runs.
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a refusal is one line, not the flag list
	inv, err := experiments.ParseInvocation(fs, os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(2)
	}
	if inv.List {
		for _, e := range experiments.All() {
			fmt.Println(e.ListLine())
		}
		return
	}

	// One configuration for the whole invocation: every platform and kernel
	// the experiments build shares its tracer and registry, so one trace file
	// and one dump cover the run end to end, and its impairment applies to
	// every bridge. Some experiments (e.g. ping) assert loss-free completion
	// and abort under aggressive impairment — that is the point.
	opts, run, cfg := inv.Options, inv.Run, inv.Options.Config
	stopProfile, err := inv.Profile.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}

	structured := map[string]any{}
	for _, e := range inv.Experiments {
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

	if inv.JSON != "" {
		data, err := json.MarshalIndent(structured, "", "  ")
		if err == nil {
			err = os.WriteFile(inv.JSON, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "results written to %s\n", inv.JSON)
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
