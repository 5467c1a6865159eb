// Command benchmark measures what the simulator costs on the host — wall
// time, CPU, allocation, memory — and what the modelled unikernel stack
// delivers on the virtual clock, on five fixed workloads, end to end and
// layer by layer. README.md in this directory is the manual.
//
//	go run ./benchmark                       every workload, end-to-end metrics
//	go run ./benchmark -traced -layers       the per-layer metrics
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	reps     int
	seconds  int
	trace    int
	traced   bool
	layers   bool
	out      string
	compare  bool
	rep      bool
	spans    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of tcp_bulk, dns_udp, http_fleet, http_fleet_par, kv_mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the program under test sees only the inputs generated from it")
	flag.IntVar(&o.reps, "reps", 5, "timed repetitions per workload (after one warm-up)")
	flag.IntVar(&o.seconds, "seconds", 0, "size the run in nominal seconds instead: reps = seconds / 2.5, work still fixed by op count")
	flag.IntVar(&o.trace, "trace", 0, "1 = -traced -layers: the last line of output then holds the per-layer metrics")
	flag.BoolVar(&o.traced, "traced", false, "the separate traced run: spans, registry delta and CPU profile per workload")
	flag.BoolVar(&o.layers, "layers", false, "run the per-layer microbenchmarks")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the JSON records and span files")
	flag.BoolVar(&o.compare, "compare", false, "compare two records: -compare a.json b.json")
	flag.BoolVar(&o.rep, "rep", false, "internal: run one repetition of -workload in this process and print it as JSON")
	flag.StringVar(&o.spans, "spans", "", "internal, with -rep: where a traced repetition writes its spans")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files or directories of records")
		}
		return compareRecords(args[0], args[1])
	}
	var selected []*workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.rep {
		if len(selected) != 1 {
			return fmt.Errorf("-rep needs one -workload")
		}
		r, err := runRep(selected[0], o.seed, 1, o.traced, o.spans)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(r)
	}
	reps := o.reps
	if o.seconds > 0 {
		reps = int(math.Round(float64(o.seconds) / repNominalSeconds))
	}
	if reps < 1 {
		reps = 1
	}
	traced, layers, out := o.traced || o.trace == 1, o.layers || o.trace == 1, o.out
	cfg := runConfig{seed: o.seed, reps: reps, div: 1, out: out, rep: childRep}

	// The contract's result line: one workload, end-to-end metrics after an
	// untraced run, per-layer metrics after a traced one.
	result := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricJSON{}}

	var micro map[string]float64
	if layers {
		micro = runMicro(1000, 500*time.Millisecond)
		if !traced {
			printLayers("microbenchmarks (source M only)", micro)
			return writeJSON(out, "micro.layers.json", micro)
		}
	}
	var records []*record
	for _, w := range selected {
		if traced {
			tr, err := runTraced(w, cfg)
			if err != nil {
				return err
			}
			for k, v := range micro {
				tr.layers[k] = v
			}
			printLayers(w.name, tr.layers)
			if err := writeJSON(out, w.name+".layers.json", tr.layers); err != nil {
				return err
			}
			if share := tr.layers["loadgen.cpu_share"]; share > 0.15 {
				fmt.Printf("  WARNING: loadgen.cpu_share %.3f > 0.15: %s is measuring the harness\n", share, w.name)
			}
			result.Attempted += tr.attempted
			for _, m := range layerMetrics {
				result.Metrics[m.name] = metricJSON{tr.layers[m.name], m.unit}
			}
			continue
		}
		rec, err := runUntraced(w, cfg)
		if err != nil {
			return err
		}
		printRecord(rec)
		if err := writeJSON(out, w.name+".json", rec); err != nil {
			return err
		}
		records = append(records, rec)
		result.Attempted += rec.Attempted
		result.Failed += rec.Failed
		// A serial workload's virtual results must not depend on the repetition.
		if rec.Failed > 0 || (w.shards == 0 && !rec.SameDigest) {
			result.Correct = false
		}
		for _, m := range e2eMetrics {
			result.Metrics[m.name] = metricJSON{rec.Metrics[m.name].Median, m.unit}
		}
	}
	if len(records) > 1 {
		if err := writeJSON(out, "run.json", records); err != nil {
			return err
		}
	}
	if len(selected) == 1 {
		b, err := json.Marshal(result)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if !result.Correct {
		return fmt.Errorf("%d of %d ops failed, or a serial workload's repetitions differ in their virtual results", result.Failed, result.Attempted)
	}
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
