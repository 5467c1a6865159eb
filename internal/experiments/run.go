package experiments

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
)

// Run holds the run flags: how the simulation is driven, what the host
// bridges do to frames, and where the run's trace and metrics go — the
// settings a core.Config carries. Like the experiment knobs and the profile
// pair they are declared here once. A CLI binds the ones it offers by name
// (BindRunFlags) and, after parsing, turns them into the configuration value
// with Config, which refuses bad input before anything has run.
type Run struct {
	cfg           core.Config // -pcpus -loss -dup -reorder -jitter parse straight into it
	Trace         string      // -trace: file the Chrome trace-event JSON of the run goes to
	Metrics       bool        // -metrics: dump the whole registry after the run
	MetricsFormat string      // -metrics-format: text (also "") or prom
}

// BindRunFlags registers the named run flags on fs — a CLI offers the subset
// that means something for what it runs — and returns where they parse to.
// A name that is not a run flag panics.
func BindRunFlags(fs *flag.FlagSet, names ...string) *Run {
	r := &Run{cfg: core.Config{PCPUs: 1}}
	for _, n := range names {
		switch n {
		case "trace":
			fs.StringVar(&r.Trace, n, "", "write a Chrome trace-event JSON of the run to this file")
		case "metrics":
			fs.BoolVar(&r.Metrics, n, false, "print the full metrics registry after the run")
		case "metrics-format":
			fs.StringVar(&r.MetricsFormat, n, "text", "registry dump format: text or prom (Prometheus exposition)")
		case "loss":
			fs.Float64Var(&r.cfg.Faults.Drop, n, 0, "bridge frame drop probability [0,1] on every host bridge of the run")
		case "dup":
			fs.Float64Var(&r.cfg.Faults.Dup, n, 0, "bridge frame duplication probability [0,1]")
		case "reorder":
			fs.Float64Var(&r.cfg.Faults.Reorder, n, 0, "bridge frame reorder probability [0,1]")
		case "jitter":
			fs.DurationVar(&r.cfg.Faults.Jitter, n, 0, "max extra per-frame delivery delay (e.g. 500us)")
		case "pcpus":
			fs.IntVar(&r.cfg.PCPUs, n, r.cfg.PCPUs, "shard the event queue across this many per-pCPU kernels (1 = classic single kernel)")
		default:
			panic(fmt.Sprintf("experiments: unknown run flag %q", n))
		}
	}
	return r
}

// platformFlags are the run flags that reach an experiment only through
// the platforms it builds from Options.Config. An experiment names the ones
// it honours in its Params; CheckRunFlags refuses the rest.
var platformFlags = []string{"pcpus", "loss", "dup", "reorder", "jitter"}

// sets reports whether cfg sets the platform run flag name.
func sets(cfg core.Config, name string) bool {
	switch name {
	case "pcpus":
		return cfg.PCPUs > 1
	case "loss":
		return cfg.Faults.Drop != 0
	case "dup":
		return cfg.Faults.Dup != 0
	case "reorder":
		return cfg.Faults.Reorder != 0
	default: // "jitter"
		return cfg.Faults.Jitter != 0
	}
}

// CheckRunFlags refuses a platform run flag cfg sets that a selected
// experiment ignores, naming the experiment and the flag in one line, so a
// run never drops one without a word.
func CheckRunFlags(exps []Experiment, cfg core.Config) error {
	for _, e := range exps {
		for _, f := range platformFlags {
			if sets(cfg, f) && !slices.Contains(e.Params, f) {
				return fmt.Errorf("experiment %s ignores -%s (repro -list names the run flags each experiment takes)", e.ID, f)
			}
		}
	}
	return nil
}

// Config checks the parsed flags and completes the run's configuration: the
// sharding and impairment as given, one registry for every platform of the
// invocation, and an enabled tracer when -trace names a file. The error is a
// one-line usage message; a CLI prints it and exits with status 2.
func (r *Run) Config() (core.Config, error) {
	cfg := r.cfg
	if cfg.PCPUs < 1 {
		return core.Config{}, fmt.Errorf("-pcpus %d: a run needs at least one pCPU", cfg.PCPUs)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"loss", cfg.Faults.Drop}, {"dup", cfg.Faults.Dup}, {"reorder", cfg.Faults.Reorder}} {
		if !(p.v >= 0 && p.v <= 1) { // also catches NaN
			return core.Config{}, fmt.Errorf("-%s %v: a probability must be in [0,1]", p.name, p.v)
		}
	}
	if cfg.Faults.Jitter < 0 {
		return core.Config{}, fmt.Errorf("-jitter %v: a delay must not be negative", cfg.Faults.Jitter)
	}
	switch r.MetricsFormat {
	case "", "text", "prom":
	default:
		return core.Config{}, fmt.Errorf("unknown -metrics-format %q (text or prom)", r.MetricsFormat)
	}
	cfg.Metrics = obs.NewRegistry()
	if r.Trace != "" {
		cfg.Trace = obs.NewTracer(obs.DefaultCap)
		cfg.Trace.Enable()
	}
	return cfg, nil
}

// WriteTrace writes what t recorded to the -trace file.
func (r *Run) WriteTrace(t *obs.Tracer) error {
	f, err := os.Create(r.Trace)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
