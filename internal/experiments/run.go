package experiments

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Run holds the run flags: how the simulation is driven, what the host
// bridges do to frames, and where the run's trace and metrics go — the
// settings a core.Config carries. Like the experiment knobs and the profile
// pair they are declared here once, each with its range. A CLI binds the
// ones it offers by name (BindRunFlags) and, after parsing, turns them into
// the configuration value with Config.
type Run struct {
	cfg           core.Config // -pcpus -loss -dup -reorder -jitter parse straight into it
	Trace         string      // -trace: file the Chrome trace-event JSON of the run goes to
	Metrics       bool        // -metrics: dump the whole registry after the run
	MetricsFormat string      // -metrics-format: text or prom
}

// BindRunFlags registers the named run flags on fs — a CLI offers the subset
// that means something for what it runs — and returns where they parse to.
// A value out of its range is refused when the flag is parsed. A name that
// is not a run flag panics.
func BindRunFlags(fs *flag.FlagSet, names ...string) *Run {
	r := &Run{cfg: core.Config{PCPUs: 1}, MetricsFormat: "text"}
	for _, n := range names {
		switch n {
		case "trace":
			fs.StringVar(&r.Trace, n, "", "write a Chrome trace-event JSON of the run to this file")
		case "metrics":
			fs.BoolVar(&r.Metrics, n, false, "print the full metrics registry after the run")
		case "metrics-format":
			fs.Var(&value[string]{&r.MetricsFormat, metricsFormat}, n, "registry dump `format` with -metrics: text or prom (Prometheus exposition)")
		case "loss":
			fs.Var(&value[float64]{&r.cfg.Faults.Drop, probability}, n, "bridge frame drop `probability` [0,1] on every host bridge of the run")
		case "dup":
			fs.Var(&value[float64]{&r.cfg.Faults.Dup, probability}, n, "bridge frame duplication `probability` [0,1]")
		case "reorder":
			fs.Var(&value[float64]{&r.cfg.Faults.Reorder, probability}, n, "bridge frame reorder `probability` [0,1]")
		case "jitter":
			fs.Var(&value[time.Duration]{&r.cfg.Faults.Jitter, delay}, n, "max extra per-frame delivery `delay` (e.g. 500us)")
		case "pcpus":
			fs.Var(&value[int]{&r.cfg.PCPUs, intIn(1, math.MaxInt)}, n, "shard the event queue across `n` per-pCPU kernels (1 = classic single kernel)")
		default:
			panic(fmt.Sprintf("experiments: unknown run flag %q", n))
		}
	}
	return r
}

func probability(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err == nil && !(p >= 0 && p <= 1) { // also catches NaN
		err = errors.New("a probability must be in [0,1]")
	}
	return p, err
}

func delay(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = errors.New("a delay must not be negative")
	}
	return d, err
}

func metricsFormat(s string) (string, error) {
	if s != "text" && s != "prom" {
		return s, errors.New("want text or prom")
	}
	return s, nil
}

// Config completes the run's configuration from the parsed flags: the
// sharding and impairment as given, one registry for every platform of the
// invocation, and an enabled tracer when -trace names a file. A
// -metrics-format without -metrics is refused: there is no dump to format.
// The error is a one-line usage message; a CLI prints it and exits with
// status 2.
func (r *Run) Config() (core.Config, error) {
	if r.MetricsFormat != "text" && !r.Metrics {
		return core.Config{}, fmt.Errorf("-metrics-format %s without -metrics: there is no dump to format", r.MetricsFormat)
	}
	cfg := r.cfg
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
