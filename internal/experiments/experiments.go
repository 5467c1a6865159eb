// Package experiments is the single registry of runnable experiments.
// cmd/repro consumes it, so an experiment (id, title, run function, option
// plumbing) is declared exactly once; the run flags and the profile pair it
// also declares are shared with cmd/mirage — the same consolidation the
// device package applies to drivers.
package experiments

import (
	"flag"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fleet"
)

// Options carries the values an experiment runs with. The knobs hold what
// their declarations (params.go) checked, defaults included, so an
// experiment uses them as they are; Params names the ones it reads.
type Options struct {
	// Config is how the run is configured (sharding, bridge impairment,
	// tracer and registry): every platform an experiment builds, and
	// fig8's bare kernel, is built from it. The zero value is the plain serial run.
	Config core.Config

	Quick bool // -quick, for the whole invocation: reduced workload sizes
	Seed  int64

	// Fleet experiments (scalesweep).
	ReplicasMin int
	ReplicasMax int // 0: the sweep's size default, raised to ReplicasMin
	LBPolicy    fleet.Policy

	// Storage experiments (kvsweep).
	ValueBytes int
	ReadPct    int
	QDMax      int

	// DomStat appends the per-domain accounting table (virtual xentop) to
	// the output of experiments that boot a platform.
	DomStat bool

	// MemStats lets experiments that sample the process heap (connsweep's
	// bytes-per-connection appendix) do so. Off by default because the
	// numbers are host-dependent: default output stays byte-comparable
	// across machines and runs.
	MemStats bool
}

// Invocation is one checked repro command line.
type Invocation struct {
	Experiments []Experiment
	Options     Options // its Config is the run's configuration
	Run         *Run    // where the run's trace and registry dump go
	Profile     *Profile
	List        bool   // -list: print the catalogue instead of running
	JSON        string // -json: file the structured results go to
}

// ParseInvocation declares repro's flags on fs, parses args into them and
// checks the command line whole before anything runs: a value out of its
// declared range, an unknown experiment id anywhere in the -experiment list,
// -replicas-max below -replicas-min, -metrics-format without -metrics, and
// a knob or run flag that a selected experiment does not take are each
// refused with a one-line message naming the flag. -experiment, -list, -json, -quick and the profile pair are the
// invocation's own and hold for every experiment.
func ParseInvocation(fs *flag.FlagSet, args []string) (inv Invocation, err error) {
	which := fs.String("experiment", "all", "comma-separated experiment ids, or 'all'")
	fs.BoolVar(&inv.List, "list", false, "list experiments and exit")
	fs.StringVar(&inv.JSON, "json", "", "write the structured results (id -> series) as JSON to this file")
	o := &inv.Options
	fs.BoolVar(&o.Quick, "quick", false, "reduced workload sizes")
	inv.Run = BindRunFlags(fs, platformRunFlags...)
	for _, p := range params {
		p.bind(fs, o)
	}
	inv.Profile = BindProfileFlags(fs)
	if err = fs.Parse(args); err != nil {
		return inv, err
	}
	if o.ReplicasMax != 0 && o.ReplicasMax < o.ReplicasMin {
		return inv, fmt.Errorf("-replicas-max %d is below -replicas-min %d", o.ReplicasMax, o.ReplicasMin)
	}
	if inv.Experiments, err = Select(*which); err != nil {
		return inv, err
	}
	if o.Config, err = inv.Run.Config(); err != nil || inv.List {
		return inv, err
	}
	return inv, checkParams(fs, inv.Experiments)
}

// Output is one experiment's product: structured results (what -json
// serialises) plus free-form extra lines printed after them.
type Output struct {
	Results []*bench.Result
	Extra   []string
}

// Text renders the output as cmd/repro prints it.
func (o Output) Text() string {
	var b strings.Builder
	for _, r := range o.Results {
		b.WriteString(r.Format())
	}
	for _, l := range o.Extra {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one registered experiment. Run must be deterministic for a
// fixed Options value. Params names the declared knobs (params.go) and the
// run flags (run.go) the experiment takes; `repro -list` prints them, so
// usage is self-describing, and repro refuses any other set to other than
// its default.
type Experiment struct {
	ID     string
	Title  string
	Params []string
	Run    func(Options) (Output, error)
}

var registry []Experiment

// Register adds an experiment at init time; duplicate ids and undeclared
// parameter names panic.
func Register(e Experiment) {
	for _, x := range registry {
		if x.ID == e.ID {
			panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
		}
	}
	for _, p := range e.Params {
		if !knownParam(p) {
			panic(fmt.Sprintf("experiments: %s names unknown param %q", e.ID, p))
		}
	}
	registry = append(registry, e)
}

// ListLine renders one experiment for a CLI listing: id, title and the
// knobs it honours.
func (e Experiment) ListLine() string {
	s := fmt.Sprintf("%-10s %s", e.ID, e.Title)
	if len(e.Params) > 0 {
		s += fmt.Sprintf("  [-%s]", strings.Join(e.Params, " -"))
	}
	return s
}

// All returns the experiments in registration order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// Select resolves a comma-separated id list ("all" is every experiment) to
// the experiments it names, in registration order. An id that names none is
// an error naming it, so a CLI refuses the list before anything runs.
func Select(list string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if id != "all" && !slices.ContainsFunc(registry, func(e Experiment) bool { return e.ID == id }) {
			return nil, fmt.Errorf("unknown experiment %q; available: %s", id, strings.Join(IDs(), " "))
		}
		want[id] = true
	}
	var out []Experiment
	for _, e := range registry {
		if want["all"] || want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// IDs returns every registered id, sorted.
func IDs() []string {
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
