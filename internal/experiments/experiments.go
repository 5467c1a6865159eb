// Package experiments is the single registry of runnable experiments.
// cmd/repro consumes it, so an experiment (id, title, run function, option
// plumbing) is declared exactly once; the run flags and the profile pair it
// also declares are shared with cmd/mirage — the same consolidation the
// device package applies to drivers.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
)

// Options carries the CLI knobs an experiment may honour. Zero values mean
// "use the experiment's default", so cmd/repro can pass its flag set
// straight through.
type Options struct {
	// Config is how the run is configured (sharding, bridge impairment,
	// tracer and registry): every platform and bare kernel an experiment
	// builds is built from it. The zero value is the plain serial run.
	Config core.Config

	Quick bool
	Seed  int64

	// Fleet experiments (scalesweep).
	ReplicasMin int
	ReplicasMax int
	LBPolicy    string // round-robin | least-conns | hash (also rr | lc | h)

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
// fixed Options value. Params names the declared knobs (see params.go)
// the experiment honours beyond ignoring them, and the platform run flags
// (run.go) it takes — `repro -list` prints them, so usage is
// self-describing.
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
