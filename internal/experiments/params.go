package experiments

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/fleet"
)

// param is one declared experiment knob. The table below is the single
// declaration of every knob an experiment can honour: its flag name, help
// text, default, valid range and the Options field it binds to live here and
// nowhere else, so an experiment receives a value that has already been
// checked. Each Experiment names the knobs it reads in its Params list, so
// `-list` shows per-experiment usage and checkParams refuses the rest.
type param struct {
	name string
	bind func(fs *flag.FlagSet, o *Options)
}

// intParam declares an int knob: its default and its range lo..hi, outside
// which a value is refused when the flag is parsed.
func intParam(name, help string, def, lo, hi int, field func(o *Options) *int) param {
	return param{name, func(fs *flag.FlagSet, o *Options) {
		*field(o) = def
		fs.Var(&value[int]{field(o), intIn(lo, hi)}, name, fmt.Sprintf("%s, `n` in %d..%d", help, lo, hi))
	}}
}

func boolParam(name, help string, field func(o *Options) *bool) param {
	return param{name, func(fs *flag.FlagSet, o *Options) {
		fs.BoolVar(field(o), name, false, help)
	}}
}

// params declares every experiment knob, in the order the CLI registers
// them.
var params = []param{
	{"seed", func(fs *flag.FlagSet, o *Options) {
		fs.Int64Var(&o.Seed, "seed", 42, "seed of every platform the experiment builds")
	}},
	intParam("replicas-min", "fleet experiments: minimum fleet replicas", 1, 1, 64,
		func(o *Options) *int { return &o.ReplicasMin }),
	intParam("replicas-max", "fleet experiments: maximum fleet replicas, not below -replicas-min (0 = the sweep's size default)", 0, 0, 64,
		func(o *Options) *int { return &o.ReplicasMax }),
	{"lb-policy", func(fs *flag.FlagSet, o *Options) {
		fs.Var(&value[fleet.Policy]{&o.LBPolicy, fleet.ParsePolicy}, "lb-policy",
			"fleet experiments: balancer `policy`, round-robin, least-conns or hash")
	}},
	intParam("value-bytes", "kvsweep: record value size in bytes, at most the B-tree's value limit", 128, 1, 256,
		func(o *Options) *int { return &o.ValueBytes }),
	intParam("read-pct", "kvsweep: read share of the op mix in percent (a pure-read mix never touches the device)", 50, 0, 95,
		func(o *Options) *int { return &o.ReadPct }),
	intParam("qd-max", "kvsweep: deepest queue depth swept", 64, 1, 512,
		func(o *Options) *int { return &o.QDMax }),
	boolParam("domstat", "append the per-domain accounting table (virtual xentop)",
		func(o *Options) *bool { return &o.DomStat }),
	boolParam("memstats", "sample the process heap where reported (host-dependent numbers)",
		func(o *Options) *bool { return &o.MemStats }),
}

// The run flags, grouped for the Params lists by how they reach an
// experiment: the tracer and the registry reach every kernel it builds from
// Options.Config; sharding and bridge impairment reach only the platforms it
// builds.
var (
	kernelFlags      = []string{"trace", "metrics", "metrics-format"}
	platformRunFlags = append([]string{"pcpus", "loss", "dup", "reorder", "jitter"}, kernelFlags...)
)

// knownParam reports whether name is a declared knob or a run flag: the
// flags an experiment takes or is refused (Register rejects experiments
// naming parameters that do not exist).
func knownParam(name string) bool {
	return slices.ContainsFunc(params, func(p param) bool { return p.name == name }) ||
		slices.Contains(platformRunFlags, name)
}

// checkParams refuses a knob or run flag that fs holds at other than its
// default and that a selected experiment does not list in its Params,
// naming the experiment and the flag in one line, so a run never drops one
// without a word.
func checkParams(fs *flag.FlagSet, exps []Experiment) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil || !knownParam(f.Name) || f.Value.String() == f.DefValue {
			return
		}
		for _, e := range exps {
			if !slices.Contains(e.Params, f.Name) {
				err = fmt.Errorf("experiment %s ignores -%s (repro -list names the flags each experiment takes)", e.ID, f.Name)
				return
			}
		}
	})
	return err
}

// value is a flag.Value that parse reads and checks, so a value out of range
// is refused when the flag is parsed, in one line naming the flag.
type value[T any] struct {
	p     *T
	parse func(string) (T, error)
}

func (v *value[T]) String() string {
	if v.p == nil { // the zero Value flag.PrintDefaults probes
		return ""
	}
	return fmt.Sprint(*v.p)
}

func (v *value[T]) Set(s string) error {
	x, err := v.parse(s)
	if err == nil {
		*v.p = x
	}
	return err
}

// intIn parses an int in lo..hi (hi = math.MaxInt: at least lo).
func intIn(lo, hi int) func(string) (int, error) {
	return func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		switch {
		case err != nil:
		case n < lo && hi == math.MaxInt:
			err = fmt.Errorf("want at least %d", lo)
		case n < lo || n > hi:
			err = fmt.Errorf("want %d..%d", lo, hi)
		}
		return n, err
	}
}
