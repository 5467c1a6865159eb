package experiments

import (
	"flag"
	"slices"

	"repro/internal/fleet"
)

// Param is one declared experiment knob. The table below is the single
// declaration of every knob an experiment can honour: its flag name, its
// help text and the Options field it binds to live here and nowhere else.
// cmd/repro derives its experiment flags from it (BindFlags), and each
// Experiment names the knobs it reads in its Params list, so `-list` can
// show per-experiment usage without the CLI hard-coding a flag.
type Param struct {
	Name string // flag name, e.g. "replicas-min"
	bind func(fs *flag.FlagSet, o *Options)
}

func boolParam(name, help string, field func(o *Options) *bool) Param {
	return Param{name, func(fs *flag.FlagSet, o *Options) {
		fs.BoolVar(field(o), name, *field(o), help)
	}}
}

func intParam(name, help string, field func(o *Options) *int) Param {
	return Param{name, func(fs *flag.FlagSet, o *Options) {
		fs.IntVar(field(o), name, *field(o), help)
	}}
}

func int64Param(name, help string, field func(o *Options) *int64) Param {
	return Param{name, func(fs *flag.FlagSet, o *Options) {
		fs.Int64Var(field(o), name, *field(o), help)
	}}
}

func stringParam(name, help string, field func(o *Options) *string) Param {
	return Param{name, func(fs *flag.FlagSet, o *Options) {
		fs.StringVar(field(o), name, *field(o), help)
	}}
}

// params declares every experiment knob, in the order the CLI registers
// them. Zero values mean "use the experiment's default".
var params = []Param{
	boolParam("quick", "reduced workload sizes",
		func(o *Options) *bool { return &o.Quick }),
	int64Param("seed", "override the experiment's default seed (0 = default)",
		func(o *Options) *int64 { return &o.Seed }),
	intParam("replicas-min", "fleet experiments: minimum fleet replicas (0 = default)",
		func(o *Options) *int { return &o.ReplicasMin }),
	intParam("replicas-max", "fleet experiments: maximum fleet replicas (0 = default)",
		func(o *Options) *int { return &o.ReplicasMax }),
	stringParam("lb-policy", "fleet experiments: round-robin, least-conns or hash",
		func(o *Options) *string { return &o.LBPolicy }),
	intParam("value-bytes", "kvsweep: record value size in bytes (0 = default 128, max 256)",
		func(o *Options) *int { return &o.ValueBytes }),
	intParam("read-pct", "kvsweep: read share of the op mix in percent (0 = default 50, max 95)",
		func(o *Options) *int { return &o.ReadPct }),
	intParam("qd-max", "kvsweep: deepest queue depth swept (0 = default 64)",
		func(o *Options) *int { return &o.QDMax }),
	boolParam("domstat", "append the per-domain accounting table (virtual xentop)",
		func(o *Options) *bool { return &o.DomStat }),
	boolParam("memstats", "sample the process heap where reported (host-dependent numbers)",
		func(o *Options) *bool { return &o.MemStats }),
}

// knownParam reports whether name is a declared knob or a platform run
// flag (Register uses it to reject experiments naming parameters that do not
// exist).
func knownParam(name string) bool {
	for _, p := range params {
		if p.Name == name {
			return true
		}
	}
	return slices.Contains(platformFlags, name)
}

// BindFlags registers every declared parameter on fs and returns the
// function that collects the parsed values into an Options, refusing a value
// no experiment can honour with a one-line message that names it. Call it
// once per FlagSet, before fs.Parse; call the returned closure after.
func BindFlags(fs *flag.FlagSet) func() (Options, error) {
	o := &Options{}
	for _, p := range params {
		p.bind(fs, o)
	}
	return func() (Options, error) {
		if o.LBPolicy != "" {
			if _, err := fleet.ParsePolicy(o.LBPolicy); err != nil {
				return Options{}, err
			}
		}
		return *o, nil
	}
}
