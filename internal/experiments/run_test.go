package experiments

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/netback"
)

// TestRunFlags: the run flags parse into the configuration value they name,
// and input no run can honour is refused — a value out of range when the
// flag is parsed, a -metrics-format with no dump by Config, before anything
// runs — with a message that names the flag.
func TestRunFlags(t *testing.T) {
	all := []string{"pcpus", "loss", "dup", "reorder", "jitter", "trace", "metrics", "metrics-format"}
	for _, c := range []struct {
		args string
		want core.Config // Trace/Metrics checked separately
		err  string      // substring of the refusal; "" = accepted
	}{
		{args: "", want: core.Config{PCPUs: 1}},
		{args: "-pcpus 4", want: core.Config{PCPUs: 4}},
		{args: "-loss 0.01 -dup 1 -reorder 0 -jitter 200us", want: core.Config{PCPUs: 1,
			Faults: netback.Faults{Drop: 0.01, Dup: 1, Jitter: 200 * time.Microsecond}}},
		{args: "-metrics -metrics-format prom", want: core.Config{PCPUs: 1}},
		{args: "-metrics-format text", want: core.Config{PCPUs: 1}},
		{args: "-trace t.json", want: core.Config{PCPUs: 1}},

		{args: "-pcpus 0", err: `"0" for flag -pcpus`},
		{args: "-pcpus -3", err: `"-3" for flag -pcpus`},
		{args: "-loss 1.5", err: "-loss"},
		{args: "-loss -0.1", err: "-loss"},
		{args: "-loss NaN", err: "-loss"},
		{args: "-dup 2", err: "-dup"},
		{args: "-reorder -1", err: "-reorder"},
		{args: "-jitter -1ms", err: "-jitter"},
		{args: "-metrics -metrics-format json", err: "-metrics-format"},
		{args: "-metrics-format yaml", err: "-metrics-format"}, // refused even when no dump was asked for
		{args: "-metrics-format prom", err: "-metrics-format prom without -metrics"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		r := BindRunFlags(fs, all...)
		err := fs.Parse(strings.Fields(c.args))
		var cfg core.Config
		if err == nil {
			cfg, err = r.Config()
		}
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) || strings.Contains(err.Error(), "\n") {
				t.Errorf("%q: error %v, want one line naming %q", c.args, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: refused: %v", c.args, err)
			continue
		}
		if cfg.Metrics == nil {
			t.Errorf("%q: no registry for the invocation to share", c.args)
		}
		if traced := cfg.Trace != nil && cfg.Trace.Enabled(); traced != (r.Trace != "") {
			t.Errorf("%q: tracer enabled = %v with -trace %q", c.args, traced, r.Trace)
		}
		cfg.Trace, cfg.Metrics = nil, nil
		if cfg != c.want {
			t.Errorf("%q: config %+v, want %+v", c.args, cfg, c.want)
		}
	}
}

// TestBindRunFlagsSubset: a CLI offers only the flags it names; the rest are
// unknown to its FlagSet, and a name that is not a run flag is a programming
// error.
func TestBindRunFlagsSubset(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	BindRunFlags(fs, "trace", "loss")
	if fs.Lookup("trace") == nil || fs.Lookup("loss") == nil {
		t.Error("named flags not registered")
	}
	if fs.Lookup("pcpus") != nil || fs.Lookup("metrics") != nil {
		t.Error("a flag the CLI did not name was registered")
	}
	defer func() {
		if recover() == nil {
			t.Error("binding an undeclared run flag did not panic")
		}
	}()
	BindRunFlags(flag.NewFlagSet("t", flag.ContinueOnError), "no-such-flag")
}

// invocationCase is one repro command line and what ParseInvocation must
// make of it.
type invocationCase struct {
	args []string
	ids  string // the experiments selected, in order ("all": every one)
	err  string // substring of the one-line refusal; "" = accepted
}

// checkInvocations parses each case whole, as repro does before anything
// runs: a refusal is one line naming the bad value, and an accepted line
// selects the experiments it names.
func checkInvocations(t *testing.T, cases []invocationCase) {
	t.Helper()
	for _, c := range cases {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		inv, err := ParseInvocation(fs, c.args)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) || strings.Contains(err.Error(), "\n") {
				t.Errorf("%q: error %v, want one line naming %q", c.args, err, c.err)
			}
			continue
		}
		var ids []string
		for _, e := range inv.Experiments {
			ids = append(ids, e.ID)
		}
		if err != nil || strings.Join(ids, ",") != c.ids && !(c.ids == "all" && len(ids) == len(All())) {
			t.Errorf("%q: selected %v, error %v; want %s", c.args, ids, err, c.ids)
		}
	}
}

// TestBadIdsAndKnobsRefused: an unknown id anywhere in the -experiment list
// and a knob value outside its declared range are refused when the command
// line is parsed; a value inside the range, the declared defaults, and the
// invocation's own flags pass.
func TestBadIdsAndKnobsRefused(t *testing.T) {
	f := strings.Fields
	checkInvocations(t, []invocationCase{
		{args: f("-experiment fig6"), ids: "fig6"},
		{args: []string{"-experiment", "fig6, fig5"}, ids: "fig5,fig6"}, // registration order
		{args: f("-quick -json x"), ids: "all"},
		{args: f("-list -seed 7"), ids: "all"},
		{args: f("-experiment kvsweep -quick -read-pct 0 -qd-max 1"), ids: "kvsweep"},
		{args: f("-experiment scalesweep -seed 7 -lb-policy hash"), ids: "scalesweep"},
		{args: f("-experiment scalesweep -lb-policy lc -quick -replicas-min 3"), ids: "scalesweep"},

		{args: f("-experiment fig6,nosuch"), err: `"nosuch"`},
		{args: []string{"-experiment", ""}, err: `""`},
		{args: f("-experiment scalesweep -lb-policy bogus"), err: "bogus"},
		{args: f("-experiment kvsweep -read-pct 96"), err: "-read-pct"},
		{args: f("-experiment kvsweep -value-bytes 0"), err: "-value-bytes"},
		{args: f("-experiment kvsweep -value-bytes 257"), err: "-value-bytes"},
		{args: f("-experiment kvsweep -qd-max 513"), err: "-qd-max"},
		{args: f("-experiment scalesweep -replicas-min 0"), err: "-replicas-min"},
		{args: f("-experiment scalesweep -replicas-min 3 -replicas-max 2"), err: "-replicas-max 2 is below -replicas-min 3"},
	})
}

// TestIgnoredRunFlagsRefused: a knob or run flag set, away from its default,
// for a selected experiment that does not take it is refused in one line
// naming the experiment and the flag; flags every selected experiment takes,
// and flags left at their default, pass.
func TestIgnoredRunFlagsRefused(t *testing.T) {
	f := strings.Fields
	checkInvocations(t, []invocationCase{
		{args: f("-experiment fig8 -loss 0"), ids: "fig8"},
		{args: f("-experiment fig8 -pcpus 1 -loss 0 -jitter 0s -metrics-format text"), ids: "fig8"},
		{args: f("-experiment ping,scalesweep -pcpus 4 -loss 0.01 -dup 0.01 -reorder 0.01 -jitter 200us"), ids: "ping,scalesweep"},
		{args: f("-experiment losssweep -pcpus 4 -trace t"), ids: "losssweep"},

		{args: f("-experiment fig10 -seed 7"), err: "experiment fig10 ignores -seed"},
		{args: f("-experiment fig10 -quick -seed 7 -replicas-max 3 -value-bytes 9 -domstat -memstats"), err: "experiment fig10 ignores -domstat"},
		{args: f("-experiment fig11 -trace t"), err: "experiment fig11 ignores -trace"},
		{args: f("-experiment fig11 -metrics"), err: "experiment fig11 ignores -metrics"},
		{args: f("-experiment ablations -loss 0.01"), err: "experiment ablations ignores -loss"},
		{args: f("-experiment fig8 -loss 0.01"), err: "experiment fig8 ignores -loss"},
		{args: f("-experiment losssweep -jitter 200us"), err: "experiment losssweep ignores -jitter"},
		{args: f("-experiment scalesweep,fig6 -pcpus 2"), err: "experiment fig6 ignores -pcpus"},
		{args: f("-dup 0.5"), err: "experiment fig5 ignores -dup"},
		{args: f("-experiment ablations,table2 -reorder 0.1"), err: "experiment table2 ignores -reorder"},
	})
}

// TestInvocations: a knob's declared default and range hold all the way to
// the run: -read-pct 0 parses to a 0 % mix, not the default, and the sweep
// prints it as one.
func TestInvocations(t *testing.T) {
	inv, err := ParseInvocation(flag.NewFlagSet("t", flag.ContinueOnError), strings.Fields("-experiment kvsweep -quick -read-pct 0 -qd-max 1"))
	o := inv.Options
	if err != nil || o.ReadPct != 0 || o.ValueBytes != 128 || o.QDMax != 1 || o.Seed != 42 || !o.Quick {
		t.Fatalf("kvsweep -read-pct 0: %+v, %v", o, err)
	}
	r := bench.KVSweep(o.Config, bench.KVSweepConfig{Seed: o.Seed, Quick: o.Quick, ValueBytes: o.ValueBytes, ReadPct: o.ReadPct, QDMax: o.QDMax})
	if !strings.Contains(r.Format(), "0% reads") || strings.Contains(r.Format(), "50% reads") {
		t.Errorf("kvsweep -read-pct 0 prints:\n%s", r.Format())
	}
}
