package experiments

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netback"
)

// TestRunFlags: the run flags parse into the configuration value they name,
// and input no run can honour is refused — by Config, before anything runs —
// with a message that names the flag.
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

		{args: "-loss 1.5", err: "-loss"},
		{args: "-loss -0.1", err: "-loss"},
		{args: "-loss NaN", err: "-loss"},
		{args: "-dup 2", err: "-dup"},
		{args: "-reorder -1", err: "-reorder"},
		{args: "-jitter -1ms", err: "-jitter"},
		{args: "-metrics -metrics-format json", err: "-metrics-format"},
		{args: "-metrics-format yaml", err: "-metrics-format"}, // refused even when no dump was asked for
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		r := BindRunFlags(fs, all...)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Errorf("%q: parse: %v", c.args, err)
			continue
		}
		cfg, err := r.Config()
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
