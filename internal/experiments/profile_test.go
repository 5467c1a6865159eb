package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlags: the pair both CLIs bind writes two non-empty pprof
// files, and asks for nothing when neither flag is given.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := BindProfileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: not written (%v)", f, err)
		}
	}

	stop, err = (&Profile{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Profile{CPU: filepath.Join(dir, "missing", "cpu.pb")}).Start(); err == nil {
		t.Error("Start with an unwritable -cpuprofile path succeeded")
	}
}
