package experiments

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile holds the host-profiling flags every CLI that runs a simulation
// offers. Like the experiment knobs they are declared here once: a CLI calls
// BindProfileFlags on its FlagSet, Start after parsing and the returned stop
// function when the run is over. The profiles measure the simulator process
// (wall-clock CPU, Go allocations), never virtual time, so they change no
// output.
type Profile struct {
	CPU string // -cpuprofile: pprof CPU profile of the run
	Mem string // -memprofile: pprof allocation profile written at the end
}

// BindProfileFlags registers -cpuprofile and -memprofile on fs.
func BindProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof allocation profile (go tool pprof -sample_index=alloc_space) to this file at exit")
	return p
}

// Start begins the CPU profile when one was asked for. The returned function
// stops it and writes the allocation profile; call it once, after the run.
func (p *Profile) Start() (stop func() error, err error) {
	var cpu *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if p.Mem == "" {
			return nil
		}
		f, err := os.Create(p.Mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // flush the allocation records of the last cycle
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
