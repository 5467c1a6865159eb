// Command mirage is the unikernel toolchain CLI: build appliance images,
// inspect their module graphs and dead-code elimination, and boot them on
// a simulated host.
//
// Usage:
//
//	mirage build  [-appliance dns|web|openflow-switch|openflow-controller] [-no-dce] [-seed N]
//	mirage graph  [-appliance ...]     # dependency closure with sizes
//	mirage boot   [-appliance ...]     # build + boot on a simulated host
//	mirage boot   -trace boot.json     # also write a Chrome trace of the boot
//	mirage boot   -loss 0.01           # impair the host bridge (also -dup, -reorder, -jitter)
//	mirage boot   -cpuprofile cpu.pb -memprofile mem.pb   # pprof profiles of the simulator
//	mirage list                        # module registry (Table 1)
//	mirage top    [-appliance ...]     # boot + per-domain accounting table (virtual xentop)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hypervisor"
)

func applianceConfig(name string) (build.Config, error) {
	switch name {
	case "dns":
		return build.DNSAppliance([]byte("$ORIGIN example.org.\n@ IN NS ns0\nns0 IN A 10.0.0.53\n")), nil
	case "web":
		return build.WebAppliance(), nil
	case "openflow-switch":
		return build.OFSwitchAppliance(), nil
	case "openflow-controller":
		return build.OFControllerAppliance(), nil
	default:
		return build.Config{}, fmt.Errorf("unknown appliance %q", name)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	appliance := fs.String("appliance", "dns", "appliance configuration")
	noDCE := fs.Bool("no-dce", false, "disable dead-code elimination")
	seed := fs.Int64("seed", 42, "address-space randomisation seed")
	// boot: the run flags that mean something for one appliance on one host,
	// and the profile pair cmd/repro offers.
	run := experiments.BindRunFlags(fs, "trace", "loss", "dup", "reorder", "jitter")
	profile := experiments.BindProfileFlags(fs)
	fs.Parse(os.Args[2:])
	rc, err := run.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirage:", err)
		os.Exit(2)
	}

	switch cmd {
	case "list":
		listModules()
		return
	}

	cfg, err := applianceConfig(*appliance)
	if err != nil {
		fatal(err)
	}
	opts := build.Options{DeadCodeElim: !*noDCE, ASRSeed: *seed}

	switch cmd {
	case "build":
		img, err := build.Build(cfg, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("appliance:  %s\n", img.Name)
		fmt.Printf("image size: %d KB (data %d KB), dead-code elimination: %v\n", img.SizeKB, img.DataKB, !*noDCE)
		fmt.Printf("active LoC: %d\n", img.LoC)
		fmt.Printf("entry:      %#x (ASR seed %d)\n", img.Entry, *seed)
		fmt.Println("sections (randomised layout):")
		secs := append([]build.Section(nil), img.Sections...)
		sort.Slice(secs, func(i, j int) bool { return secs[i].Base < secs[j].Base })
		for _, s := range secs {
			fmt.Printf("  %#010x  %6d KB  %s\n", s.Base, s.Size/1024, s.Name)
		}

	case "graph":
		img, err := build.Build(cfg, opts)
		if err != nil {
			fatal(err)
		}
		reg := build.Registry()
		fmt.Printf("%s: %d modules linked (of %d in the registry)\n", img.Name, len(img.Modules), len(reg))
		for _, m := range img.Modules {
			mod := reg[m]
			fmt.Printf("  %-22s %-12s deps=%v\n", m, mod.Subsystem, mod.Deps)
		}

	case "boot":
		stopProfile, err := profile.Start()
		if err != nil {
			fatal(err)
		}
		pl := rc.NewPlatform(*seed)
		dep := pl.Deploy(core.Unikernel{
			Build: cfg,
			Main: func(env *core.Env) int {
				env.Console(fmt.Sprintf("booted %s (%d KB image, sealed=%v)",
					env.Image.Name, env.Image.SizeKB, env.VM.Dom.PT.Sealed()))
				env.VM.Dom.SignalReady()
				return env.VM.Main(env.P, env.VM.S.Sleep(100*time.Millisecond))
			},
		}, core.DeployOpts{BuildOpts: &opts})
		if _, err := pl.Run(); err != nil {
			fatal(err)
		}
		if err := pl.Check(); err != nil {
			fatal(err)
		}
		if err := stopProfile(); err != nil {
			fatal(err)
		}
		d := dep.Domain
		fmt.Printf("booted %s: exit=%d boot-to-ready=%v\n", dep.Name, d.ExitCode, d.BootTime())
		for _, line := range d.ConsoleLines() {
			fmt.Println("console:", line)
		}
		if rc.Trace != nil {
			if err := run.WriteTrace(rc.Trace); err != nil {
				fatal(err)
			}
			fmt.Printf("trace: %d events written to %s\n", rc.Trace.Len(), run.Trace)
		}

	case "top":
		// Virtual xentop: boot the appliance, let it run briefly, and print
		// the hypervisor's per-domain accounting table.
		pl := rc.NewPlatform(*seed)
		pl.Deploy(core.Unikernel{
			Build: cfg,
			Main: func(env *core.Env) int {
				env.VM.Dom.SignalReady()
				return env.VM.Main(env.P, env.VM.S.Sleep(100*time.Millisecond))
			},
		}, core.DeployOpts{BuildOpts: &opts})
		if _, err := pl.Run(); err != nil {
			fatal(err)
		}
		if err := pl.Check(); err != nil {
			fatal(err)
		}
		fmt.Print(hypervisor.FormatDomStats(pl.Host.DomStats()))

	default:
		usage()
	}
}

func listModules() {
	reg := build.Registry()
	var names []string
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-22s %-12s %8s %8s %8s\n", "MODULE", "SUBSYSTEM", "FULL KB", "MIN KB", "LOC")
	for _, n := range names {
		m := reg[n]
		fmt.Printf("%-22s %-12s %8d %8d %8d\n", m.Name, m.Subsystem, m.FullKB, m.MinKB, m.LoC)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mirage {build|graph|boot|top|list} [-appliance name] [-no-dce] [-seed N]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mirage:", err)
	os.Exit(1)
}
