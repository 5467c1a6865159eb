package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/hypervisor"
	"repro/internal/ring"
	"repro/internal/sim"
)

// appliances are the four Table 2 / Figure 14 build configurations.
func appliances() []build.Config {
	return []build.Config{
		build.DNSAppliance(nil),
		build.WebAppliance(),
		build.OFSwitchAppliance(),
		build.OFControllerAppliance(),
	}
}

// Table2Sizes regenerates Table 2: unikernel image sizes with the standard
// build and with function-level dead-code elimination.
func Table2Sizes() *Result {
	r := &Result{
		ID:     "table2",
		Title:  "Unikernel image sizes (KB), standard vs dead-code elimination",
		XLabel: "appliance (0=dns 1=web 2=of-switch 3=of-controller)",
		YLabel: "KB",
		Notes: []string{
			"paper (MB): DNS 0.449/0.184, Web 0.673/0.172, OF-switch 0.393/0.164, OF-controller 0.392/0.168",
		},
	}
	std := Series{Name: "standard"}
	dce := Series{Name: "dead-code-eliminated"}
	for i, cfg := range appliances() {
		a, err := build.Build(cfg, build.Options{DeadCodeElim: false})
		if err != nil {
			panic(err)
		}
		b, err := build.Build(cfg, build.Options{DeadCodeElim: true})
		if err != nil {
			panic(err)
		}
		std.X = append(std.X, float64(i))
		std.Y = append(std.Y, float64(a.SizeKB))
		dce.X = append(dce.X, float64(i))
		dce.Y = append(dce.Y, float64(b.SizeKB))
	}
	r.Series = append(r.Series, std, dce)
	return r
}

// Fig14LoC regenerates Figure 14a: active lines of code for each appliance,
// Mirage vs the conventional Linux equivalent.
func Fig14LoC() *Result {
	r := &Result{
		ID:     "fig14",
		Title:  "Appliance active lines of code",
		XLabel: "appliance (0=dns 1=web 2=of-switch 3=of-controller)",
		YLabel: "kLoC",
		Notes:  []string{"paper: a Linux appliance involves at least 4-5x more active LoC than Mirage"},
	}
	mirage := Series{Name: "mirage"}
	linux := Series{Name: "linux"}
	for i, cfg := range appliances() {
		img, err := build.Build(cfg, build.Options{})
		if err != nil {
			panic(err)
		}
		comps, err := build.LinuxAppliance(cfg.Name)
		if err != nil {
			panic(err)
		}
		mirage.X = append(mirage.X, float64(i))
		mirage.Y = append(mirage.Y, float64(img.LoC)/1e3)
		linux.X = append(linux.X, float64(i))
		linux.Y = append(linux.Y, float64(build.TotalLoC(comps))/1e3)
		r.Notes = append(r.Notes, fmt.Sprintf("%s ratio: %.1fx", cfg.Name, float64(build.TotalLoC(comps))/float64(img.LoC)))
	}
	r.Series = append(r.Series, mirage, linux)
	return r
}

// Table1Facilities prints the Table 1 inventory: protocol libraries by
// subsystem, straight from the module registry.
func Table1Facilities() string {
	reg := build.Registry()
	bySub := map[string][]string{}
	for name, m := range reg {
		bySub[m.Subsystem] = append(bySub[m.Subsystem], name)
	}
	var subs []string
	for s := range bySub {
		subs = append(subs, s)
	}
	sort.Strings(subs)
	out := "== table1: System facilities provided as libraries ==\n"
	for _, s := range subs {
		sort.Strings(bySub[s])
		out += fmt.Sprintf("%-12s:", s)
		for _, m := range bySub[s] {
			out += " " + m
		}
		out += "\n"
	}
	return out
}

// AblationSeal measures the cost of the seal hypercall at boot and
// verifies the post-seal policy (§2.3.3): one hypercall, W^X frozen. The
// domain is built by hand on the platform's host, so that the unsealed row
// has a boot path to measure: every appliance deployment seals.
func AblationSeal(rc core.Config) *Result {
	measure := func(seal bool) (time.Duration, int64) {
		rn := newRun(rc, "ablation-seal", 1)
		var boot time.Duration
		rn.pl.K.Spawn("toolstack", func(p *sim.Proc) {
			d := rn.pl.Host.Create(p, hypervisor.Config{Name: "g", Memory: 32 << 20})
			d.PT.Map(0x1000, hypervisor.PageR|hypervisor.PageX)
			d.PT.Map(0x2000, hypervisor.PageR|hypervisor.PageW)
			t0 := p.Now()
			if seal {
				if err := d.Seal(p); err != nil {
					panic(err)
				}
				// Attempt a code-injection mapping; it must be refused.
				d.PT.Map(0x9000, hypervisor.PageR|hypervisor.PageW|hypervisor.PageX)
			}
			boot = p.Now().Sub(t0)
		})
		rn.settle(time.Minute)
		return boot, rn.pl.K.Metrics().Snapshot().Diff(rn.before).Sum("hv_seal_refusals_total")
	}
	sealed, attempts := measure(true)
	unsealed, _ := measure(false)
	return &Result{
		ID:     "ablation-seal",
		Title:  "Seal hypercall cost and policy",
		XLabel: "config (0=unsealed 1=sealed)",
		YLabel: "boot-path cost (µs)",
		Series: []Series{
			{Name: "boot-cost", X: []float64{0, 1}, Y: []float64{float64(unsealed) / 1e3, float64(sealed) / 1e3}},
		},
		Notes: []string{
			fmt.Sprintf("post-seal W+X mapping attempts refused: %d", attempts),
			"sealing costs one hypercall at start of day and nothing thereafter (§2.3.3)",
		},
	}
}

// AblationVchan measures hypervisor notifications per MB streamed over
// vchan between two appliances on one host, with the check-before-block
// optimisation (paper §3.5.1 fn.4), against a naive transport that
// notifies on every write as well: the writer's and the reader's mains
// stream 4 MiB once, and the naive count adds one per write to it.
func AblationVchan(rc core.Config) *Result {
	const total = 4 << 20
	const chunk = 8192
	rn := newRun(rc, "ablation-vchan", 5)
	a, b := ring.NewVchan(rn.pl.K, 64*cstruct.PageSize, 2*time.Microsecond)
	rn.deploy("writer", func(env *core.Env) {
		buf := make([]byte, chunk)
		for sent := 0; sent < total; sent += chunk {
			a.Write(env.P, buf)
		}
		a.Close()
	}, "vchan")
	rn.deploy("reader", func(env *core.Env) {
		buf := make([]byte, chunk)
		for b.Read(env.P, buf) != 0 {
		}
	}, "vchan")
	rn.settle(time.Minute)
	suppressed := a.Notifies + b.Notifies
	return &Result{
		ID:     "ablation-vchan",
		Title:  "vchan notifications for a 4 MiB stream",
		XLabel: "strategy (0=check-before-block 1=notify-always)",
		YLabel: "hypervisor notifications",
		Series: []Series{{
			Name: "notifications",
			X:    []float64{0, 1},
			Y:    []float64{float64(suppressed), float64(total/chunk + suppressed)},
		}},
		Notes: []string{"continuously flowing data needs almost no hypervisor calls (§3.5.1 fn.4)"},
	}
}

// AblationZeroCopy compares the unikernel's zero-copy receive path
// (sub-views over granted I/O pages, §3.4.1) against a copying receive
// path (what a kernel/userspace boundary forces): a UDP echo ping-pong
// over the full device path, measuring round-trip rate and page-pool
// churn.
func AblationZeroCopy(rc core.Config, rounds int) *Result {
	rate, recycledZero := zeroCopyEchoRate(rc, rounds, false)
	rateCopy, _ := zeroCopyEchoRate(rc, rounds, true)
	return &Result{
		ID:     "ablation-zerocopy",
		Title:  "Zero-copy vs copying receive path (UDP echo)",
		XLabel: "path (0=zero-copy 1=copying)",
		YLabel: "echo round trips per second",
		Series: []Series{{
			Name: "echo-rate",
			X:    []float64{0, 1},
			Y:    []float64{rate, rateCopy},
		}},
		Notes: []string{
			fmt.Sprintf("zero-copy path recycled %d pages through the pool; data never left its I/O page", recycledZero),
			"the copying path models the forced kernel-to-userspace copy of a conventional stack (§3.4.1)",
		},
	}
}
