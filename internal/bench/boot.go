package bench

import (
	"time"

	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// DefaultBootMems are the Figure 5 memory sizes in MiB.
var DefaultBootMems = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3072}

// buildTime measures domain-construction time for a memory size on a fresh
// host using the real toolstack path.
func buildTime(rc core.Config, memMiB int) time.Duration {
	k := sim.NewKernelObs(1, rc.Trace, rc.Metrics)
	h := hypervisor.NewHost(k, 1)
	var elapsed time.Duration
	k.Spawn("toolstack", func(p *sim.Proc) {
		t0 := p.Now()
		h.Create(p, hypervisor.Config{Name: "guest", Memory: uint64(memMiB) << 20})
		elapsed = p.Now().Sub(t0)
	})
	if _, err := k.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// Fig5BootTime regenerates Figure 5: total boot time (stock synchronous
// toolstack + domain build + guest boot to first UDP packet) against
// memory size for Mirage, a minimal Linux PV kernel, and Debian+Apache2.
func Fig5BootTime(rc core.Config, memsMiB []int) *Result {
	profiles := []conventional.BootProfile{
		conventional.DebianApacheBoot(),
		conventional.MinimalLinuxBoot(),
		conventional.MirageBoot(),
	}
	r := &Result{
		ID:     "fig5",
		Title:  "Domain boot time, synchronous toolstack",
		XLabel: "memory (MiB)",
		YLabel: "seconds",
		Notes: []string{
			"boot = sync-toolstack overhead + domain build (grows with memory) + guest boot",
			"paper: Mirage matches minimal Linux, just under half of Debian+Apache2",
		},
	}
	for _, prof := range profiles {
		s := Series{Name: prof.Name}
		for _, m := range memsMiB {
			total := conventional.SyncToolstackOverhead +
				buildTime(rc, m) +
				prof.GuestBootTime(uint64(m)<<20)
			s.X = append(s.X, float64(m))
			s.Y = append(s.Y, total.Seconds())
		}
		r.Series = append(r.Series, s)
	}
	return r
}

// asyncMems are the Figure 6 memory sizes in MiB.
var asyncMems = []int{64, 128, 256, 512, 1024, 2048}

// Fig6BootAsync regenerates Figure 6: with the parallel (asynchronous)
// toolstack the per-VM startup is isolated — Mirage boots in well under
// 50 ms while Linux guest startup grows with memory.
func Fig6BootAsync() *Result {
	r := &Result{
		ID:     "fig6",
		Title:  "VM startup with an asynchronous toolstack",
		XLabel: "memory (MiB)",
		YLabel: "seconds",
		Notes: []string{
			"parallel domain construction removes toolstack serialisation; this measures guest startup",
			"paper: Mirage boots in under 50 ms",
		},
	}
	for _, prof := range []conventional.BootProfile{conventional.MinimalLinuxBoot(), conventional.MirageBoot()} {
		name := prof.Name
		if name == "linux-pv-minimal" {
			name = "linux-pv"
		}
		s := Series{Name: name}
		for _, m := range asyncMems {
			s.X = append(s.X, float64(m))
			s.Y = append(s.Y, prof.GuestBootTime(uint64(m)<<20).Seconds())
		}
		r.Series = append(r.Series, s)
	}
	return r
}

// AblationToolstack compares synchronous vs parallel domain construction
// time for a batch of four simultaneous 256 MiB creations (the design choice
// behind Figures 5 vs 6).
func AblationToolstack(rc core.Config) *Result {
	const n, memMiB = 4, 256
	run := func(parallel bool) float64 {
		k := sim.NewKernelObs(1, rc.Trace, rc.Metrics)
		h := hypervisor.NewHost(k, 1)
		var last sim.Time
		for i := 0; i < n; i++ {
			k.Spawn("creator", func(p *sim.Proc) {
				cfg := hypervisor.Config{Name: "g", Memory: uint64(memMiB) << 20}
				if parallel {
					h.CreateParallel(p, cfg)
				} else {
					h.Create(p, cfg)
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if _, err := k.Run(); err != nil {
			panic(err)
		}
		return last.Seconds()
	}
	r := &Result{
		ID:     "ablation-toolstack",
		Title:  "Batch domain construction: synchronous vs parallel toolstack",
		XLabel: "domains",
		YLabel: "seconds to build all",
	}
	r.Series = append(r.Series,
		Series{Name: "synchronous", X: []float64{float64(n)}, Y: []float64{run(false)}},
		Series{Name: "parallel", X: []float64{float64(n)}, Y: []float64{run(true)}},
	)
	return r
}
