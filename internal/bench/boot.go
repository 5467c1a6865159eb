package bench

import (
	"time"

	"repro/internal/build"
	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/ipv4"
	"repro/internal/netstack"
)

// DefaultBootMems are the Figure 5 memory sizes in MiB.
var DefaultBootMems = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3072}

// bootDomains deploys n appliances of memMiB each on a fresh platform, on
// the synchronous toolstack or the parallel one, and returns the deployments
// once every one has booted and exited. Each appliance has a netfront and
// signals readiness as the first act of its main, so its boot-to-ready is
// the real domain build plus the real guest start-of-day: pvboot, the seal
// hypercall and the device handshake.
func bootDomains(rc core.Config, n, memMiB int, parallel bool) []*core.Deployment {
	rn := newRun(rc, "boot", 1)
	deps := make([]*core.Deployment, n)
	for i := range deps {
		deps[i] = rn.pl.Deploy(core.Unikernel{
			Build:  build.Config{Name: "guest", Roots: []string{"udp"}},
			Memory: uint64(memMiB) << 20,
			Main: func(env *core.Env) int {
				env.VM.Dom.SignalReady()
				return 0
			},
		}, core.DeployOpts{
			ParallelToolstack: parallel,
			Net: &netstack.Config{
				MAC: core.MAC(byte(1 + i)), IP: ipv4.AddrFrom4(10, 0, 0, byte(1+i)), Netmask: benchMask,
			},
		})
	}
	rn.settle(time.Minute)
	return deps
}

// bootEach boots one appliance per memory size and returns the sizes, as
// a figure's x axis, beside their domains.
func bootEach(rc core.Config, mems []int, parallel bool) (xs []float64, doms []*hypervisor.Domain) {
	for _, m := range mems {
		xs = append(xs, float64(m))
		doms = append(doms, bootDomains(rc, 1, m, parallel)[0].Domain)
	}
	return xs, doms
}

// Fig5BootTime regenerates Figure 5: total boot time (stock synchronous
// toolstack + domain build + guest boot to ready) against memory size for
// Mirage, a minimal Linux PV kernel, and Debian+Apache2.
// Mirage is a real appliance booted on the platform; the Linux guests add
// their boot profile to the same measured build.
func Fig5BootTime(rc core.Config, memsMiB []int) *Result {
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
	xs, doms := bootEach(rc, memsMiB, false)
	linux := func(prof conventional.BootProfile) column {
		return column{prof.Name, func(i int) float64 {
			d := doms[i]
			return (conventional.SyncToolstackOverhead + d.CreatedAt.Sub(d.BuildStart) + prof.GuestBootTime(d.MemBytes)).Seconds()
		}}
	}
	r.addSeries(xs,
		linux(conventional.DebianApacheBoot()),
		linux(conventional.MinimalLinuxBoot()),
		column{"mirage", func(i int) float64 {
			return (conventional.SyncToolstackOverhead + doms[i].BootTime()).Seconds()
		}})
	return r
}

// asyncMems are the Figure 6 memory sizes in MiB.
var asyncMems = []int{64, 128, 256, 512, 1024, 2048}

// Fig6BootAsync regenerates Figure 6: with the parallel (asynchronous)
// toolstack the per-VM startup is isolated — Mirage boots in well under
// 50 ms while Linux guest startup grows with memory. Mirage is a real
// appliance's start-of-day, from built to ready, on the platform.
func Fig6BootAsync(rc core.Config) *Result {
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
	xs, doms := bootEach(rc, asyncMems, true)
	minimal := conventional.MinimalLinuxBoot()
	r.addSeries(xs,
		column{"linux-pv", func(i int) float64 { return minimal.GuestBootTime(doms[i].MemBytes).Seconds() }},
		column{"mirage", func(i int) float64 { return doms[i].BootedAt.Sub(doms[i].CreatedAt).Seconds() }})
	return r
}

// AblationToolstack compares synchronous vs parallel domain construction
// time for a batch of four simultaneous 256 MiB creations (the design choice
// behind Figures 5 vs 6): from the first build's start to the last domain
// built.
func AblationToolstack(rc core.Config) *Result {
	const n, memMiB = 4, 256
	run := func(parallel bool) float64 {
		deps := bootDomains(rc, n, memMiB, parallel)
		first, last := deps[0].Domain.BuildStart, deps[0].Domain.CreatedAt
		for _, dep := range deps[1:] {
			first, last = min(first, dep.Domain.BuildStart), max(last, dep.Domain.CreatedAt)
		}
		return last.Sub(first).Seconds()
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
