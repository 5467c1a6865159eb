// Package core is the public face of the unikernel library: it ties the
// build toolchain, the simulated Xen platform, guest start-of-day and the
// protocol stacks into the paper's workflow (§5.4) — configure an
// appliance, specialise it at compile time, and boot the resulting image
// on a host.
//
// A typical appliance:
//
//	pl := core.NewPlatform(42)
//	pl.Deploy(core.Unikernel{
//		Build:  build.DNSAppliance(zone),
//		Memory: 64 << 20,
//		Main: func(env *core.Env) int {
//			// ... use env.Net, env.Blk, env.VM.S ...
//			return 0
//		},
//	}, core.DeployOpts{Net: &netstack.Config{...}})
//	pl.Run()
package core

import (
	"fmt"
	"time"

	"repro/internal/blkback"
	"repro/internal/blkif"
	"repro/internal/build"
	"repro/internal/ethernet"
	"repro/internal/hypervisor"
	"repro/internal/netback"
	"repro/internal/netif"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/pvboot"
	"repro/internal/sim"
	"repro/internal/xenstore"
)

// Platform is a deployment target: one or more simulated physical hosts,
// each with hypervisor, control domain, software bridge, SSD and xenstore.
// NewPlatform creates the first host; AddHost grows the machine room, and
// internal/datacenter links the host bridges with a modeled fabric. The
// flat Host/Bridge/SSD/Store/Dom0 fields alias the first host, so
// single-host callers are untouched by the multi-host surface.
type Platform struct {
	K       *sim.Kernel
	Cluster *sim.Cluster // nil unless sharded (Config.PCPUs > 1)
	Host    *hypervisor.Host
	Bridge  *netback.Bridge
	SSD     *blkback.SSD
	Store   *xenstore.Store
	Dom0    *hypervisor.Domain

	sites       []*Site
	npcpus      int
	faults      netback.Faults // what every host bridge starts with (Config.Faults)
	deployments []*Deployment
}

// Site is one physical host of the platform: the typed "device home" every
// deployment resolves against. Each site owns its own bridge (and so its
// own wire-cost domain), SSD, xenstore and control domain.
type Site struct {
	Name   string
	Index  int
	Host   *hypervisor.Host
	Bridge *netback.Bridge
	SSD    *blkback.SSD
	Store  *xenstore.Store
	Dom0   *hypervisor.Domain

	dom0Ready *sim.Signal
	down      bool
}

// SetDown marks the site failed: no further placements resolve to it.
// Killing the domains and cutting the fabric port is the caller's job
// (internal/datacenter's KillHost does both).
func (s *Site) SetDown() { s.down = true }

// Alive reports whether the site accepts placements.
func (s *Site) Alive() bool { return !s.down }

// Config says how a run is configured: how the event queue is sharded and
// driven, what the host bridges do to frames, and where the run's trace and
// metrics go. It is the one route configuration takes into the system: a CLI
// builds one value from its flags (experiments.BindRunFlags) and hands it to
// the experiments in experiments.Options, and an experiment builds every
// platform with NewPlatform and every bare kernel with sim.NewKernelObs from
// it. Nothing is ambient, so platforms built from different values may run
// side by side in one process. The zero value is one kernel, no impairment,
// and a fresh disabled tracer and fresh registry per platform.
type Config struct {
	// PCPUs > 1 shards the event queue across that many per-pCPU kernels
	// (plus the dom0 shard), advanced in epochs on the one thread.
	PCPUs int
	// Faults is the impairment every host bridge of the platform starts
	// with — the first host's and each host racked later with AddHost. An
	// experiment that sweeps impairment itself overrides it per bridge
	// (Bridge.SetFaults).
	Faults netback.Faults
	// Trace and Metrics are what the platform's kernels record into. The
	// platforms an invocation builds one after another share them, so one
	// trace file and one registry dump cover the whole run; platforms that
	// run at the same time take a tracer each (a tracer is one timeline).
	// Nil means a fresh disabled tracer / a fresh registry.
	Trace   *obs.Tracer
	Metrics *obs.Registry
}

// NewPlatform is the zero Config's NewPlatform: one kernel, no impairment,
// a fresh disabled tracer and a fresh registry (but see the shim below).
func NewPlatform(seed int64) *Platform {
	return Config{PCPUs: shim.pcpus}.NewPlatform(seed)
}

// shim is the one piece of ambient configuration left, written only by the
// deprecated setter below.
var shim struct{ pcpus int }

// SetDefaultSharding makes subsequent NewPlatform(seed) calls build on pcpus
// shards. The parallel argument is ignored: every cluster runs on one thread.
//
// Deprecated: kept, with its signature, for the one caller this tree cannot
// change, the frozen benchmark/sut.go. Use Config{PCPUs}.NewPlatform; this,
// shim and their test exemption go together with that call (ROADMAP item 3).
func SetDefaultSharding(pcpus int, parallel bool) {
	shim.pcpus = pcpus
}

// NewPlatform creates a host (with 4 physical CPUs for guests) and its
// control domain. Under sharding the cluster's lookahead is the bridge
// propagation latency: it is the minimum delay on every cross-shard path
// (frames in either direction traverse the bridge), so conservative epochs
// of that width cannot miss a cross-shard event.
func (c Config) NewPlatform(seed int64) *Platform {
	var k *sim.Kernel
	var cluster *sim.Cluster
	npcpus := 4
	if c.PCPUs > 1 {
		cluster = sim.NewClusterObs(seed, c.PCPUs+1, netback.DefaultParams().Propagation, c.Trace, c.Metrics)
		k = cluster.Kernel(0)
		if c.PCPUs > npcpus {
			npcpus = c.PCPUs
		}
	} else {
		k = sim.NewKernelObs(seed, c.Trace, c.Metrics)
	}
	pl := &Platform{K: k, Cluster: cluster, npcpus: npcpus, faults: c.Faults}
	// The first host keeps the historical unprefixed process, signal and
	// CPU names so single-host runs stay byte-identical with earlier
	// versions of this package.
	s0 := pl.addSite("h0", "", npcpus)
	pl.Host = s0.Host
	pl.Bridge = s0.Bridge
	pl.SSD = s0.SSD
	pl.Store = s0.Store
	return pl
}

// addSite builds one physical host. An empty prefix keeps the legacy
// names ("dom0-init", "dom0-ready", "dom0", "pcpu0", ...); a non-empty
// prefix namespaces everything ("h1-dom0-ready", "dom0-h1", "h1-pcpu0").
func (pl *Platform) addSite(name, prefix string, npcpus int) *Site {
	k := pl.K
	s := &Site{Name: name, Index: len(pl.sites)}
	s.Host = hypervisor.NewHostNamed(k, npcpus, prefix)
	s.Bridge = netback.NewBridgeNamed(k, netback.DefaultParams(), prefix)
	s.Bridge.SetFaults(pl.faults)
	s.SSD = blkback.NewSSDNamed(k, blkback.DefaultSSDParams(), prefix)
	s.Store = xenstore.New()
	sigName, initName, dom0Name := "dom0-ready", "dom0-init", "dom0"
	if prefix != "" {
		sigName = prefix + "-dom0-ready"
		initName = "dom0-init-" + prefix
		dom0Name = "dom0-" + prefix
	}
	s.dom0Ready = k.NewSignal(sigName)
	k.Spawn(initName, func(p *sim.Proc) {
		s.Dom0 = s.Host.Create(p, hypervisor.Config{Name: dom0Name, Memory: 512 << 20})
		if s.Index == 0 {
			pl.Dom0 = s.Dom0
		}
		s.dom0Ready.Set()
	})
	pl.sites = append(pl.sites, s)
	return s
}

// AddHost racks a new physical host (same pCPU count as the first) and
// returns its Site. Call before Run; the host's control domain boots at
// virtual time zero alongside the others. Domains, signals and CPU gauges
// of the new host are namespaced by its name.
func (pl *Platform) AddHost(name string) *Site {
	if name == "" {
		name = fmt.Sprintf("h%d", len(pl.sites))
	}
	if pl.SiteByName(name) != nil {
		panic("core: duplicate host name " + name)
	}
	return pl.addSite(name, name, pl.npcpus)
}

// Sites lists the platform's hosts in rack order.
func (pl *Platform) Sites() []*Site { return pl.sites }

// SiteByName returns the named host, or nil.
func (pl *Platform) SiteByName(name string) *Site {
	for _, s := range pl.sites {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Env is the environment handed to an appliance's main function.
type Env struct {
	VM    *pvboot.VM
	P     *sim.Proc
	Net   *netstack.Stack // nil unless DeployOpts.Net was given
	Blk   *blkif.Blkif    // nil unless DeployOpts.Block was set
	Image *build.Image
}

// Console writes to the domain console.
func (e *Env) Console(msg string) { e.VM.Dom.Console(msg) }

// Unikernel describes an appliance: its build configuration and its main
// function. The VM shuts down when Main returns, with Main's return value
// as the exit code (§3.3).
type Unikernel struct {
	Build  build.Config
	Memory uint64 // default 64 MiB
	Main   func(env *Env) int
}

// DeployOpts control deployment of one unikernel.
type DeployOpts struct {
	// Net attaches a network interface with this configuration.
	Net *netstack.Config
	// Block attaches a virtual block device over the platform SSD.
	Block bool
	// BuildOpts configure the toolchain; when nil, dead-code elimination
	// is on and each deployment gets a fresh ASR seed (every deployment
	// is relinked with a fresh layout, §2.3.4).
	BuildOpts *build.Options
	// ParallelToolstack builds the domain on a private toolstack CPU
	// (Figure 6) instead of serialising on dom0.
	ParallelToolstack bool
	// Delay postpones the start of domain construction.
	Delay time.Duration
	// Host names the physical host the domain is built on; empty means the
	// first host. Choosing among live hosts is the caller's policy
	// (internal/fleet round-robins its replicas). A named host wins even
	// when down: the deployment stalls on its dead dom0, which is what
	// talking to a failed machine does.
	Host string
	// PCPU pins the guest's vCPU to this pCPU of its host (default 0, so
	// co-deployed guests contend unless spread; -1 allocates a fresh one).
	PCPU int
	// Resume deploys from a migrated snapshot: the toolstack pays the flat
	// resume cost instead of the memory-scaled build, and guest
	// start-of-day is the reconnect path (see hypervisor.Config.Resume and
	// pvboot.Options.Resume).
	Resume bool
}

// Deployment is one deployed appliance.
type Deployment struct {
	Name   string
	Image  *build.Image
	Domain *hypervisor.Domain // nil until the domain is built
	Site   *Site              // host the domain was built on
	Err    error

	created *sim.Signal
}

// Deploy builds the image and schedules domain creation. The returned
// Deployment is populated as the simulation runs.
func (pl *Platform) Deploy(u Unikernel, opts DeployOpts) *Deployment {
	dep := &Deployment{Name: u.Build.Name, created: pl.K.NewSignal(u.Build.Name + "-created")}
	pl.deployments = append(pl.deployments, dep)

	site := pl.sites[0]
	if opts.Host != "" {
		site = pl.SiteByName(opts.Host)
	}
	if site == nil {
		dep.Err = fmt.Errorf("core: no host named %q", opts.Host)
		return dep
	}
	dep.Site = site

	bopts := build.Options{DeadCodeElim: true, ASRSeed: int64(len(pl.deployments))*7919 + 1}
	if opts.BuildOpts != nil {
		bopts = *opts.BuildOpts
	}
	img, err := build.Build(u.Build, bopts)
	if err != nil {
		dep.Err = err
		return dep
	}
	dep.Image = img

	mem := u.Memory
	if mem == 0 {
		mem = 64 << 20
	}
	entry := func(d *hypervisor.Domain, p *sim.Proc) int {
		vm, err := pvboot.Boot(d, p, pvboot.Options{
			BinarySize: uint64(img.SizeKB) << 10,
			Seal:       true,
			Resume:     opts.Resume,
		})
		if err != nil {
			dep.Err = err
			return 1
		}
		env := &Env{VM: vm, P: p, Image: img}
		if opts.Net != nil {
			cfg := *opts.Net
			nic, err := netif.Attach(vm, site.Bridge, site.Dom0, site.Store, cfg.MAC)
			if err != nil {
				dep.Err = err
				return 1
			}
			env.Net = netstack.New(vm, nic, cfg)
		}
		if opts.Block {
			blk, err := blkif.Attach(vm, site.SSD, site.Dom0, site.Store)
			if err != nil {
				dep.Err = err
				return 1
			}
			env.Blk = blk
		}
		if u.Main == nil {
			d.SignalReady()
			return 0
		}
		return u.Main(env)
	}

	pl.K.Spawn("deploy-"+u.Build.Name, func(p *sim.Proc) {
		if opts.Delay > 0 {
			p.Sleep(opts.Delay)
		}
		if site.Dom0 == nil {
			p.Wait(site.dom0Ready)
		}
		// Block guests colocate with dom0: blkback and the SSD are
		// dom0-shard state, so their rings must not be driven from
		// another shard.
		cfg := hypervisor.Config{Name: u.Build.Name, Memory: mem, Entry: entry, PCPU: opts.PCPU, Colocate: opts.Block, Resume: opts.Resume}
		if opts.ParallelToolstack {
			dep.Domain = site.Host.CreateParallel(p, cfg)
		} else {
			dep.Domain = site.Host.Create(p, cfg)
		}
		dep.created.Set()
	})
	return dep
}

// WaitCreated blocks p until the deployment's domain exists.
func (d *Deployment) WaitCreated(p *sim.Proc) *hypervisor.Domain {
	if d.Domain == nil {
		p.Wait(d.created)
	}
	return d.Domain
}

// Run drives the simulation to completion.
func (pl *Platform) Run() (sim.Time, error) { return pl.K.Run() }

// RunFor drives the simulation for d of virtual time.
func (pl *Platform) RunFor(d time.Duration) (sim.Time, error) { return pl.K.RunFor(d) }

// MAC is a convenience MAC constructor in the Xen OUI.
func MAC(last byte) ethernet.MAC { return ethernet.MAC{0x00, 0x16, 0x3e, 0x00, 0x00, last} }

// Check returns an error if any deployment failed.
func (pl *Platform) Check() error {
	for _, d := range pl.deployments {
		if d.Err != nil {
			return fmt.Errorf("core: deployment %s: %w", d.Name, d.Err)
		}
	}
	return nil
}
