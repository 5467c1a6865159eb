// Package hypervisor models the Xen platform a unikernel targets (paper §2):
// a host with physical CPUs, a domain builder (toolstack), and per-domain
// virtual CPUs, event channels, grant tables and page tables. It implements
// the paper's hypervisor extension — the seal hypercall of §2.3.3 that
// freezes a W^X memory access policy at start of day — plus synchronous and
// parallel domain construction (the toolstack change behind Figure 6).
//
// All timing flows through the sim kernel: hypercalls, event-channel
// notification latency and domain-build work consume virtual time from
// explicit, documented cost parameters.
package hypervisor

import (
	"fmt"
	"time"

	"repro/internal/cstruct"
	"repro/internal/grant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The hypervisor's cost constants. They are calibrated so that the macro
// results land in the paper's ranges; see EXPERIMENTS.md.
const (
	hypercallCost = 300 * time.Nanosecond // CPU cost of any hypercall
	// EventLatency is the event-channel notification delivery latency.
	EventLatency = 2 * time.Microsecond
	// Domain construction: the toolstack builds page tables and scrubs
	// memory, so build time grows with the memory reservation (Figure 5's
	// upward slope, ~60% of Mirage boot at 3 GiB).
	buildBase   = 12 * time.Millisecond  // fixed toolstack overhead per domain
	buildPerMiB = 180 * time.Microsecond // added per MiB of memory reservation
	sealCost    = 50 * time.Microsecond  // one-off cost of the seal hypercall
	// resumeCost replaces the build cost when a domain is resumed from a
	// migrated snapshot (Config.Resume): the memory image already exists,
	// so the toolstack only rewires page tables and event channels instead
	// of scrubbing and populating the reservation.
	resumeCost = 800 * time.Microsecond
)

// Host is a physical machine running the hypervisor.
type Host struct {
	K       *sim.Kernel
	PCPUs   []*sim.CPU
	Dom0CPU *sim.CPU // toolstack/control-domain CPU (synchronous builds serialize here)

	domains []*Domain
	nextID  int

	mxHypercalls  *obs.Counter
	mxNotifies    *obs.Counter
	mxDomains     *obs.Counter
	mxSeals       *obs.Counter
	mxSealRefused *obs.Counter
}

// NewHost creates a host with ncpu physical CPUs plus a dom0 control CPU.
// On a sharded kernel each pCPU is homed on the shard that will execute
// guests pinned to it; dom0's CPU stays on the host shard.
func NewHost(k *sim.Kernel, ncpu int) *Host { return NewHostNamed(k, ncpu, "") }

// NewHostNamed is NewHost with a CPU-name prefix, so the per-CPU gauges of
// a multi-host platform (internal/datacenter) stay distinguishable; an
// empty prefix keeps the historical single-host names.
func NewHostNamed(k *sim.Kernel, ncpu int, prefix string) *Host {
	if prefix != "" {
		prefix += "-"
	}
	h := &Host{K: k}
	for i := 0; i < ncpu; i++ {
		h.PCPUs = append(h.PCPUs, h.pcpuKernel(i).NewCPU(fmt.Sprintf("%spcpu%d", prefix, i)))
	}
	h.Dom0CPU = k.NewCPU(prefix + "pcpu-dom0")
	m := k.Metrics()
	h.mxHypercalls = m.Counter("hv_hypercalls_total")
	h.mxNotifies = m.Counter("hv_evtchn_notifies_total")
	h.mxDomains = m.Counter("hv_domains_built_total")
	h.mxSeals = m.Counter("hv_seals_total")
	h.mxSealRefused = m.Counter("hv_seal_refusals_total")
	return h
}

// Domains returns all domains ever created on the host.
func (h *Host) Domains() []*Domain { return h.domains }

// pcpuKernel maps a physical CPU index to the shard kernel that executes
// guests pinned there: round-robin over the guest shards, with shard 0
// reserved for dom0 and host-side device models. On a plain kernel this is
// always h.K, so single-kernel behavior is untouched.
func (h *Host) pcpuKernel(i int) *sim.Kernel {
	c := h.K.Cluster()
	if c == nil || c.Shards() < 2 {
		return h.K
	}
	return c.Kernel(1 + i%(c.Shards()-1))
}

// homeKernel picks the shard a domain executes on. Guests follow their
// pCPU, so domains sharing a pinned pCPU share a shard (the CPU resource
// then has a single owning shard); dom0, build-only domains and
// explicitly colocated guests stay on the host shard.
func (h *Host) homeKernel(cfg Config, pcpuIdx int) *sim.Kernel {
	if cfg.Colocate || cfg.Entry == nil {
		return h.K
	}
	return h.pcpuKernel(pcpuIdx)
}

// PageFlags describe a page-table entry's permissions.
type PageFlags uint8

// Page permission bits.
const (
	PageR PageFlags = 1 << iota
	PageW
	PageX
	PageIO // I/O mapping (grant-mapped page); may be added after sealing
)

// PageTable models a domain's page-table permissions, enough to enforce the
// sealing policy of §2.3.3: once sealed, no modification is allowed except
// new I/O mappings that are non-executable and do not replace existing
// entries.
type PageTable struct {
	pages   map[uint64]PageFlags
	sealed  bool
	refused *obs.Counter // post-seal modification attempts refused
}

// NewPageTable returns an empty page table that counts each refused
// post-seal modification on refused.
func NewPageTable(refused *obs.Counter) *PageTable {
	return &PageTable{pages: map[uint64]PageFlags{}, refused: refused}
}

// Sealed reports whether the seal hypercall has been issued.
func (pt *PageTable) Sealed() bool { return pt.sealed }

// Map installs or replaces a page-table entry. After sealing, only fresh,
// non-executable I/O mappings are allowed.
func (pt *PageTable) Map(page uint64, f PageFlags) error {
	if pt.sealed {
		_, exists := pt.pages[page]
		if f&PageIO == 0 || f&PageX != 0 || exists {
			pt.refused.Inc()
			return fmt.Errorf("hypervisor: page table sealed (page %#x flags %b)", page, f)
		}
	}
	pt.pages[page] = f
	return nil
}

// Unmap removes an entry. Refused after sealing except for I/O mappings.
func (pt *PageTable) Unmap(page uint64) error {
	f, ok := pt.pages[page]
	if !ok {
		return fmt.Errorf("hypervisor: unmap of unmapped page %#x", page)
	}
	if pt.sealed && f&PageIO == 0 {
		pt.refused.Inc()
		return fmt.Errorf("hypervisor: page table sealed")
	}
	delete(pt.pages, page)
	return nil
}

// Seal verifies that no page is both writable and executable, then freezes
// the table. The policy in effect when the VM is sealed is preserved until
// it terminates.
func (pt *PageTable) Seal() error {
	for page, f := range pt.pages {
		if f&PageW != 0 && f&PageX != 0 {
			return fmt.Errorf("hypervisor: seal refused: page %#x is W+X", page)
		}
	}
	pt.sealed = true
	return nil
}

// Port is one end of an event channel (paper §3.2: Xen event channels).
// Both ends of a channel are homed on one shard kernel (the guest's, for
// device channels) so notification never crosses shards: the backend
// handler is colocated with its guest.
type Port struct {
	Dom   *Domain
	K     *sim.Kernel // home shard: Notify and Sig waits run here
	Index int
	Sig   *sim.Signal
	peer  *Port
	// deliver is the peer's receive, built once at Connect: the callback of
	// every notification event this end sends, so a notify builds no closure.
	deliver func()

	Sends    int // notifications sent from this end
	Receives int // notifications delivered to this end
}

// NotifyAsync sends an event to the peer end: delivery happens after the
// event latency, and no vCPU is charged for the hypercall.
func (pt *Port) NotifyAsync() {
	h := pt.Dom.Host
	pt.Sends++
	h.mxNotifies.Inc()
	pt.traceNotify()
	pt.K.After(EventLatency, pt.deliver)
}

// receive is the arrival of one notification at this end.
func (pt *Port) receive() {
	pt.Receives++
	pt.Sig.Set()
}

func (pt *Port) traceNotify() {
	if tr := pt.K.Trace(); tr.Enabled() {
		tr.Instant(pt.K.TraceTime(), "hypervisor", "evtchn-notify", pt.Dom.ID, 0,
			obs.Int("port", int64(pt.Index)), obs.Int("peer_dom", int64(pt.peer.Dom.ID)))
	}
}

// ShutdownReason describes why a domain stopped.
type ShutdownReason int

// Shutdown reasons.
const (
	ShutdownPoweroff ShutdownReason = iota
	ShutdownCrash
	ShutdownSealViolation
	// ShutdownSuspend is the migration freeze: the domain stops on the
	// source host so its state can be copied; it is not a failure, and
	// lifecycle observers (the fleet) must not crash-replace it.
	ShutdownSuspend
)

func (r ShutdownReason) String() string {
	switch r {
	case ShutdownPoweroff:
		return "poweroff"
	case ShutdownCrash:
		return "crash"
	case ShutdownSealViolation:
		return "seal-violation"
	case ShutdownSuspend:
		return "suspend"
	}
	return "unknown"
}

// Domain is a VM instance with a single vCPU (§3.1, multikernel
// philosophy).
type Domain struct {
	Host     *Host
	K        *sim.Kernel // home shard: guest code, its devices and ports run here
	ID       int
	Name     string
	MemBytes uint64
	VCPU     *sim.CPU
	Grants   *grant.Table
	PT       *PageTable
	Pool     *cstruct.Pool // I/O page pool (grant-shareable pages)

	ports []*Port

	CreatedAt sim.Time // when the toolstack finished building the domain
	BootedAt  sim.Time // when guest code signalled readiness (SignalReady)
	Dead      bool
	ExitCode  int
	Reason    ShutdownReason

	// ThreadStats, when set, reports the guest's threading activity
	// (lwt threads created, timer wakes) for DomStats. The hypervisor
	// cannot see inside the guest library OS, so the runtime that owns the
	// scheduler wires this at deploy time.
	ThreadStats func() (created, wakes int)

	console   []string
	ready     *sim.Signal // homed on Host.K: waiters are host-side procs
	readyMark bool        // guest-shard guard so SignalReady posts at most once

	shutdownHooks []func(code int, reason ShutdownReason)
}

// Config describes a domain to create. A nil Entry builds the domain and
// starts no guest code (dom0, boot benches).
type Config struct {
	Name     string
	Memory   uint64 // memory reservation in bytes
	PCPU     int    // index into host PCPUs to pin the vCPU to; -1 allocates a fresh pCPU
	Entry    func(d *Domain, p *sim.Proc) int
	Colocate bool // keep the guest on the host shard (block-backed guests)
	// Resume builds the domain from a migrated snapshot: the flat
	// resumeCost replaces the memory-scaled build cost.
	Resume bool
}

// build performs the toolstack work of constructing a domain on the given
// CPU and returns the built (not yet running) domain.
func (h *Host) build(p *sim.Proc, cpu *sim.CPU, cfg Config) *Domain {
	buildStart := h.K.Now()
	cost := buildBase + time.Duration(cfg.Memory>>20)*buildPerMiB
	if cfg.Resume {
		cost = resumeCost
	}
	p.Use(cpu, cost)
	h.nextID++
	d := &Domain{
		Host:     h,
		ID:       h.nextID,
		Name:     cfg.Name,
		MemBytes: cfg.Memory,
		Grants:   grant.NewTable(),
		PT:       NewPageTable(h.mxSealRefused),
		Pool:     cstruct.NewPool(),
	}
	pidx := cfg.PCPU
	if pidx < 0 || pidx >= len(h.PCPUs) {
		pidx = len(h.PCPUs) // index the first fresh pCPU will take below
	}
	d.K = h.homeKernel(cfg, pidx)
	if cfg.PCPU >= 0 && cfg.PCPU < len(h.PCPUs) && h.PCPUs[cfg.PCPU].Kernel() == d.K {
		d.VCPU = h.PCPUs[cfg.PCPU]
	} else {
		// Fresh vCPU, homed on the guest's shard so all its Reserve/Use
		// calls run in one shard's context. A pinned pCPU homed on a different
		// shard (e.g. dom0 pinned to a guest pCPU under sharding) also
		// lands here rather than sharing cross-shard.
		d.VCPU = d.K.NewCPU(cfg.Name + "-vcpu0")
		h.PCPUs = append(h.PCPUs, d.VCPU)
	}
	d.ready = h.K.NewSignal(cfg.Name + "-ready")
	d.CreatedAt = h.K.Now()
	h.domains = append(h.domains, d)

	h.mxDomains.Inc()
	m := h.K.Metrics()
	wireGrantHooks(d.K, d, m)
	tr := h.K.Trace()
	tr.NameProcess(d.ID, cfg.Name)
	if tr.Enabled() {
		tr.Complete(obs.Time(buildStart), obs.Time(d.CreatedAt.Sub(buildStart)),
			"hypervisor", "domain-build", d.ID, 0,
			obs.Str("name", cfg.Name), obs.Int("mem_mib", int64(cfg.Memory>>20)))
	}
	return d
}

// wireGrantHooks mirrors the domain's grant-table activity into the
// registry and (map/unmap only — the high-signal transitions) the tracer.
func wireGrantHooks(k *sim.Kernel, d *Domain, m *obs.Registry) {
	dom := obs.L("dom", d.Name)
	grants := m.Counter("grant_ops_total", dom, obs.L("op", "grant"))
	maps := m.Counter("grant_ops_total", dom, obs.L("op", "map"))
	unmaps := m.Counter("grant_ops_total", dom, obs.L("op", "unmap"))
	copies := m.Counter("grant_ops_total", dom, obs.L("op", "copy"))
	copyBytes := m.Counter("grant_copy_bytes_total", dom)
	tr := k.Trace()
	d.Grants.Hooks = grant.Hooks{
		OnGrant: func(ref int) { grants.Inc() },
		OnMap: func(ref int) {
			maps.Inc()
			if tr.Enabled() {
				tr.Instant(k.TraceTime(), "grant", "map", d.ID, 0, obs.Int("ref", int64(ref)))
			}
		},
		OnUnmap: func(ref int) {
			unmaps.Inc()
			if tr.Enabled() {
				tr.Instant(k.TraceTime(), "grant", "unmap", d.ID, 0, obs.Int("ref", int64(ref)))
			}
		},
		OnCopy: func(n int) {
			copies.Inc()
			copyBytes.Add(int64(n))
		},
	}
}

// Create builds a domain synchronously on the control-domain toolstack CPU
// (the stock Xen toolstack of Figure 5: concurrent Creates serialize) and
// starts its guest entry function.
func (h *Host) Create(p *sim.Proc, cfg Config) *Domain {
	d := h.build(p, h.Dom0CPU, cfg)
	d.start(cfg)
	return d
}

// CreateParallel builds a domain on a private toolstack CPU, modelling the
// modified parallel toolstack of Figure 6 (domain construction no longer
// serializes), then starts the guest.
func (h *Host) CreateParallel(p *sim.Proc, cfg Config) *Domain {
	cpu := h.K.NewCPU(cfg.Name + "-builder")
	d := h.build(p, cpu, cfg)
	d.start(cfg)
	return d
}

func (d *Domain) start(cfg Config) {
	if cfg.Entry == nil {
		return
	}
	// The entry proc spawns on the domain's home shard: boot, the xenstore
	// device handshakes and guest main all execute there, so guest-side
	// state has exactly one owning shard.
	d.Host.K.SpawnTo(d.K, cfg.Name, d.ID, func(p *sim.Proc) {
		code := cfg.Entry(d, p)
		if !d.Dead {
			d.Shutdown(code, ShutdownPoweroff)
		}
	})
}

// SignalReady marks the instant guest boot completed (e.g. first packet
// transmitted); boot-time experiments read BootTime afterwards. It runs in
// guest context; readiness (BootedAt and the ready signal, read by
// host-side waiters) is published on the host shard.
func (d *Domain) SignalReady() {
	if d.readyMark {
		return
	}
	d.readyMark = true
	t := d.K.Now()
	mark := func() {
		if d.BootedAt == 0 {
			d.BootedAt = t
			d.ready.Set()
		}
	}
	if d.K == d.Host.K {
		mark()
		return
	}
	d.K.Post(d.Host.K, 0, mark)
}

// WaitReady blocks p until the domain signals readiness.
func (d *Domain) WaitReady(p *sim.Proc) {
	if d.BootedAt != 0 {
		return
	}
	p.Wait(d.ready)
}

// BootTime is the elapsed virtual time from the start of domain
// construction to readiness. It is only meaningful after SignalReady.
func (d *Domain) BootTime() time.Duration { return d.BootedAt.Sub(0) }

// OnShutdown registers a lifecycle hook invoked (in registration order)
// when the domain shuts down, whatever the reason. This is the primitive a
// control-plane service — the fleet orchestrator — builds replica
// lifecycle tracking on: real toolstacks get the same signal from the
// hypervisor's domain-death event.
func (d *Domain) OnShutdown(fn func(code int, reason ShutdownReason)) {
	d.shutdownHooks = append(d.shutdownHooks, fn)
}

// Shutdown stops the domain; the VM exit code matches the main thread's
// return value (§3.3). Lifecycle hooks fire exactly once, on the first
// Shutdown — later calls are no-ops. Call from the domain's home shard
// (guest exit path); host-side code uses Destroy.
func (d *Domain) Shutdown(code int, reason ShutdownReason) {
	if d.Dead {
		return
	}
	d.Dead = true
	d.ExitCode = code
	d.Reason = reason
	h := d.Host
	h.K.Metrics().Counter("hv_domain_shutdowns_total", obs.L("reason", reason.String())).Inc()
	if tr := d.K.Trace(); tr.Enabled() {
		tr.Instant(d.K.TraceTime(), "hypervisor", "domain-shutdown", d.ID, 0,
			obs.Int("code", int64(code)), obs.Str("reason", reason.String()))
	}
	if d.K == h.K {
		for _, fn := range d.shutdownHooks {
			fn(code, reason)
		}
		return
	}
	// Lifecycle hooks are control-plane observers (fleet orchestrator):
	// deliver them on the host shard, one event-channel hop later.
	hooks := d.shutdownHooks
	d.K.Post(h.K, EventLatency, func() {
		for _, fn := range hooks {
			fn(code, reason)
		}
	})
}

// Destroy is the toolstack-side kill (xl destroy): callable from the host
// shard, it routes the shutdown to the domain's home shard so guest-side
// state keeps a single writer. Synchronous when the domain is colocated.
func (d *Domain) Destroy(code int, reason ShutdownReason) {
	if d.K == d.Host.K {
		d.Shutdown(code, reason)
		return
	}
	d.Host.K.Post(d.K, EventLatency, func() {
		d.Shutdown(code, reason)
	})
}

// Console appends a line to the domain's console ring.
func (d *Domain) Console(msg string) {
	d.console = append(d.console, fmt.Sprintf("[%8.3fs] %s", d.K.Now().Seconds(), msg))
}

// ConsoleLines returns the console contents.
func (d *Domain) ConsoleLines() []string { return d.console }

// AllocPort allocates an unbound event-channel port on d, homed on the
// domain's shard.
func (d *Domain) AllocPort() *Port {
	pt := &Port{Dom: d, K: d.K, Index: len(d.ports)}
	pt.Sig = d.K.NewSignal(fmt.Sprintf("%s-evtchn%d", d.Name, pt.Index))
	d.ports = append(d.ports, pt)
	return pt
}

// Connect binds a fresh pair of ports between domains a and b, returning
// (a's end, b's end). This stands in for the xenstore-mediated interdomain
// bind. Both ends are homed on a's shard — the backend handler that holds
// b's end is colocated with the guest — and b's end floats: it mirrors a's
// port index instead of entering b's port table, so b's (dom0's) indices
// stay independent of the order concurrent guest handshakes complete in.
func Connect(a, b *Domain) (*Port, *Port) {
	pa := a.AllocPort()
	pb := &Port{Dom: b, K: a.K, Index: pa.Index}
	pb.Sig = a.K.NewSignal(fmt.Sprintf("%s-evtchn%d-%s", b.Name, pa.Index, a.Name))
	pa.peer, pb.peer = pb, pa
	pa.deliver, pb.deliver = pb.receive, pa.receive
	return pa, pb
}

// Seal issues the seal hypercall (§2.3.3): the domain's page tables are
// verified W^X and frozen. The hypervisor change is deliberately tiny —
// the paper's patch was under 50 lines.
func (d *Domain) Seal(p *sim.Proc) error {
	h := d.Host
	h.mxHypercalls.Inc()
	h.mxSeals.Inc()
	p.Use(d.VCPU, hypercallCost+sealCost)
	if tr := d.K.Trace(); tr.Enabled() {
		tr.Instant(d.K.TraceTime(), "hypervisor", "seal", d.ID, 0,
			obs.Int("pages", int64(len(d.PT.pages))))
	}
	return d.PT.Seal()
}
