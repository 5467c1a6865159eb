package fleet

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/httpd"
	"repro/internal/hypervisor"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netback"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/sim"
)

// State is a replica's lifecycle position.
type State int

const (
	// Booting: summoned, domain building or stack coming up.
	Booting State = iota
	// Healthy: answering probes, eligible for new connections.
	Healthy
	// Draining: no new connections; retires when the last one closes.
	Draining
	// Dead: declared crashed (probe silence or guest exit); replaced.
	Dead
	// Retired: drained and shut down cleanly.
	Retired
)

func (s State) String() string {
	switch s {
	case Booting:
		return "booting"
	case Healthy:
		return "healthy"
	case Draining:
		return "draining"
	case Dead:
		return "dead"
	case Retired:
		return "retired"
	}
	return "unknown"
}

// Replica is one member of the fleet. Its Name and ID are stable handles:
// they identify the replica across crash-replace and live migration, while
// positional indices into Replicas() are only a storage detail.
type Replica struct {
	Index int // position in Replicas(); equals ID() numerically
	Name  string
	IP    ipv4.Addr
	MAC   ethernet.MAC
	Dep   *core.Deployment
	State State
	// Srv, when the appliance main sets it, lets the fleet read serving
	// stats (first-response instant for boot-to-first-byte).
	Srv *httpd.Server
	// SLOHist is this replica's labeled latency histogram (set when the
	// fleet runs an SLO watchdog); appliance mains wire it into their
	// server as MirrorLatency so the watchdog can attribute violations.
	SLOHist *obs.Histogram

	SummonedAt sim.Time
	UpAt       sim.Time

	lastReply  sim.Time
	drainStart sim.Time
	stop       *sim.Signal
	fleet      *Fleet
	migrations int // live migrations completed (names the per-incarnation stop signal)
}

// ID returns the replica's stable balancer handle.
func (r *Replica) ID() BackendID { return BackendID(r.Index) }

// Host returns the name of the physical host the replica currently runs
// on ("" before deployment resolves).
func (r *Replica) Host() string {
	if r.Dep != nil && r.Dep.Site != nil {
		return r.Dep.Site.Name
	}
	return ""
}

// bridge is the software bridge of the replica's current host (the first
// host before a placement resolves, matching single-host behaviour).
func (r *Replica) bridge() *netback.Bridge {
	if r.Dep != nil && r.Dep.Site != nil {
		return r.Dep.Site.Bridge
	}
	return r.fleet.pl.Bridge
}

// Done resolves when the fleet asks this replica to shut down; the
// appliance main waits on it and returns.
func (r *Replica) Done(env *core.Env) *lwt.Promise[struct{}] {
	pr := lwt.NewPromise[struct{}](env.VM.S)
	env.VM.S.OnSignal(r.stop, func() {
		if !pr.Completed() {
			pr.Resolve(struct{}{})
		}
	})
	return pr
}

// Spec configures a fleet.
type Spec struct {
	Name   string
	Build  build.Config
	Memory uint64
	// Main runs inside each replica; it should serve on the VIP and wait
	// on r.Done(env). Setting r.Srv lets the fleet read serving stats.
	Main func(env *core.Env, r *Replica) int

	// Addressing: replica i gets BaseIP+i and MAC core.MAC(MACBase+i);
	// the balancer takes LBIP and core.MAC(MACBase-1).
	VIP     ipv4.Addr
	BaseIP  ipv4.Addr
	Netmask ipv4.Addr
	LBIP    ipv4.Addr
	MACBase byte

	Min, Max int // the replica bounds, Min <= Max
	Policy   Policy

	// Hosts, when set, spreads replicas across these platform hosts
	// round-robin by replica index — the fleet's failure domains. Hosts
	// that have gone down are skipped, so crash-replace after a whole-host
	// kill lands on the survivors. Empty keeps the single-host behaviour.
	Hosts []string

	// ScaleUpConns is the active-connection capacity budgeted per replica:
	// the controller keeps ceil(active/ScaleUpConns) replicas (within
	// Min..Max). A quarter of it, rounded up, is the hysteresis floor: one
	// replica drains when the remaining ones would still be under it.
	ScaleUpConns int
	// P99TargetUS, when >0, also summons a replica whenever the fleet's
	// request p99 over the last control interval exceeds it (µs).
	P99TargetUS float64

	Interval      time.Duration // control-loop period
	ProbeInterval time.Duration // health-probe period; four without a reply mean dead
}

const (
	bootTimeout  = 5 * time.Second  // summon-to-first-probe-reply deadline
	drainTimeout = 10 * time.Second // force retirement of a stuck drain
)

// Fleet is the dom0-side controller: it owns the balancer, the replica set
// and the control loop that summons, drains, retires and replaces.
type Fleet struct {
	pl   *core.Platform
	spec Spec
	LB   *LB

	replicas []*Replica
	probeSeq uint16

	// ReqLatency is the fleet-wide request-latency histogram (µs); replica
	// mains should wire it into their servers.
	ReqLatency *obs.Histogram

	// SLO is the watchdog driving latency-based scaling (nil unless
	// Spec.P99TargetUS > 0).
	SLO *Watchdog

	// Events is the human-readable, deterministic lifecycle trace.
	Events []string

	// MaxReplicas is the high-water mark of live replicas.
	MaxReplicas int

	mxReplicas *obs.Gauge
	mxSummons  *obs.Counter
	mxRetires  *obs.Counter
	mxCrashes  *obs.Counter
}

// LatencyBounds are the histogram buckets (µs) used for fleet p99 control.
var LatencyBounds = []float64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1e6}

// New creates the balancer, summons Min replicas and starts the probe and
// control loops. Call before Platform.Run/RunFor.
func New(pl *core.Platform, spec Spec) *Fleet {
	k := pl.K
	f := &Fleet{
		pl:   pl,
		spec: spec,
		ReqLatency: k.Metrics().Histogram("httpd_request_us", LatencyBounds,
			obs.L("fleet", spec.Name)),
		mxReplicas: k.Metrics().Gauge("fleet_replicas", obs.L("fleet", spec.Name)),
		mxSummons:  k.Metrics().Counter("fleet_summons_total", obs.L("fleet", spec.Name)),
		mxRetires:  k.Metrics().Counter("fleet_retires_total", obs.L("fleet", spec.Name)),
		mxCrashes:  k.Metrics().Counter("fleet_crashes_total", obs.L("fleet", spec.Name)),
	}
	lbMAC := core.MAC(spec.MACBase - 1)
	f.LB = NewLB(k, pl.Bridge, lbMAC, spec.LBIP, spec.VIP, spec.Policy)
	f.LB.OnProbeReply = f.probeReply
	if spec.P99TargetUS > 0 {
		f.SLO = newWatchdog(f, spec.P99TargetUS)
	}
	for i := 0; i < spec.Min; i++ {
		f.summon("min-capacity")
	}
	k.After(spec.ProbeInterval, f.probeTick)
	k.After(spec.Interval, f.tick)
	return f
}

// Replicas returns the replica list (all lifetimes, index order).
func (f *Fleet) Replicas() []*Replica { return f.replicas }

// ReplicaByName returns the replica with the given stable name, or nil.
func (f *Fleet) ReplicaByName(name string) *Replica {
	for _, r := range f.replicas {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Live counts replicas that are booting, healthy or draining.
func (f *Fleet) Live() int {
	n := 0
	for _, r := range f.replicas {
		switch r.State {
		case Booting, Healthy, Draining:
			n++
		}
	}
	return n
}

// serving counts replicas that are booting or healthy (drainers don't
// count toward capacity).
func (f *Fleet) serving() int {
	n := 0
	for _, r := range f.replicas {
		switch r.State {
		case Booting, Healthy:
			n++
		}
	}
	return n
}

func (f *Fleet) event(format string, args ...any) {
	f.Events = append(f.Events,
		fmt.Sprintf("%10.3fs %s", f.pl.K.Now().Seconds(), fmt.Sprintf(format, args...)))
}

// scaleAction books one autoscaler decision: a labeled counter and a trace
// instant, both carrying the machine-readable reason.
func (f *Fleet) scaleAction(action, replica, reason string) {
	k := f.pl.K
	k.Metrics().Counter("fleet_scale_actions_total",
		obs.L("fleet", f.spec.Name), obs.L("action", action), obs.L("reason", reason)).Inc()
	if tr := k.Trace(); tr.Enabled() {
		tr.Instant(k.TraceTime(), "fleet", action, 0, 0,
			obs.Str("replica", replica), obs.Str("reason", reason))
	}
}

// summon boots a new replica and registers it with the balancer. reason is
// the machine-readable "because" recorded with the scaling action.
func (f *Fleet) summon(reason string) {
	k := f.pl.K
	idx := len(f.replicas)
	r := &Replica{
		Index:      idx,
		Name:       fmt.Sprintf("%s-%d", f.spec.Name, idx),
		IP:         f.spec.BaseIP + ipv4.Addr(idx),
		MAC:        core.MAC(f.spec.MACBase + byte(idx)),
		SummonedAt: k.Now(),
		fleet:      f,
	}
	r.stop = k.NewSignal(r.Name + "-stop")
	f.replicas = append(f.replicas, r)
	f.LB.AddBackend(r.ID(), r.MAC)
	if f.SLO != nil {
		f.SLO.track(r)
	}

	f.deploy(r, core.DeployOpts{
		Net:               &netstack.Config{MAC: r.MAC, IP: r.IP, Netmask: f.spec.Netmask, VIP: f.spec.VIP},
		ParallelToolstack: true,
		Host:              f.placement(idx),
		PCPU:              -1,
	})
	f.mxSummons.Inc()
	if live := f.Live(); live > f.MaxReplicas {
		f.MaxReplicas = live
	}
	f.mxReplicas.Set(float64(f.Live()))
	f.event("summon %s (%s)", r.Name, reason)
	f.scaleAction("summon", r.Name, reason)
}

// deploy builds r's appliance with the fleet's standard wiring (exit hook,
// replica main) and the given options; summon and ResumeMigrated share it.
func (f *Fleet) deploy(r *Replica, opts core.DeployOpts) {
	cfg := f.spec.Build
	cfg.Name = r.Name
	r.Dep = f.pl.Deploy(core.Unikernel{
		Build:  cfg,
		Memory: f.spec.Memory,
		Main: func(env *core.Env) int {
			env.VM.Dom.OnShutdown(func(code int, reason hypervisor.ShutdownReason) {
				f.onExit(r, reason)
			})
			return f.spec.Main(env, r)
		},
	}, opts)
}

// placement names the host replica idx lands on under Spec.Hosts:
// round-robin over the hosts that are still alive. Empty (no Hosts, or every
// named host down) means the platform's first host.
func (f *Fleet) placement(idx int) string {
	var live []string
	for _, h := range f.spec.Hosts {
		if s := f.pl.SiteByName(h); s != nil && s.Alive() {
			live = append(live, h)
		}
	}
	if len(live) == 0 {
		return ""
	}
	return live[idx%len(live)]
}

// BeginMigrate freezes replica r for live migration: the domain suspends
// (ShutdownSuspend — the exit hook knows not to crash-replace it), its
// bridge port is cut so in-flight frames stop dead, and the old guest main
// is released once the suspend has landed. The balancer keeps the backend
// registered; probes and new connections black-hole until ResumeMigrated
// brings the replica back — that gap is the blackout internal/datacenter
// measures.
func (f *Fleet) BeginMigrate(r *Replica) {
	k := f.pl.K
	f.event("migrate-freeze %s host=%s", r.Name, r.Host())
	f.scaleAction("migrate-freeze", r.Name, "migration")
	r.lastReply = k.Now() // forgive probe silence across the blackout
	old := r.stop
	if d := r.Dep.Domain; d != nil {
		d.Destroy(0, hypervisor.ShutdownSuspend)
	}
	r.bridge().DetachMAC(r.MAC)
	// Release the old main only after the suspend reason has landed on the
	// guest shard, so its poweroff-on-return path sees a dead domain.
	k.After(4*hypervisor.EventLatency, old.Set)
}

// ResumeMigrated redeploys a frozen replica on the destination host from
// its migrated snapshot: same name, stable ID, MAC and IP; resume-cost
// domain build; reconnect-only start-of-day. The caller has already copied
// the image and device state across the fabric and taught it the MAC's new
// location. The replica reports ready (SignalReady) when its server
// listens again.
func (f *Fleet) ResumeMigrated(r *Replica, host string) *core.Deployment {
	k := f.pl.K
	r.migrations++
	r.stop = k.NewSignal(fmt.Sprintf("%s-stop-m%d", r.Name, r.migrations))
	r.lastReply = k.Now()
	f.deploy(r, core.DeployOpts{
		Net:               &netstack.Config{MAC: r.MAC, IP: r.IP, Netmask: f.spec.Netmask, VIP: f.spec.VIP},
		ParallelToolstack: true,
		Host:              host,
		PCPU:              -1,
		Resume:            true,
	})
	f.event("migrate-resume %s host=%s", r.Name, host)
	f.scaleAction("migrate-resume", r.Name, "migration")
	return r.Dep
}

// probeTick sends one health probe to every probe-worthy replica.
func (f *Fleet) probeTick() {
	f.probeSeq++
	for _, r := range f.replicas {
		switch r.State {
		case Booting, Healthy, Draining:
			f.LB.Probe(r.ID(), f.probeSeq)
		}
	}
	f.pl.K.After(f.spec.ProbeInterval, f.probeTick)
}

// probeReply handles a replica's echo reply; the first one marks it up.
func (f *Fleet) probeReply(id BackendID, seq uint16) {
	if int(id) < 0 || int(id) >= len(f.replicas) {
		return
	}
	r := f.replicas[id]
	if r.State == Dead || r.State == Retired {
		return
	}
	k := f.pl.K
	r.lastReply = k.Now()
	if r.State == Booting {
		r.State = Healthy
		r.UpAt = k.Now()
		f.LB.SetUp(id)
		f.event("up %s boot_ms=%d", r.Name, r.UpAt.Sub(r.SummonedAt).Milliseconds())
	}
}

// tick is the control loop: health, retirement, then capacity.
func (f *Fleet) tick() {
	k := f.pl.K
	now := k.Now()

	// Health: probe silence or a boot that never answered means dead.
	for _, r := range f.replicas {
		switch r.State {
		case Healthy, Draining:
			if now.Sub(r.lastReply) > 4*f.spec.ProbeInterval {
				f.declareDead(r, "probe-timeout")
			}
		case Booting:
			if now.Sub(r.SummonedAt) > bootTimeout {
				f.declareDead(r, "boot-timeout")
			}
		}
	}

	// Retirement: a drain finishes when its last connection closes, or is
	// forced when it overstays drainTimeout.
	for _, r := range f.replicas {
		if r.State != Draining {
			continue
		}
		if f.LB.BackendActive(r.ID()) == 0 {
			f.retire(r, "drained")
		} else if now.Sub(r.drainStart) > drainTimeout {
			f.retire(r, "drain-timeout")
		}
	}

	// Capacity: connection pressure plus the SLO watchdog. Every scaling
	// action below carries the reason that triggered it.
	active := f.LB.ActiveConns()
	avail := f.serving()
	connNeed := (active + f.spec.ScaleUpConns - 1) / f.spec.ScaleUpConns
	need := connNeed
	sloWhy := ""
	if f.SLO != nil {
		sloWhy = f.SLO.evaluate()
		if sloWhy != "" && avail < f.spec.Max && need <= avail {
			need = avail + 1
		}
	}
	if need < f.spec.Min {
		need = f.spec.Min
	}
	if need > f.spec.Max {
		need = f.spec.Max
	}
	for avail < need {
		reason := "min-capacity"
		if connNeed > avail {
			reason = "conn-pressure"
		} else if sloWhy != "" {
			reason = sloWhy
		}
		f.summon(reason)
		avail++
	}
	if avail > need && avail > f.spec.Min && f.calm() && sloWhy == "" &&
		active <= (f.spec.ScaleUpConns+3)/4*(avail-1) {
		f.drainOne("idle-capacity")
	}

	f.mxReplicas.Set(float64(f.Live()))
	k.After(f.spec.Interval, f.tick)
}

// calm reports that no replica is mid-transition (boot or drain), the
// quiet precondition for a scale-down step.
func (f *Fleet) calm() bool {
	for _, r := range f.replicas {
		if r.State == Booting || r.State == Draining {
			return false
		}
	}
	return true
}

// drainOne picks the least-loaded healthy replica (tie: highest index, so
// the longest-lived replicas stay) and starts draining it.
func (f *Fleet) drainOne(reason string) {
	var victim *Replica
	for _, r := range f.replicas {
		if r.State != Healthy {
			continue
		}
		if victim == nil || f.LB.BackendActive(r.ID()) <= f.LB.BackendActive(victim.ID()) {
			victim = r
		}
	}
	if victim != nil {
		f.drain(victim, reason)
	}
}

// drain starts draining r: the balancer stops steering new connections to
// it, established ones finish undisturbed, and the replica retires when the
// last connection closes.
func (f *Fleet) drain(r *Replica, reason string) {
	if r.State != Healthy && r.State != Booting {
		return
	}
	r.State = Draining
	r.drainStart = f.pl.K.Now()
	f.LB.SetDraining(r.ID())
	f.event("drain %s (%s) active=%d", r.Name, reason, f.LB.BackendActive(r.ID()))
	f.scaleAction("drain", r.Name, reason)
}

// retire shuts a drained replica down cleanly.
func (f *Fleet) retire(r *Replica, why string) {
	r.State = Retired
	f.LB.RemoveBackend(r.ID())
	f.mxRetires.Inc()
	f.event("retire %s (%s)", r.Name, why)
	r.stop.Set()
}

// declareDead handles a crashed replica: deregister, cut its bridge port
// (a hung guest may still transmit), and kill the domain if it is somehow
// still alive. The capacity loop summons the replacement (microreboot as a
// first-class fleet operation, §5.3).
func (f *Fleet) declareDead(r *Replica, why string) {
	if r.State == Dead || r.State == Retired {
		return
	}
	r.State = Dead
	f.LB.RemoveBackend(r.ID())
	r.bridge().DetachMAC(r.MAC)
	f.mxCrashes.Inc()
	f.event("dead %s (%s)", r.Name, why)
	if d := r.Dep.Domain; d != nil {
		// Destroy posts the kill into the guest's shard; reading d.Dead
		// here would race when the guest is homed elsewhere.
		d.Destroy(137, hypervisor.ShutdownCrash)
	}
	r.stop.Set()
}

// onExit is the domain lifecycle hook: a guest that powers off or crashes
// outside the fleet's control is detected here and replaced. A suspend
// exit is the migration freeze — BeginMigrate already cut the bridge port,
// and the replica is coming back, so it is not declared dead.
func (f *Fleet) onExit(r *Replica, reason hypervisor.ShutdownReason) {
	if reason == hypervisor.ShutdownSuspend {
		f.event("exit %s reason=%s", r.Name, reason)
		return
	}
	r.bridge().DetachMAC(r.MAC)
	if r.State == Dead || r.State == Retired {
		f.event("exit %s reason=%s", r.Name, reason)
		return
	}
	f.event("exit %s reason=%s", r.Name, reason)
	f.declareDead(r, "guest-exit")
}

// BootToFirstByteMS returns, for each replica whose server answered at
// least one request, summon-to-first-response in milliseconds (index
// order; -1 for replicas that never served).
func (f *Fleet) BootToFirstByteMS() []int64 {
	out := make([]int64, len(f.replicas))
	for i, r := range f.replicas {
		if r.Srv != nil && r.Srv.FirstRespAt != 0 {
			out[i] = r.Srv.FirstRespAt.Sub(r.SummonedAt).Milliseconds()
		} else {
			out[i] = -1
		}
	}
	return out
}
