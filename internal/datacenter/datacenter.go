// Package datacenter models a multi-host machine room: each core.Site is
// one physical host whose dom0 bridge joins a two-tier ToR/spine fabric,
// and live migration moves a running unikernel between hosts by copying
// its sealed image and device state across that fabric (paper §6: sealed,
// megabyte-scale appliances are small enough to relocate in milliseconds,
// which is what makes the fleet's failure domains more than notation).
//
// The fabric is a learning L2 switch over the host bridges: it reuses
// netback.Link verbatim for every hop, so a ToR traversal is costed by the
// same latency math as a bridge traversal — per-frame switching CPU,
// per-byte serialisation, fixed propagation. Hosts in the same rack reach
// each other through their ToR ports alone; cross-rack paths add a spine
// hop. All fabric state lives on the control shard (kernel 0), where every
// host bridge is homed.
package datacenter

import (
	"fmt"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/fleet"
	"repro/internal/hypervisor"
	"repro/internal/netback"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The fabric: 10GbE-class ToR and spine links (both quantise to the
// model's 1ns/byte line-rate ceiling, ~8 Gbit/s; the spine's edge is its
// lower switching cost, not a finer per-byte rate), two hosts per rack, a
// quarter-megabyte of device state.
var (
	// torLink is the host-to-top-of-rack hop, charged once leaving the
	// source host and once entering the destination host.
	torLink = netback.Link{
		PerPacketCost: 500 * time.Nanosecond,
		PerByteCost:   netback.Gbps(10),
		Propagation:   5 * time.Microsecond,
	}
	// spineLink is the rack-to-rack hop, charged only on cross-rack paths.
	spineLink = netback.Link{
		PerPacketCost: 250 * time.Nanosecond,
		PerByteCost:   netback.Gbps(40),
		Propagation:   15 * time.Microsecond,
	}
)

const (
	// hostsPerRack groups platform hosts (in rack order) under ToRs.
	hostsPerRack = 2
	// deviceState is the bytes of device and vCPU state copied alongside
	// the sealed image during a migration (ring contents, timer state).
	deviceState = 256 << 10
)

// DC is the fabric controller. Create it with New after every AddHost
// call: it wires an uplink port into each host bridge present at that
// point.
type DC struct {
	pl *core.Platform
	k  *sim.Kernel

	torCPU    []*sim.CPU // per-host ToR switching CPU
	torWire   []*sim.CPU // per-host ToR serialisation resource
	spineCPU  *sim.CPU
	spineWire *sim.CPU

	where map[ethernet.MAC]int // learned MAC -> host index
	down  []bool

	mxForward  *obs.Counter
	mxFlood    *obs.Counter
	mxSteer    *obs.Counter
	mxUnknown  *obs.Counter
	mxBytes    *obs.Counter
	mxDrops    func(reason string) *obs.Counter
	mxKills    *obs.Counter
	mxMigrates *obs.Counter
	mxBlackout *obs.Histogram
}

// blackoutBounds bucket the migration blackout histogram (µs).
var blackoutBounds = []float64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000}

// New builds the fabric over every host the platform currently has and
// plugs an uplink into each host bridge. The platform's hosts must all be
// racked (core.Platform.AddHost) before New.
func New(pl *core.Platform) *DC {
	k := pl.K
	m := k.Metrics()
	dc := &DC{
		pl:        pl,
		k:         k,
		spineCPU:  k.NewCPU("spine"),
		spineWire: k.NewCPU("spine-wire"),
		where:     map[ethernet.MAC]int{},
		down:      make([]bool, len(pl.Sites())),
		mxForward: m.Counter("dc_fabric_frames_total", obs.L("kind", "forward")),
		mxFlood:   m.Counter("dc_fabric_frames_total", obs.L("kind", "flood")),
		mxSteer:   m.Counter("dc_fabric_frames_total", obs.L("kind", "steer")),
		mxUnknown: m.Counter("dc_fabric_frames_total", obs.L("kind", "unknown-flood")),
		mxBytes:   m.Counter("dc_fabric_bytes_total"),
		mxDrops: func(reason string) *obs.Counter {
			return m.Counter("dc_fabric_drops_total", obs.L("reason", reason))
		},
		mxKills:    m.Counter("dc_host_kills_total"),
		mxMigrates: m.Counter("dc_migrations_total"),
		mxBlackout: m.Histogram("dc_migration_blackout_us", blackoutBounds),
	}
	for i, s := range pl.Sites() {
		dc.torCPU = append(dc.torCPU, k.NewCPU(s.Name+"-tor"))
		dc.torWire = append(dc.torWire, k.NewCPU(s.Name+"-tor-wire"))
		s.Bridge.SetUplink(func(src, dst ethernet.MAC, steer bool, f *bufpool.Buf) {
			dc.carry(i, src, dst, steer, f)
		})
	}
	return dc
}

// rack maps a host index to its rack.
func rack(host int) int { return host / hostsPerRack }

// carry is each host bridge's uplink (netback.Uplink). It runs on kernel 0,
// in bridge context, at the instant the frame cleared the source bridge.
// A steered frame goes to the host its MAC was learned on: the balancer
// only steers to replicas that answered probes, so the MAC is normally
// learned, and a miss (e.g. mid-migration) drops the frame for the
// client's retransmit to recover. Any other frame teaches the fabric its
// source; a broadcast floods to every other live host, a learned MAC takes
// the point-to-point path, and an unlearned one floods, exactly as a real
// L2 fabric handles unknown unicast.
func (dc *DC) carry(srcHost int, src, dst ethernet.MAC, steer bool, f *bufpool.Buf) {
	if steer {
		j, ok := dc.where[dst]
		if !ok || j == srcHost || dc.down[j] || dc.down[srcHost] {
			dc.drop("steer-miss", f)
			return
		}
		dc.mxSteer.Inc()
		dc.account(f.Len())
		dc.route(srcHost, j, dst, true, f)
		return
	}
	if dc.down[srcHost] {
		dc.drop("host-down", f)
		return
	}
	dc.where[src] = srcHost
	if dst == ethernet.Broadcast {
		dc.mxFlood.Inc()
		dc.account(f.Len())
		dc.floodFrom(srcHost, dst, f)
		return
	}
	j, ok := dc.where[dst]
	switch {
	case !ok:
		dc.mxUnknown.Inc()
		dc.floodFrom(srcHost, dst, f)
	case j == srcHost || dc.down[j]:
		// Stale learning (the owner moved or died): drop; the next
		// broadcast or a migration's announcement repairs the table.
		dc.drop("stale-route", f)
	default:
		dc.mxForward.Inc()
		dc.account(f.Len())
		dc.route(srcHost, j, dst, false, f)
	}
}

// floodFrom delivers one reference of f into every live host but the
// source, in host order (determinism), each over its own fabric path.
// Consumes the caller's reference.
func (dc *DC) floodFrom(srcHost int, dst ethernet.MAC, f *bufpool.Buf) {
	for j := range dc.pl.Sites() {
		if j == srcHost || dc.down[j] {
			continue
		}
		dc.route(srcHost, j, dst, false, f.Retain())
	}
	f.Release()
}

func (dc *DC) drop(reason string, f *bufpool.Buf) {
	dc.mxDrops(reason).Inc()
	f.Release()
}

func (dc *DC) account(n int) { dc.mxBytes.Add(int64(n)) }

// route charges the fabric path from host i to host j for frame f and
// injects it into j's bridge, toward dst, at the instant it arrives there:
// source ToR, spine when the racks differ, destination ToR. Each hop
// reserves its switch CPU and wire when the frame actually reaches it, so
// queueing backs up hop by hop like a real cut-through fabric under load.
func (dc *DC) route(i, j int, dst ethernet.MAC, steer bool, f *bufpool.Buf) {
	k, n := dc.k, f.Len()
	lastHop := func() {
		at := torLink.Reserve(dc.torCPU[j], dc.torWire[j], n)
		k.At(at, func() { dc.pl.Sites()[j].Bridge.Inject(dst, steer, f) })
	}
	at := torLink.Reserve(dc.torCPU[i], dc.torWire[i], n)
	if rack(i) == rack(j) {
		k.At(at, lastHop)
		return
	}
	k.At(at, func() {
		at2 := spineLink.Reserve(dc.spineCPU, dc.spineWire, n)
		k.At(at2, lastHop)
	})
}

// bulkPath moves n bytes from host i to host j store-and-forward (the
// whole snapshot clears each hop before the next begins — conservative for
// a streamed copy) and returns the completion instant.
func (dc *DC) bulkPath(p *sim.Proc, i, j, n int) {
	hop := func(l netback.Link, wire *sim.CPU) {
		at := l.ReserveBulk(wire, n)
		p.Sleep(at.Sub(dc.k.Now()))
	}
	hop(torLink, dc.torWire[i])
	if rack(i) != rack(j) {
		hop(spineLink, dc.spineWire)
	}
	hop(torLink, dc.torWire[j])
}

// suspendSettle is how long Migrate waits after the freeze for the suspend
// to land on the guest shard and the device rings to quiesce.
const suspendSettle = 20 * time.Microsecond

// Migrate live-migrates fleet replica r to dstHost and blocks p until the
// replica serves again: freeze on the source, copy the sealed image plus
// device state across the fabric at modeled bandwidth, announce the MAC's
// new home, resume from the snapshot, and wait for the replica's server to
// listen. Returns the blackout — freeze instant to ready-to-serve — which
// is also recorded in the dc_migration_blackout_us histogram. In-flight
// TCP connections do not survive (the resumed stack is fresh); clients
// recover by retransmitting, exactly as after a crash-replace, but the
// replica itself — identity, address, backend slot — carries over.
func (dc *DC) Migrate(p *sim.Proc, fl *fleet.Fleet, r *fleet.Replica, dstHost string) (time.Duration, error) {
	src := r.Dep.Site
	dst := dc.pl.SiteByName(dstHost)
	if dst == nil {
		return 0, fmt.Errorf("datacenter: unknown destination host %q", dstHost)
	}
	if !dst.Alive() {
		return 0, fmt.Errorf("datacenter: destination host %s is down", dstHost)
	}
	if src == dst {
		return 0, fmt.Errorf("datacenter: %s already on %s", r.Name, dstHost)
	}
	t0 := dc.k.Now()
	fl.BeginMigrate(r)
	p.Sleep(suspendSettle)

	n := deviceState
	if img := r.Dep.Image; img != nil {
		n += img.SizeKB << 10
	}
	dc.bulkPath(p, src.Index, dst.Index, n)

	// The fabric's gratuitous-ARP equivalent: traffic stops chasing the
	// source host.
	dc.where[r.MAC] = dst.Index
	dep := fl.ResumeMigrated(r, dstHost)
	d := dep.WaitCreated(p)
	if dep.Err != nil {
		return 0, fmt.Errorf("datacenter: resume %s on %s: %w", r.Name, dstHost, dep.Err)
	}
	d.WaitReady(p)

	blackout := dc.k.Now().Sub(t0)
	dc.mxMigrates.Inc()
	dc.mxBlackout.Observe(float64(blackout.Microseconds()))
	return blackout, nil
}

// KillHost fails a whole host: every domain on it (dom0 included) is
// destroyed, its fabric port goes dark in both directions, and placement
// stops resolving to it. The fleet sees its replicas die and heals across
// the surviving failure domains.
func (dc *DC) KillHost(name string) error {
	s := dc.pl.SiteByName(name)
	if s == nil {
		return fmt.Errorf("datacenter: unknown host %q", name)
	}
	if !s.Alive() {
		return nil
	}
	s.SetDown()
	dc.down[s.Index] = true
	dc.mxKills.Inc()
	for _, d := range s.Host.Domains() {
		// Destroy routes the kill to each guest's home shard; it no-ops on
		// domains that are already dead.
		d.Destroy(137, hypervisor.ShutdownCrash)
	}
	return nil
}
