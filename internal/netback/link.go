package netback

import (
	"time"

	"repro/internal/sim"
)

// Link is the wire model shared by every network hop in the system: the
// host bridge (dom0 software switch), and — in internal/datacenter — the
// ToR and spine stages of the multi-host fabric. One type owns the latency
// math, so a fabric hop and a bridge traversal are costed by the same code
// rather than by a second copy of it.
//
// A hop has three cost components:
//   - PerPacketCost: switching CPU work charged per frame, independent of
//     size (header parse, table lookup, descriptor handling);
//   - PerByteCost: serialisation time per byte — the inverse of the link's
//     bandwidth (use Gbps to convert);
//   - Propagation: fixed signal/notification latency added after the frame
//     has cleared both the switching CPU and the wire.
type Link struct {
	PerPacketCost time.Duration // switching CPU work per forwarded frame
	PerByteCost   time.Duration // serialisation per byte (sets line rate)
	Propagation   time.Duration // propagation/notification latency per hop
}

// Gbps returns the per-byte serialisation cost of a link running at the
// given bandwidth in gigabits per second. PerByteCost has 1ns granularity,
// so rates quantise: anything at or above 8 Gbit/s costs 1ns/byte (the
// model's line-rate ceiling), and slower rates round to the nearest
// nanosecond per byte.
func Gbps(gbits float64) time.Duration {
	d := time.Duration(8/gbits + 0.5) // ns per byte at gbits Gbit/s
	if d < 1 {
		d = 1
	}
	return d
}

// Reserve charges one frame of n bytes against the hop's switching CPU and
// wire, returning the delivery instant: the frame has cleared the hop when
// both the per-packet CPU work and the per-byte serialisation are done,
// plus the propagation latency. This is the single copy of the latency
// math; the bridge's forward path and the datacenter fabric both call it.
func (l Link) Reserve(cpu, wire *sim.CPU, n int) sim.Time {
	cpuDone := cpu.Reserve(l.PerPacketCost)
	wireDone := wire.Reserve(time.Duration(n) * l.PerByteCost)
	at := cpuDone
	if wireDone > at {
		at = wireDone
	}
	return at.Add(l.Propagation)
}

// ReserveBulk charges a bulk transfer of n bytes (a migration image copy,
// not a frame) on the wire alone and returns its completion instant. Bulk
// copies pay serialisation and propagation but not per-frame switching
// work: the transfer is one long burst, and charging PerPacketCost per
// virtual "frame" would only re-derive the same line rate.
func (l Link) ReserveBulk(wire *sim.CPU, n int) sim.Time {
	return wire.Reserve(time.Duration(n) * l.PerByteCost).Add(l.Propagation)
}

// BridgePropagation is the host bridge's propagation latency: the least
// delay on every path between a guest and the bridge, which is why the
// cluster lookahead (internal/core) is this constant.
const BridgePropagation = 10 * time.Microsecond

// bridgeLink is the host's one-hop wire model: a backend domain that can
// switch slightly above gigabit line rate, matching the paper's testbed
// (§4.1.3).
var bridgeLink = Link{
	PerPacketCost: 2 * time.Microsecond,
	PerByteCost:   4 * time.Nanosecond, // ~2 Gbit/s link ceiling
	Propagation:   BridgePropagation,
}
