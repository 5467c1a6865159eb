// Package fleet is the dom0 orchestrator for elastic appliance fleets
// (paper §5.2: "new appliances can be provisioned in response to load
// spikes" — the summoned-on-demand model where a unikernel's boot time is
// short enough to hide behind a TCP handshake). It pairs a virtual L4 load
// balancer living in the bridge path with a controller that boots and
// retires web-server replicas as observed load moves, treating microreboot
// of a crashed replica as a first-class operation.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/arp"
	"repro/internal/bufpool"
	"repro/internal/cstruct"
	"repro/internal/ethernet"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/netback"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Policy selects how the balancer spreads new connections.
type Policy int

const (
	// RoundRobin rotates new connections across healthy replicas.
	RoundRobin Policy = iota
	// LeastConns sends each new connection to the replica with the fewest
	// active connections (ties break toward the lowest index).
	LeastConns
	// Hash steers statelessly: every segment of a (client IP, port) flow
	// rendezvous-hashes to the same healthy replica, so the balancer keeps
	// no per-connection table at all — the property that lets one balancer
	// front a million connections in O(1) memory. The cost: ActiveConns and
	// BackendActive read zero (there is nothing to count), so the policy
	// suits fixed-size fleets (Spec.Min == Spec.Max) where the controller
	// never needs per-replica connection counts, and removing a backend
	// remaps (and so breaks) the flows pinned to it.
	Hash
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastConns:
		return "least-conns"
	case Hash:
		return "hash"
	}
	return "unknown"
}

// ParsePolicy parses the CLI spelling of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "round-robin", "rr":
		return RoundRobin, nil
	case "least-conns", "lc":
		return LeastConns, nil
	case "hash", "h":
		return Hash, nil
	}
	return 0, fmt.Errorf("fleet: unknown lb policy %q (want round-robin, least-conns or hash)", s)
}

// drainLinger is how long a FIN-ed connection's steering entry survives so
// the closing handshake still routes to the same replica.
const drainLinger = 2 * time.Second

// BackendID is a stable balancer handle for one replica. IDs are assigned
// once and never reused (a removed backend leaves a hole), so operations
// addressed by ID cannot race slot reuse the way positional indices could;
// the fleet assigns each replica's ID at summon time, equal to its Index.
type BackendID int

// backend is one replica from the balancer's point of view.
type backend struct {
	id       BackendID
	mac      ethernet.MAC
	up       bool // passed its first health probe
	draining bool // no new connections
	active   int  // connections currently steered here
}

type connKey struct {
	ip   ipv4.Addr
	port uint16
}

type conn struct {
	key     connKey
	be      *backend
	closing bool
	done    bool // active already released
}

// LB is the virtual L4 balancer: a bridge endpoint that owns the VIP's
// hardware address and steers each new TCP connection to a replica, which
// then answers the client directly with the VIP as its source (direct
// server return) — established traffic costs the balancer nothing on the
// reply path. It also runs ICMP health probes to every replica through the
// same (impaired) bridge the clients use.
type LB struct {
	K      *sim.Kernel
	bridge *netback.Bridge
	mac    ethernet.MAC
	ip     ipv4.Addr // probe source address (the balancer answers ARP for it)
	vip    ipv4.Addr
	policy Policy

	backends []*backend // ID order; nil slots for removed replicas
	conns    map[connKey]*conn
	rr       int
	forgetFn func(any, uint64) // forget, bound once

	// OnProbeReply is called when the replica behind id answers probe seq.
	OnProbeReply func(id BackendID, seq uint16)

	mxSteered   *obs.Counter
	mxNoBackend *obs.Counter
	mxProbes    *obs.Counter
	mxReplies   *obs.Counter
	mxActive    *obs.Gauge
}

// NewLB creates the balancer and attaches it to the bridge.
func NewLB(k *sim.Kernel, b *netback.Bridge, mac ethernet.MAC, ip, vip ipv4.Addr, policy Policy) *LB {
	lb := &LB{
		K: k, bridge: b, mac: mac, ip: ip, vip: vip, policy: policy,
		conns:       map[connKey]*conn{},
		mxSteered:   k.Metrics().Counter("lb_steered_conns_total"),
		mxNoBackend: k.Metrics().Counter("lb_no_backend_total"),
		mxProbes:    k.Metrics().Counter("lb_probes_total"),
		mxReplies:   k.Metrics().Counter("lb_probe_replies_total"),
		mxActive:    k.Metrics().Gauge("lb_active_conns"),
	}
	lb.forgetFn = lb.forget
	b.Attach(lb, b.K)
	return lb
}

// MAC implements netback.Endpoint.
func (lb *LB) MAC() ethernet.MAC { return lb.mac }

// AddBackend registers a replica under a fresh stable ID (not yet up — it
// goes live on its first probe reply via SetUp).
func (lb *LB) AddBackend(id BackendID, mac ethernet.MAC) {
	for len(lb.backends) <= int(id) {
		lb.backends = append(lb.backends, nil)
	}
	lb.backends[id] = &backend{id: id, mac: mac}
}

// SetUp marks the backend healthy (eligible for new connections).
func (lb *LB) SetUp(id BackendID) {
	if be := lb.byID(id); be != nil {
		be.up = true
	}
}

// SetDraining stops steering new connections to the backend; established
// connections keep flowing to it.
func (lb *LB) SetDraining(id BackendID) {
	if be := lb.byID(id); be != nil {
		be.draining = true
	}
}

// BackendActive returns how many connections are steered to the backend.
func (lb *LB) BackendActive(id BackendID) int {
	if be := lb.byID(id); be != nil {
		return be.active
	}
	return 0
}

// ActiveConns returns the total steered connections still open.
func (lb *LB) ActiveConns() int {
	total := 0
	for _, be := range lb.backends {
		if be != nil {
			total += be.active
		}
	}
	return total
}

// RemoveBackend drops the backend and forgets its connections (a crashed
// or retired replica); clients recover by retransmitting, which re-steers.
// The ID is never reused.
func (lb *LB) RemoveBackend(id BackendID) {
	be := lb.byID(id)
	if be == nil {
		return
	}
	lb.backends[id] = nil
	for key, cn := range lb.conns { // deletions only: order-independent
		if cn.be == be {
			lb.releaseConn(cn)
			delete(lb.conns, key)
		}
	}
}

func (lb *LB) byID(id BackendID) *backend {
	if id < 0 || int(id) >= len(lb.backends) {
		return nil
	}
	return lb.backends[id]
}

// pick chooses the replica for a new connection among the healthy ones, in
// ID order.
func (lb *LB) pick() *backend {
	var best *backend
	healthy := 0
	for _, be := range lb.backends {
		if be != nil && be.up && !be.draining {
			if best == nil || be.active < best.active {
				best = be
			}
			healthy++
		}
	}
	if healthy == 0 {
		return nil
	}
	if lb.policy == LeastConns {
		return best
	}
	// RoundRobin: the (rr mod healthy)-th healthy backend.
	nth := lb.rr % healthy
	lb.rr++
	for _, be := range lb.backends {
		if be != nil && be.up && !be.draining {
			if nth == 0 {
				return be
			}
			nth--
		}
	}
	return nil
}

// Probe sends one ICMP echo to the backend with the given sequence number;
// the echo ID carries the backend ID so replies demux without state.
// Probes traverse the same bridge as client traffic, so loss and latency
// impairments apply to them too.
func (lb *LB) Probe(id BackendID, seq uint16) {
	be := lb.byID(id)
	if be == nil {
		return
	}
	lb.mxProbes.Inc()
	v := cstruct.Make(ethernet.HeaderLen + ipv4.HeaderLen + icmp.HeaderLen)
	ethernet.Encode(v, be.mac, lb.mac, ethernet.TypeIPv4)
	body := v.Sub(ethernet.HeaderLen+ipv4.HeaderLen, icmp.HeaderLen)
	n := icmp.EncodeEcho(body, icmp.Echo{Type: icmp.TypeEchoRequest, ID: uint16(id), Seq: seq})
	body.Release()
	iph := v.Sub(ethernet.HeaderLen, ipv4.HeaderLen)
	ipv4.Encode(iph, ipv4.Header{ID: seq, Proto: ipv4.ProtoICMP, Src: lb.ip, Dst: lb.vip}, n)
	iph.Release()
	lb.bridge.TransmitBytes(lb.mac, v.Slice(0, ethernet.HeaderLen+ipv4.HeaderLen+n))
	v.Release()
}

// Deliver implements netback.Endpoint: the balancer's receive path.
func (lb *LB) Deliver(f *bufpool.Buf) { lb.deliver(f) }

func (lb *LB) deliver(f *bufpool.Buf) {
	b := f.Bytes()
	if len(b) < ethernet.HeaderLen {
		f.Release()
		return
	}
	switch etype := uint16(b[12])<<8 | uint16(b[13]); etype {
	case ethernet.TypeARP:
		lb.arpInput(b)
		f.Release()
	case ethernet.TypeIPv4:
		lb.ipInput(b, f)
	default:
		f.Release()
	}
}

// arpInput answers requests for the VIP and the balancer's probe address.
func (lb *LB) arpInput(b []byte) {
	p, err := arp.Parse(cstruct.Wrap(b[ethernet.HeaderLen:]))
	if err != nil || p.Op != arp.OpRequest || (p.TargetIP != lb.vip && p.TargetIP != lb.ip) {
		return
	}
	v := cstruct.Make(ethernet.HeaderLen + arp.PacketLen)
	ethernet.Encode(v, p.SenderHW, lb.mac, ethernet.TypeARP)
	r := v.Sub(ethernet.HeaderLen, arp.PacketLen)
	arp.Encode(r, arp.Packet{
		Op:       arp.OpReply,
		SenderHW: lb.mac, SenderIP: p.TargetIP,
		TargetHW: p.SenderHW, TargetIP: p.SenderIP,
	})
	r.Release()
	lb.bridge.TransmitBytes(lb.mac, v.Bytes())
	v.Release()
}

// ipInput handles probe replies (to the balancer's own address) and steers
// TCP segments addressed to the VIP.
func (lb *LB) ipInput(b []byte, f *bufpool.Buf) {
	if len(b) < ethernet.HeaderLen+ipv4.HeaderLen {
		f.Release()
		return
	}
	ip := b[ethernet.HeaderLen:]
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4.HeaderLen || len(ip) < ihl {
		f.Release()
		return
	}
	proto := ip[9]
	src := ipv4.Addr(uint32(ip[12])<<24 | uint32(ip[13])<<16 | uint32(ip[14])<<8 | uint32(ip[15]))
	dst := ipv4.Addr(uint32(ip[16])<<24 | uint32(ip[17])<<16 | uint32(ip[18])<<8 | uint32(ip[19]))
	switch {
	case proto == ipv4.ProtoICMP && dst == lb.ip:
		pkt := ip[ihl:]
		if len(pkt) >= icmp.HeaderLen && pkt[0] == icmp.TypeEchoReply {
			id := BackendID(uint16(pkt[4])<<8 | uint16(pkt[5]))
			seq := uint16(pkt[6])<<8 | uint16(pkt[7])
			lb.mxReplies.Inc()
			if lb.OnProbeReply != nil {
				lb.OnProbeReply(id, seq)
			}
		}
		f.Release()
	case proto == ipv4.ProtoTCP && dst == lb.vip:
		seg := ip[ihl:]
		if len(seg) < 14 {
			f.Release()
			return
		}
		srcPort := uint16(seg[0])<<8 | uint16(seg[1])
		flags := seg[13]
		lb.steerTCP(src, srcPort, flags, f)
	default:
		f.Release()
	}
}

// TCP flag bits (standard octet-13 layout).
const (
	tcpFIN = 1 << 0
	tcpSYN = 1 << 1
	tcpRST = 1 << 2
	tcpACK = 1 << 4
)

// lbMix is a splitmix64-style finalizer, the rendezvous-hash primitive.
func lbMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pickHash rendezvous-hashes a flow onto the healthy backend set: each
// backend scores lbMix(flow ^ lbMix(id)) and the highest score wins, so a
// backend joining or leaving remaps only the flows that scored it highest
// (~1/n of them), and every segment of a flow lands on the same replica
// with no table lookup.
func (lb *LB) pickHash(src ipv4.Addr, srcPort uint16) *backend {
	flow := lbMix(uint64(src)<<16 | uint64(srcPort))
	var best *backend
	var bestScore uint64
	for _, be := range lb.backends {
		if be == nil || !be.up || be.draining {
			continue
		}
		score := lbMix(flow ^ lbMix(uint64(be.id)+0x9e3779b97f4a7c15))
		if best == nil || score > bestScore {
			best, bestScore = be, score
		}
	}
	return best
}

// steerTCP routes one client→VIP segment. Under the stateful policies, new
// connections (a pure SYN with no steering entry) pick a replica and
// everything else follows its entry; segments with no entry and no SYN are
// dropped — after a replica crash the client's retransmitted SYN re-steers
// to a survivor. Under Hash, every segment recomputes its replica from the
// flow tuple alone and no entry is ever created.
func (lb *LB) steerTCP(src ipv4.Addr, srcPort uint16, flags uint8, f *bufpool.Buf) {
	if lb.policy == Hash {
		be := lb.pickHash(src, srcPort)
		if be == nil {
			lb.mxNoBackend.Inc()
			f.Release()
			return
		}
		if flags&tcpSYN != 0 && flags&tcpACK == 0 {
			lb.steered(src, srcPort, be, f)
		}
		lb.bridge.Steer(be.mac, f)
		return
	}
	key := connKey{src, srcPort}
	cn := lb.conns[key]
	if cn == nil {
		if flags&tcpSYN == 0 || flags&tcpACK != 0 {
			lb.mxNoBackend.Inc()
			f.Release()
			return
		}
		be := lb.pick()
		if be == nil {
			lb.mxNoBackend.Inc()
			f.Release()
			return
		}
		cn = &conn{key: key, be: be}
		lb.conns[key] = cn
		be.active++
		lb.mxActive.Add(1)
		lb.steered(src, srcPort, be, f)
	}
	switch {
	case flags&tcpRST != 0:
		lb.releaseConn(cn)
		delete(lb.conns, key)
	case flags&tcpFIN != 0 && !cn.closing:
		cn.closing = true
		lb.releaseConn(cn)
		lb.K.AtArg(lb.K.Now().Add(drainLinger), lb.forgetFn, cn, 0)
	}
	lb.bridge.Steer(cn.be.mac, f)
}

// steered counts and traces a new connection's steering decision. A
// sampled request's trace id rides the SYN's frame descriptor, so the
// decision joins the request's causal arc.
func (lb *LB) steered(src ipv4.Addr, srcPort uint16, be *backend, f *bufpool.Buf) {
	lb.mxSteered.Inc()
	if tr := lb.K.Trace(); tr.Enabled() {
		tr.Instant(lb.K.TraceTime(), "lb", "steer", 0, 0,
			obs.Str("client", src.String()), obs.Int("port", int64(srcPort)),
			obs.Int("replica", int64(be.id)))
		if f.Span != 0 {
			tr.FlowStep(lb.K.TraceTime(), "trace", "lb-steer", 0, 0, f.Span,
				obs.U64("trace_id", f.Span), obs.Int("replica", int64(be.id)))
		}
	}
}

// forget drops a FIN-ed connection's steering entry once its linger is over,
// unless the key has been steered afresh since.
func (lb *LB) forget(arg any, _ uint64) {
	cn := arg.(*conn)
	if lb.conns[cn.key] == cn {
		delete(lb.conns, cn.key)
	}
}

// releaseConn returns a connection's slot on its backend exactly once.
func (lb *LB) releaseConn(cn *conn) {
	if cn.done {
		return
	}
	cn.done = true
	cn.be.active--
	lb.mxActive.Add(-1)
}
