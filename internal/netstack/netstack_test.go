package netstack

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/arp"
	"repro/internal/cstruct"
	"repro/internal/ethernet"
	"repro/internal/hypervisor"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netback"
	"repro/internal/netif"
	"repro/internal/obs"
	"repro/internal/pvboot"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/xenstore"
)

// rig boots unikernel guests with full network stacks on one bridge.
type rig struct {
	t      *testing.T
	k      *sim.Kernel
	h      *hypervisor.Host
	bridge *netback.Bridge
	st     *xenstore.Store
	dom0   *hypervisor.Domain
}

func newRig(t *testing.T) *rig {
	k := sim.NewKernel(7)
	r := &rig{
		t:      t,
		k:      k,
		h:      hypervisor.NewHost(k, 4),
		bridge: netback.NewBridgeNamed(k, ""),
		st:     xenstore.New(),
	}
	k.Spawn("dom0-create", func(p *sim.Proc) {
		r.dom0 = r.h.Create(p, hypervisor.Config{Name: "dom0", Memory: 256 << 20})
	})
	return r
}

func mac(last byte) ethernet.MAC { return ethernet.MAC{0x00, 0x16, 0x3e, 0, 0, last} }
func ip(last byte) ipv4.Addr     { return ipv4.AddrFrom4(10, 0, 0, last) }

var mask = ipv4.AddrFrom4(255, 255, 255, 0)

// guest boots a domain with a stack and runs body once attached.
func (r *rig) guest(name string, cfg Config, body func(st *Stack, p *sim.Proc) int) {
	r.k.Spawn("create-"+name, func(tp *sim.Proc) {
		tp.Yield() // let dom0 exist first
		r.h.Create(tp, hypervisor.Config{
			Name:   name,
			Memory: 64 << 20,
			Entry: func(d *hypervisor.Domain, p *sim.Proc) int {
				vm, err := pvboot.Boot(d, p, pvboot.Options{BinarySize: 256 << 10, Seal: true})
				if err != nil {
					r.t.Errorf("%s: boot: %v", name, err)
					return 1
				}
				nic, err := netif.Attach(vm, r.bridge, r.dom0, r.st, cfg.MAC)
				if err != nil {
					r.t.Errorf("%s: attach: %v", name, err)
					return 1
				}
				return body(New(vm, nic, cfg), p)
			},
		})
	})
}

func TestPingThroughFullStack(t *testing.T) {
	r := newRig(t)
	const pings = 100
	replies := 0
	var rtts []time.Duration

	r.guest("target", Config{MAC: mac(2), IP: ip(2), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		return st.VM.Main(p, st.VM.S.Sleep(30*time.Second))
	})
	r.guest("pinger", Config{MAC: mac(1), IP: ip(1), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		p.Sleep(100 * time.Millisecond) // target boot
		sent := map[uint16]sim.Time{}
		done := lwt.NewPromise[struct{}](st.VM.S)
		st.ICMP.OnReply = func(from ipv4.Addr, e icmp.Echo) {
			replies++
			rtts = append(rtts, st.VM.S.K.Now().Sub(sent[e.Seq]))
			if e.Seq < pings {
				sent[e.Seq+1] = st.VM.S.K.Now()
				st.Ping(ip(2), 1, e.Seq+1, []byte("payload"))
			} else {
				done.Resolve(struct{}{})
			}
		}
		sent[1] = st.VM.S.K.Now()
		st.Ping(ip(2), 1, 1, []byte("payload"))
		return st.VM.Main(p, done)
	})
	if _, err := r.k.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if replies != pings {
		t.Fatalf("replies = %d, want %d", replies, pings)
	}
	for _, rtt := range rtts {
		if rtt <= 0 || rtt > 10*time.Millisecond {
			t.Fatalf("implausible RTT %v", rtt)
		}
	}
}

func TestARPResolutionHappensOnce(t *testing.T) {
	r := newRig(t)
	var requests int
	r.guest("target", Config{MAC: mac(2), IP: ip(2), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		return st.VM.Main(p, st.VM.S.Sleep(10*time.Second))
	})
	r.guest("pinger", Config{MAC: mac(1), IP: ip(1), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		out := st.ARP.Output
		st.ARP.Output = func(dst ethernet.MAC, pkt arp.Packet) {
			if pkt.Op == arp.OpRequest {
				requests++
			}
			out(dst, pkt)
		}
		p.Sleep(100 * time.Millisecond)
		done := lwt.NewPromise[struct{}](st.VM.S)
		n := 0
		st.ICMP.OnReply = func(ipv4.Addr, icmp.Echo) {
			n++
			if n < 20 {
				st.Ping(ip(2), 1, uint16(n+1), nil)
			} else {
				done.Resolve(struct{}{})
			}
		}
		st.Ping(ip(2), 1, 1, nil)
		return st.VM.Main(p, done)
	})
	if _, err := r.k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if requests != 1 {
		t.Errorf("ARP requests = %d for 20 pings, want 1 (cache)", requests)
	}
}

func TestUDPDatagramExchange(t *testing.T) {
	r := newRig(t)
	var got string
	r.guest("server", Config{MAC: mac(2), IP: ip(2), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		st.UDP.Bind(53, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
			st.SendUDP(src, srcPort, 53, append([]byte("re:"), data.Bytes()...))
			data.Release()
		})
		return st.VM.Main(p, st.VM.S.Sleep(5*time.Second))
	})
	r.guest("client", Config{MAC: mac(1), IP: ip(1), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		p.Sleep(100 * time.Millisecond)
		done := lwt.NewPromise[struct{}](st.VM.S)
		st.UDP.Bind(5353, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
			got = string(data.Bytes())
			data.Release()
			done.Resolve(struct{}{})
		})
		st.SendUDP(ip(2), 53, 5353, []byte("query"))
		return st.VM.Main(p, done)
	})
	if _, err := r.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got != "re:query" {
		t.Fatalf("got %q, want re:query", got)
	}
}

func TestTCPOverFullStack(t *testing.T) {
	r := newRig(t)
	payload := make([]byte, 200<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	var received bytes.Buffer

	r.guest("server", Config{MAC: mac(2), IP: ip(2), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		l, err := st.TCP.Listen(80)
		if err != nil {
			t.Error(err)
			return 1
		}
		var loop func(c *tcp.Conn) *lwt.Promise[struct{}]
		loop = func(c *tcp.Conn) *lwt.Promise[struct{}] {
			return lwt.Bind(c.Read(64<<10), func(data []byte) *lwt.Promise[struct{}] {
				if len(data) == 0 {
					c.Close()
					return c.Done()
				}
				received.Write(data)
				return loop(c)
			})
		}
		return st.VM.Main(p, lwt.Bind(l.Accept(), loop))
	})
	r.guest("client", Config{MAC: mac(1), IP: ip(1), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		p.Sleep(100 * time.Millisecond)
		main := lwt.Bind(st.TCP.Connect(ip(2), 80), func(c *tcp.Conn) *lwt.Promise[struct{}] {
			return lwt.Bind(c.Write(payload), func(int) *lwt.Promise[struct{}] {
				c.Close()
				return c.Done()
			})
		})
		return st.VM.Main(p, main)
	})
	if _, err := r.k.RunFor(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("TCP transfer corrupted: got %d bytes, want %d", received.Len(), len(payload))
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	r := newRig(t)
	big := make([]byte, 4000) // > MTU, must fragment
	for i := range big {
		big[i] = byte(i)
	}
	var got []byte
	r.guest("server", Config{MAC: mac(2), IP: ip(2), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		done := lwt.NewPromise[struct{}](st.VM.S)
		st.UDP.Bind(9, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
			got = append([]byte(nil), data.Bytes()...)
			data.Release()
			done.Resolve(struct{}{})
		})
		return st.VM.Main(p, done)
	})
	r.guest("client", Config{MAC: mac(1), IP: ip(1), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		p.Sleep(100 * time.Millisecond)
		st.SendUDP(ip(2), 9, 9999, big)
		return st.VM.Main(p, st.VM.S.Sleep(2*time.Second))
	})
	if _, err := r.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("fragmented datagram corrupted: got %d bytes, want %d", len(got), len(big))
	}
}

// A datagram for an unbound port reaches no socket; the one sent after it to
// the bound port arrives alone.
func TestUDPUnboundPortDropped(t *testing.T) {
	r := newRig(t)
	var got []string
	r.guest("server", Config{MAC: mac(2), IP: ip(2), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		st.UDP.Bind(4243, func(_ ipv4.Addr, _ uint16, data *cstruct.View) {
			got = append(got, data.String(0, data.Len()))
			data.Release()
		})
		return st.VM.Main(p, st.VM.S.Sleep(2*time.Second))
	})
	r.guest("client", Config{MAC: mac(1), IP: ip(1), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		p.Sleep(100 * time.Millisecond)
		st.SendUDP(ip(2), 4242, 1, []byte("nobody home"))
		st.SendUDP(ip(2), 4243, 1, []byte("bound"))
		return st.VM.Main(p, st.VM.S.Sleep(time.Second))
	})
	if _, err := r.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "bound" {
		t.Errorf("bound socket read %q, want only \"bound\"", got)
	}
}

func TestUDPEcho1000DatagramsNoLeak(t *testing.T) {
	r := newRig(t)
	var pool *cstruct.Pool
	count := 0
	r.guest("server", Config{MAC: mac(2), IP: ip(2), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		st.UDP.Bind(7, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
			st.SendUDP(src, srcPort, 7, data.Bytes())
			data.Release()
		})
		return st.VM.Main(p, st.VM.S.Sleep(60*time.Second))
	})
	r.guest("client", Config{MAC: mac(1), IP: ip(1), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		pool = st.VM.Dom.Pool
		p.Sleep(100 * time.Millisecond)
		done := lwt.NewPromise[struct{}](st.VM.S)
		st.UDP.Bind(7777, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
			data.Release()
			count++
			if count == 1000 {
				done.Resolve(struct{}{})
			} else {
				st.SendUDP(ip(2), 7, 7777, []byte("ball"))
			}
		})
		st.SendUDP(ip(2), 7, 7777, []byte("ball"))
		return st.VM.Main(p, done)
	})
	if _, err := r.k.RunFor(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Fatalf("echoed %d datagrams, want 1000", count)
	}
	// The client's page pool must have stabilised: pages are recycled,
	// not accumulated, across 1000 send/receive cycles (§3.4.1).
	if pool.Allocated > 120 {
		t.Errorf("pool allocated %d pages over 1000 echoes; zero-copy recycling broken", pool.Allocated)
	}
}

// One UDP datagram, sender guest to bridge to receiver guest — SendUDP,
// netif, both backends, the bridge, the receiver's rx event and UDP demux —
// allocates next to nothing once pools and free lists are warm: no closure
// per frame, per notification or per flush.
func TestDatagramPathAllocationBudget(t *testing.T) {
	r := newRig(t)
	got := 0
	var sender *Stack
	r.guest("sink", Config{MAC: mac(2), IP: ip(2), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		st.UDP.Bind(9, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
			data.Release()
			got++
		})
		return st.VM.Main(p, st.VM.S.Sleep(time.Hour))
	})
	r.guest("source", Config{MAC: mac(1), IP: ip(1), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		sender = st
		return st.VM.Main(p, st.VM.S.Sleep(time.Hour))
	})
	payload := []byte("one datagram")
	send := func() { sender.SendUDP(ip(2), 9, 9000, payload) }
	one := func() {
		r.k.After(0, send)
		if _, err := r.k.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.k.RunFor(time.Second); err != nil { // boot both guests
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // ARP, then warm every pool and free list
		one()
	}
	before := got
	if n := testing.AllocsPerRun(200, one); n > 2 {
		t.Errorf("one datagram guest→bridge→guest: %v allocations, budget 2", n)
	}
	if got-before != 201 { // AllocsPerRun runs one warm-up call
		t.Errorf("delivered %d of 201 datagrams", got-before)
	}
}

// A burst of 64 frames built in one instant leaves in four SendFrames calls
// of txBatchMax frames, each at the instant the vCPU finishes building its
// sixteenth frame — and once the burst records have been through the free
// list, handing the bursts over allocates nothing.
func TestTxBurstBatchesAndAllocatesNothing(t *testing.T) {
	r := newRig(t)
	const frames = 64
	var st *Stack
	r.guest("source", Config{MAC: mac(1), IP: ip(1), Netmask: mask}, func(s *Stack, p *sim.Proc) int {
		st = s
		return s.VM.Main(p, s.VM.S.Sleep(time.Hour))
	})
	if _, err := r.k.RunFor(time.Second); err != nil { // boot
		t.Fatal(err)
	}
	// The next hop is in the ARP cache and on no bridge port: the frames
	// take the whole transmit path and the bridge then drops them.
	st.ARP.Learn(ip(9), mac(9))
	payload := make([]byte, 1000)
	send := func() {
		for i := 0; i < frames; i++ {
			st.SendUDP(ip(9), 9, 9000, payload)
		}
	}
	burst := func() {
		r.k.After(0, send)
		if _, err := r.k.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // warm the page pool, the ring free lists, the burst records
		burst()
	}
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Errorf("a %d-frame burst allocates %v objects after warm-up, want 0", frames, n)
	}

	// Probes queued after the burst's own events sample the NIC at every
	// instant a frame's construction completes.
	type flush struct {
		after  time.Duration
		frames int
	}
	var got []flush
	tx := r.k.Metrics().Counter("net_packets_total", obs.L("dev", fmt.Sprintf("vif%d", st.VM.Dom.ID)), obs.L("dir", "tx"))
	t0, sent := r.k.Now(), tx.Value()
	probe := func() {
		if n := tx.Value(); n != sent {
			got = append(got, flush{r.k.Now().Sub(t0), int(n - sent)})
			sent = n
		}
	}
	r.k.After(0, func() {
		send()
		for i := 1; i <= frames; i++ {
			r.k.After(time.Duration(i)*st.Params.TxCost, probe)
		}
	})
	if _, err := r.k.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var want []flush
	for i := 1; i <= frames/txBatchMax; i++ {
		want = append(want, flush{time.Duration(i*txBatchMax) * st.Params.TxCost, txBatchMax})
	}
	if len(got) != len(want) {
		t.Fatalf("burst reached the NIC as %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("burst reached the NIC as %v, want %v", got, want)
		}
	}
}
