package arp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cstruct"
	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/sim"
)

var (
	myIP  = ipv4.AddrFrom4(10, 0, 0, 1)
	myMAC = ethernet.MAC{0, 0, 0, 0, 0, 1}
	hisIP = ipv4.AddrFrom4(10, 0, 0, 2)
	hisHW = ethernet.MAC{0, 0, 0, 0, 0, 2}
)

func TestPacketRoundTrip(t *testing.T) {
	v := cstruct.Make(PacketLen)
	in := Packet{Op: OpReply, SenderHW: hisHW, SenderIP: hisIP, TargetHW: myMAC, TargetIP: myIP}
	Encode(v, in)
	out, err := Parse(v.Sub(0, PacketLen))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
}

func TestParseRejectsNonEthernetIPv4(t *testing.T) {
	v := cstruct.Make(PacketLen)
	Encode(v, Packet{Op: OpRequest})
	v.PutBE16(0, 6) // not Ethernet hardware type
	if _, err := Parse(v.Sub(0, PacketLen)); err == nil {
		t.Error("non-ethernet ARP accepted")
	}
}

// FuzzARPParse: Parse never panics on any bytes, and Encode writes back
// whatever it accepts as a packet that parses to the same value.
func FuzzARPParse(f *testing.F) {
	for _, p := range []Packet{
		{Op: OpRequest, SenderHW: hisHW, SenderIP: hisIP, TargetIP: myIP},
		{Op: OpReply, SenderHW: myMAC, SenderIP: myIP, TargetHW: hisHW, TargetIP: hisIP},
	} {
		v := cstruct.Make(PacketLen)
		Encode(v, p)
		f.Add(v.Bytes())
		f.Add(v.Bytes()[:PacketLen-1])
	}
	f.Add(make([]byte, PacketLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Parse(cstruct.Wrap(b))
		if err != nil {
			return
		}
		v := cstruct.Make(PacketLen)
		Encode(v, p)
		if back, err := Parse(v); err != nil || back != p {
			t.Fatalf("Parse(Encode(%+v)) = %+v, %v", p, back, err)
		}
	})
}

// newHandler builds a handler on a scheduler with captured output.
func newHandler(k *sim.Kernel) (*Handler, *[]Packet, *lwt.Scheduler) {
	s := lwt.NewScheduler(k)
	h := NewHandler(s, myIP, myMAC)
	var sent []Packet
	h.Output = func(dst ethernet.MAC, p Packet) { sent = append(sent, p) }
	return h, &sent, s
}

func TestRepliesToRequestsForOurIP(t *testing.T) {
	k := sim.NewKernel(1)
	h, sent, _ := newHandler(k)
	h.Input(Packet{Op: OpRequest, SenderHW: hisHW, SenderIP: hisIP, TargetIP: myIP})
	if len(*sent) != 1 || (*sent)[0].Op != OpReply || (*sent)[0].SenderHW != myMAC {
		t.Fatalf("sent = %+v", *sent)
	}
	// Sender learned as a side effect.
	if m, ok := h.Cached(hisIP); !ok || m != hisHW {
		t.Error("sender not learned")
	}
}

func TestIgnoresRequestsForOthers(t *testing.T) {
	k := sim.NewKernel(1)
	h, sent, _ := newHandler(k)
	h.Input(Packet{Op: OpRequest, SenderHW: hisHW, SenderIP: hisIP, TargetIP: ipv4.AddrFrom4(10, 0, 0, 99)})
	if len(*sent) != 0 {
		t.Errorf("replied to a request for someone else: %+v", *sent)
	}
}

func TestResolveHitIsImmediate(t *testing.T) {
	k := sim.NewKernel(1)
	h, sent, _ := newHandler(k)
	h.Learn(hisIP, hisHW)
	got := ethernet.MAC{}
	h.Resolve(hisIP, func(m ethernet.MAC, err error) { got = m })
	if got != hisHW {
		t.Error("cache hit not immediate")
	}
	if len(*sent) != 0 {
		t.Errorf("a cache hit sent %+v", *sent)
	}
}

func TestResolveMissSendsRequestAndWakesOnReply(t *testing.T) {
	k := sim.NewKernel(1)
	h, sent, s := newHandler(k)
	var got ethernet.MAC
	k.Spawn("main", func(p *sim.Proc) {
		done := lwt.NewPromise[struct{}](s)
		h.Resolve(hisIP, func(m ethernet.MAC, err error) {
			got = m
			done.Resolve(struct{}{})
		})
		if len(*sent) != 1 || (*sent)[0].Op != OpRequest {
			t.Fatalf("no request broadcast: %+v", *sent)
		}
		// Reply arrives.
		h.Input(Packet{Op: OpReply, SenderHW: hisHW, SenderIP: hisIP, TargetHW: myMAC, TargetIP: myIP})
		s.Run(p, done)
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != hisHW {
		t.Errorf("resolved %v, want %v", got, hisHW)
	}
}

func TestResolveRetriesThenFails(t *testing.T) {
	k := sim.NewKernel(1)
	h, sent, s := newHandler(k)
	var gotErr error
	k.Spawn("main", func(p *sim.Proc) {
		done := lwt.NewPromise[struct{}](s)
		h.Resolve(hisIP, func(m ethernet.MAC, err error) {
			gotErr = err
			done.Resolve(struct{}{})
		})
		s.Run(p, done)
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("unanswered resolution did not fail")
	}
	if len(*sent) != maxRetries {
		t.Errorf("sent %d requests, want %d retries", len(*sent), maxRetries)
	}
	if k.Now() < sim.Time(time.Duration(maxRetries-1)*retryInterval) {
		t.Error("retries not spaced by retryInterval")
	}
	_ = errors.Is
}

func TestConcurrentResolvesShareOneRequest(t *testing.T) {
	k := sim.NewKernel(1)
	h, sent, s := newHandler(k)
	calls := 0
	k.Spawn("main", func(p *sim.Proc) {
		done := lwt.NewPromise[struct{}](s)
		for i := 0; i < 5; i++ {
			h.Resolve(hisIP, func(m ethernet.MAC, err error) {
				calls++
				if calls == 5 {
					done.Resolve(struct{}{})
				}
			})
		}
		if len(*sent) != 1 {
			t.Errorf("5 resolves sent %d requests, want 1", len(*sent))
		}
		h.Input(Packet{Op: OpReply, SenderHW: hisHW, SenderIP: hisIP})
		s.Run(p, done)
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("callbacks = %d, want 5", calls)
	}
}

func TestGratuitousProbe(t *testing.T) {
	k := sim.NewKernel(1)
	h, sent, _ := newHandler(k)
	h.GratuitousProbe()
	if len(*sent) != 1 || (*sent)[0].TargetIP != myIP || (*sent)[0].SenderIP != myIP {
		t.Errorf("gratuitous probe = %+v", *sent)
	}
}
