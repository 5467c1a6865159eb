package netstack

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cstruct"
	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/udp"
)

// The paper's central security claim (§2.3.2, §4.2): pervasive type-safety
// makes the appliance robust against memory overflows from hostile
// external input. Our analogue: arbitrary garbage injected at every layer
// of the stack must be rejected and counted, never panic, and never leak
// I/O pages.

// hostileRig boots one guest and returns its stack plus a frame injector
// that delivers raw bytes to the guest as if from the wire.
func hostileRig(t *testing.T) (*Stack, func(frame []byte), func(d time.Duration)) {
	t.Helper()
	r := newRig(t)
	var stack *Stack
	r.guest("victim", Config{MAC: mac(2), IP: ip(2), Netmask: mask}, func(st *Stack, p *sim.Proc) int {
		stack = st
		st.UDP.Bind(53, func(src ipv4.Addr, sp uint16, data *cstruct.View) { data.Release() })
		return st.VM.Main(p, st.VM.S.Sleep(time.Hour))
	})
	// Boot it.
	if _, err := r.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	inject := func(frame []byte) {
		r.bridge.TransmitBytes(mac(1), frame)
	}
	advance := func(d time.Duration) {
		if _, err := r.k.RunFor(d); err != nil {
			t.Fatal(err)
		}
	}
	return stack, inject, advance
}

// hostileFrame builds a frame addressed to the victim with random garbage
// after the Ethernet header (sometimes a plausible IPv4 prefix to reach
// deeper layers).
func hostileFrame(rng *rand.Rand, dst ethernet.MAC) []byte {
	n := 14 + rng.Intn(1600)
	f := make([]byte, n)
	rng.Read(f)
	copy(f[0:6], dst[:])
	if n >= 34 && rng.Intn(2) == 0 {
		// Plausible ethertype + IPv4 version/IHL so parsing goes deeper.
		f[12], f[13] = 0x08, 0x00
		f[14] = 0x45
		if rng.Intn(2) == 0 {
			// Aim at the bound UDP port with a bogus length.
			f[23] = 17 // proto UDP
		}
	}
	return f
}

func TestHostileFramesNeverPanicAndAreCounted(t *testing.T) {
	stack, inject, advance := hostileRig(t)
	rng := rand.New(rand.NewSource(666))
	const frames = 2000
	for i := 0; i < frames; i++ {
		inject(hostileFrame(rng, mac(2)))
		if i%64 == 0 {
			advance(10 * time.Millisecond)
		}
	}
	advance(time.Second)
	// Garbage is dropped with a reason, and none of it may panic (a panic
	// would have failed the sim run already).
	if drops := stack.VM.S.K.Metrics().Snapshot().Sum("net_drops_total", obs.L("dir", "rx")); drops < frames/2 {
		t.Errorf("only %d of %d hostile frames dropped with a reason", drops, frames)
	}
}

func TestHostileFramesDoNotLeakPages(t *testing.T) {
	stack, inject, advance := hostileRig(t)
	rng := rand.New(rand.NewSource(1234))
	pool := stack.VM.Dom.Pool
	for i := 0; i < 1000; i++ {
		inject(hostileFrame(rng, mac(2)))
		if i%32 == 0 {
			advance(10 * time.Millisecond)
		}
	}
	advance(time.Second)
	// Steady state: only the ring pages + posted RX buffers are live.
	if pool.InUse > 2+31+4 {
		t.Errorf("pool InUse = %d after hostile burst; rejected frames leaked pages", pool.InUse)
	}
}

// Property: the UDP parser never accepts a datagram whose claimed length
// exceeds the buffer (the class of bug behind Bind's parsing CVEs, §4.2).
func TestPropUDPParserLengthSafety(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > 2048 {
			raw = raw[:2048]
		}
		v := cstruct.Wrap(append([]byte(nil), raw...))
		h, data, err := udp.Parse(v)
		if err != nil {
			return true // rejected is fine
		}
		ok := h.Length <= len(raw) && data.Len() == h.Length-8
		data.Release()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the IPv4 parser never returns a payload larger than the input.
func TestPropIPv4ParserBounds(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > 2048 {
			raw = raw[:2048]
		}
		v := cstruct.Wrap(append([]byte(nil), raw...))
		_, payload, err := ipv4.Parse(v)
		if err != nil {
			return true
		}
		ok := payload.Len() <= len(raw)
		payload.Release()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
