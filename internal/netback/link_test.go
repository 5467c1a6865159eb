package netback

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestGbpsQuantisation(t *testing.T) {
	cases := []struct {
		gbits float64
		want  time.Duration
	}{
		{1, 8 * time.Nanosecond},
		{2, 4 * time.Nanosecond},
		{8, 1 * time.Nanosecond},
		// Above the 1ns/byte ceiling the cost clamps instead of silently
		// truncating to a zero-cost (infinite-bandwidth) link.
		{10, 1 * time.Nanosecond},
		{40, 1 * time.Nanosecond},
		// Sub-integer rates round to the nearest nanosecond.
		{3, 3 * time.Nanosecond},
	}
	for _, c := range cases {
		if got := Gbps(c.gbits); got != c.want {
			t.Errorf("Gbps(%g) = %v, want %v", c.gbits, got, c.want)
		}
	}
}

// TestLinkReserve pins the hop latency math: delivery is the max of the
// per-packet CPU work and the per-byte serialisation, plus propagation.
func TestLinkReserve(t *testing.T) {
	k := sim.NewKernel(1)
	cpu := k.NewCPU("sw")
	wire := k.NewCPU("wire")
	l := Link{
		PerPacketCost: 2 * time.Microsecond,
		PerByteCost:   4 * time.Nanosecond,
		Propagation:   10 * time.Microsecond,
	}

	// Small frame: CPU-bound (100B * 4ns = 400ns < 2us).
	if at := l.Reserve(cpu, wire, 100); at != sim.Time(12*time.Microsecond) {
		t.Errorf("small frame delivery at %v, want 12us", at)
	}
	// Large frame on fresh resources: wire-bound (1500B * 4ns = 6us), but
	// the wire is already busy 400ns from the first frame.
	if at := l.Reserve(cpu, wire, 1500); at != sim.Time(16400*time.Nanosecond) {
		t.Errorf("large frame delivery at %v, want 16.4us", at)
	}
}

// TestLinkReserveBulk pins the migration-copy cost: serialisation plus
// propagation, no per-frame switching charge.
func TestLinkReserveBulk(t *testing.T) {
	k := sim.NewKernel(1)
	wire := k.NewCPU("wire")
	l := Link{
		PerPacketCost: time.Hour, // must not be charged
		PerByteCost:   1 * time.Nanosecond,
		Propagation:   5 * time.Microsecond,
	}
	n := 1 << 20
	want := sim.Time(time.Duration(n)*time.Nanosecond + 5*time.Microsecond)
	if at := l.ReserveBulk(wire, n); at != want {
		t.Errorf("bulk copy done at %v, want %v", at, want)
	}
}

// TestBridgeLink pins the bridge's wire model: the per-frame and per-byte
// costs, and the propagation the cluster lookahead reads.
func TestBridgeLink(t *testing.T) {
	want := Link{
		PerPacketCost: 2 * time.Microsecond,
		PerByteCost:   4 * time.Nanosecond,
		Propagation:   10 * time.Microsecond,
	}
	if bridgeLink != want {
		t.Errorf("bridgeLink = %+v, want %+v", bridgeLink, want)
	}
	if BridgePropagation != want.Propagation {
		t.Errorf("BridgePropagation = %v, want %v", BridgePropagation, want.Propagation)
	}
}
