package netback

import (
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/ethernet"
	"repro/internal/obs"
	"repro/internal/sim"
)

// timeEndpoint records delivery instants.
type timeEndpoint struct {
	mac ethernet.MAC
	k   *sim.Kernel
	at  []sim.Time
}

func (e *timeEndpoint) MAC() ethernet.MAC { return e.mac }
func (e *timeEndpoint) Deliver(f *bufpool.Buf) {
	f.Release()
	e.at = append(e.at, e.k.Now())
}

func TestFaultsDropAll(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBridgeNamed(k, "")
	dst := &stubEndpoint{mac: ethernet.MAC{2}}
	b.Attach(dst, k)
	b.SetFaults(Faults{Drop: 1})
	const n = 10
	for i := 0; i < n; i++ {
		b.TransmitBytes(ethernet.MAC{1}, frame(dst.mac, ethernet.MAC{1}, 100))
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.frames) != 0 {
		t.Errorf("%d frames delivered through Drop=1", len(dst.frames))
	}
	if got := b.mxFaultDrop.Value(); got != n {
		t.Errorf("bridge_faults_total{kind=drop} = %d, want %d", got, n)
	}
}

func TestFaultsDuplicateDeliversTwoCopies(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBridgeNamed(k, "")
	dst := &stubEndpoint{mac: ethernet.MAC{2}}
	b.Attach(dst, k)
	b.SetFaults(Faults{Dup: 1})
	b.TransmitBytes(ethernet.MAC{1}, frame(dst.mac, ethernet.MAC{1}, 64))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.frames) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(dst.frames))
	}
	if got := k.Metrics().Counter("bridge_faults_total", obs.L("kind", "dup")).Value(); got != 1 {
		t.Errorf("bridge_faults_total{kind=dup} = %d, want 1", got)
	}
	// The duplicate shares the immutable pooled buffer by reference (no
	// byte copy); both deliveries must carry the frame and the refcount
	// must drain to zero once both endpoints released it.
	if string(dst.frames[0]) != string(dst.frames[1]) {
		t.Error("duplicate contents differ from the original frame")
	}
	if leaked := b.pool.InUse(); leaked != 0 {
		t.Errorf("frame pool leaked %d buffers after duplicate delivery", leaked)
	}
}

func TestFaultsJitterDelaysDelivery(t *testing.T) {
	base := func(jitter time.Duration) sim.Time {
		k := sim.NewKernel(1)
		b := NewBridgeNamed(k, "")
		dst := &timeEndpoint{mac: ethernet.MAC{2}, k: k}
		b.Attach(dst, k)
		b.SetFaults(Faults{Jitter: jitter})
		b.TransmitBytes(ethernet.MAC{1}, frame(dst.mac, ethernet.MAC{1}, 100))
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(dst.at) != 1 {
			t.Fatalf("delivered %d frames", len(dst.at))
		}
		return dst.at[0]
	}
	clean := base(0)
	jittered := base(time.Millisecond)
	if jittered <= clean {
		t.Errorf("jittered delivery at %v, not after clean %v", jittered, clean)
	}
	if jittered > clean.Add(time.Millisecond) {
		t.Errorf("jitter %v exceeds configured bound", jittered.Sub(clean))
	}
}

func TestFaultsReorderDelaysWithinWindow(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBridgeNamed(k, "")
	dst := &timeEndpoint{mac: ethernet.MAC{2}, k: k}
	b.Attach(dst, k)
	b.SetFaults(Faults{Reorder: 1})
	const n = 8
	for i := 0; i < n; i++ {
		b.TransmitBytes(ethernet.MAC{1}, frame(dst.mac, ethernet.MAC{1}, 100))
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.at) != n {
		t.Fatalf("delivered %d frames, want %d", len(dst.at), n)
	}
	if got := k.Metrics().Counter("bridge_faults_total", obs.L("kind", "reorder")).Value(); got != n {
		t.Errorf("bridge_faults_total{kind=reorder} = %d, want %d", got, n)
	}
	// All frames were transmitted at the same instant; reordering must
	// scatter their arrivals rather than preserve FIFO arrival times.
	distinct := map[sim.Time]bool{}
	for _, at := range dst.at {
		distinct[at] = true
	}
	if len(distinct) < 2 {
		t.Error("reordering produced no scatter in delivery times")
	}
}

// TestFaultsDeterministic: identical seeds and fault configs must produce
// identical drop/duplicate decisions and delivery instants.
func TestFaultsDeterministic(t *testing.T) {
	run := func() (int, []sim.Time, int64, int64) {
		k := sim.NewKernel(42)
		b := NewBridgeNamed(k, "")
		dst := &timeEndpoint{mac: ethernet.MAC{2}, k: k}
		b.Attach(dst, k)
		b.SetFaults(Faults{Drop: 0.3, Dup: 0.2, Reorder: 0.3, Jitter: time.Millisecond})
		for i := 0; i < 100; i++ {
			b.TransmitBytes(ethernet.MAC{1}, frame(dst.mac, ethernet.MAC{1}, 100+i))
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return len(dst.at), dst.at, b.mxFaultDrop.Value(), k.Metrics().Counter("bridge_faults_total", obs.L("kind", "dup")).Value()
	}
	n1, at1, drops1, dups1 := run()
	n2, at2, drops2, dups2 := run()
	if n1 != n2 || drops1 != drops2 || dups1 != dups2 {
		t.Fatalf("same-seed runs diverged: delivered %d/%d drops %d/%d dups %d/%d",
			n1, n2, drops1, drops2, dups1, dups2)
	}
	for i := range at1 {
		if at1[i] != at2[i] {
			t.Fatalf("delivery %d at %v vs %v between same-seed runs", i, at1[i], at2[i])
		}
	}
	if drops1 == 0 || dups1 == 0 {
		t.Errorf("fault mix injected nothing (drops=%d dups=%d); rates too low", drops1, dups1)
	}
}

// TestFaultsDisabledDeliversEverything: the zero-value Faults config makes
// no RNG draws and delivers every frame (same-seed byte-identity with
// fault-free builds depends on this).
func TestFaultsDisabledDeliversEverything(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBridgeNamed(k, "")
	dst := &stubEndpoint{mac: ethernet.MAC{2}}
	b.Attach(dst, k)
	r := k.Rand()
	before := r.Int63()
	const n = 50
	for i := 0; i < n; i++ {
		b.TransmitBytes(ethernet.MAC{1}, frame(dst.mac, ethernet.MAC{1}, 100))
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.frames) != n {
		t.Fatalf("delivered %d/%d frames with faults disabled", len(dst.frames), n)
	}
	// Re-derive the stream position: the bridge must not have consumed RNG.
	k2 := sim.NewKernel(1)
	r2 := k2.Rand()
	if first := r2.Int63(); first != before {
		t.Skip("kernel RNG not comparable across instances")
	}
	if got, want := r.Int63(), r2.Int63(); got != want {
		t.Error("fault-free bridge consumed RNG draws; same-seed byte-identity broken")
	}
}
