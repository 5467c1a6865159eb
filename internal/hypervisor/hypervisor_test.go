package hypervisor

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func newHost(t *testing.T) (*sim.Kernel, *Host) {
	t.Helper()
	k := sim.NewKernel(1)
	return k, NewHost(k, 2)
}

func TestDomainBuildTimeScalesWithMemory(t *testing.T) {
	k, h := newHost(t)
	var small, large time.Duration
	k.Spawn("toolstack", func(p *sim.Proc) {
		t0 := p.Now()
		h.Create(p, Config{Name: "small", Memory: 64 << 20})
		small = p.Now().Sub(t0)
		t1 := p.Now()
		h.Create(p, Config{Name: "large", Memory: 2048 << 20})
		large = p.Now().Sub(t1)
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("build(2048MiB)=%v <= build(64MiB)=%v; want growth with memory", large, small)
	}
}

func TestSynchronousToolstackSerializes(t *testing.T) {
	k, h := newHost(t)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("creator", func(p *sim.Proc) {
			h.Create(p, Config{Name: "d", Memory: 256 << 20})
			done[i] = p.Now()
		})
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] == done[1] {
		t.Error("synchronous builds completed simultaneously; should serialize on dom0 CPU")
	}
}

func TestParallelToolstackOverlaps(t *testing.T) {
	k, h := newHost(t)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("creator", func(p *sim.Proc) {
			h.CreateParallel(p, Config{Name: "d", Memory: 256 << 20})
			done[i] = p.Now()
		})
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != done[1] {
		t.Errorf("parallel builds finished at %v and %v; want simultaneous", done[0], done[1])
	}
}

func TestGuestEntryRunsAndExitCodePropagates(t *testing.T) {
	k, h := newHost(t)
	k.Spawn("toolstack", func(p *sim.Proc) {
		h.Create(p, Config{Name: "guest", Memory: 32 << 20, Entry: func(d *Domain, p *sim.Proc) int {
			d.Console("hello")
			return 42
		}})
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	d := h.Domains()[0]
	if !d.Dead || d.ExitCode != 42 {
		t.Errorf("domain dead=%v code=%d, want dead with code 42", d.Dead, d.ExitCode)
	}
	if len(d.ConsoleLines()) != 1 {
		t.Errorf("console lines = %d, want 1", len(d.ConsoleLines()))
	}
}

func TestEventChannelDelivery(t *testing.T) {
	k, h := newHost(t)
	var gotAt sim.Time
	k.Spawn("toolstack", func(p *sim.Proc) {
		a := h.Create(p, Config{Name: "a", Memory: 32 << 20})
		b := h.Create(p, Config{Name: "b", Memory: 32 << 20})
		pa, pb := Connect(a, b)
		k.Spawn("receiver", func(rp *sim.Proc) {
			rp.Wait(pb.Sig)
			gotAt = rp.Now()
		})
		k.Spawn("sender", func(sp *sim.Proc) {
			sp.Sleep(time.Millisecond)
			pa.NotifyAsync()
		})
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotAt == 0 {
		t.Fatal("event never delivered")
	}
	if d := gotAt.Sub(0); d < time.Millisecond {
		t.Errorf("delivered at %v, before send", d)
	}
}

func TestSealEnforcesWxorX(t *testing.T) {
	pt := NewPageTable(new(obs.Counter))
	pt.Map(0x1000, PageR|PageX)       // text
	pt.Map(0x2000, PageR|PageW)       // data
	pt.Map(0x3000, PageR|PageW|PageX) // violation
	if err := pt.Seal(); err == nil {
		t.Fatal("seal accepted a W+X page")
	}
	pt.Unmap(0x3000)
	if err := pt.Seal(); err != nil {
		t.Fatalf("seal refused a W^X table: %v", err)
	}
}

func TestSealedTableRefusesModification(t *testing.T) {
	refused := new(obs.Counter)
	pt := NewPageTable(refused)
	pt.Map(0x1000, PageR|PageX)
	pt.Map(0x2000, PageR|PageW)
	if err := pt.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x4000, PageR|PageW|PageX); err == nil {
		t.Error("sealed table accepted an executable mapping")
	}
	if err := pt.Map(0x2000, PageR|PageW|PageIO); err == nil {
		t.Error("sealed table allowed replacing an existing entry")
	}
	if err := pt.Unmap(0x1000); err == nil {
		t.Error("sealed table allowed unmapping text")
	}
	if refused.Value() != 3 {
		t.Errorf("refusals counted = %d, want 3", refused.Value())
	}
}

func TestSealedTableAllowsFreshNonExecIOMappings(t *testing.T) {
	pt := NewPageTable(new(obs.Counter))
	pt.Map(0x1000, PageR|PageX)
	if err := pt.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x9000, PageR|PageW|PageIO); err != nil {
		t.Errorf("sealed table refused a fresh non-exec I/O mapping: %v", err)
	}
	if err := pt.Unmap(0x9000); err != nil {
		t.Errorf("sealed table refused unmapping an I/O page: %v", err)
	}
}

func TestSealHypercallOnDomain(t *testing.T) {
	k, h := newHost(t)
	k.Spawn("toolstack", func(p *sim.Proc) {
		d := h.Create(p, Config{Name: "g", Memory: 32 << 20})
		d.PT.Map(0x1000, PageR|PageX)
		if err := d.Seal(p); err != nil {
			t.Errorf("Seal: %v", err)
		}
		if !d.PT.Sealed() {
			t.Error("domain not sealed after hypercall")
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSignalReadyAndWaitReady(t *testing.T) {
	k, h := newHost(t)
	var bootSeen time.Duration
	k.Spawn("toolstack", func(p *sim.Proc) {
		d := h.Create(p, Config{Name: "g", Memory: 64 << 20, Entry: func(d *Domain, gp *sim.Proc) int {
			gp.Sleep(7 * time.Millisecond) // guest boot work
			d.SignalReady()
			return 0
		}})
		d.WaitReady(p)
		bootSeen = d.BootTime()
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bootSeen < 7*time.Millisecond {
		t.Errorf("BootTime = %v, want >= guest boot work", bootSeen)
	}
}

// Property: seal succeeds iff no page is W+X, for arbitrary page tables.
func TestPropSealIffWxorX(t *testing.T) {
	f := func(flags []uint8) bool {
		pt := NewPageTable(new(obs.Counter))
		hasWX := false
		for i, fl := range flags {
			f := PageFlags(fl) & (PageR | PageW | PageX)
			if f&PageW != 0 && f&PageX != 0 {
				hasWX = true
			}
			pt.Map(uint64(i)*0x1000, f)
		}
		err := pt.Seal()
		return (err == nil) == !hasWX
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A notification is an event whose callback the port built once: sending
// one allocates nothing.
func TestNotifyAsyncAllocatesNothing(t *testing.T) {
	k, h := newHost(t)
	var pa, pb *Port
	k.Spawn("toolstack", func(p *sim.Proc) {
		a := h.Create(p, Config{Name: "a", Memory: 32 << 20})
		b := h.Create(p, Config{Name: "b", Memory: 32 << 20})
		pa, pb = Connect(a, b)
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	one := func() {
		pa.NotifyAsync()
		pb.NotifyAsync()
		k.Run()
	}
	one() // warm the kernel's event free list
	if n := testing.AllocsPerRun(100, one); n != 0 {
		t.Errorf("NotifyAsync: %v allocations per pair of notifications, want 0", n)
	}
	if pa.Receives != 102 || pb.Receives != 102 || !pa.Sig.Pending() || !pb.Sig.Pending() {
		t.Errorf("deliveries: a %d (pending %v), b %d (pending %v), want 102 each",
			pa.Receives, pa.Sig.Pending(), pb.Receives, pb.Sig.Pending())
	}
}

// TestGuestsAreNeverHomedOnShardZero: on a sharded kernel a guest with an
// entry runs on its pCPU's guest shard, never on shard 0 — the host shard
// keeps dom0, build-only domains and explicitly colocated guests. The fleet's
// SLO watchdog relies on it: it reads replica histograms live from shard 0,
// which runs first in every epoch.
func TestGuestsAreNeverHomedOnShardZero(t *testing.T) {
	entry := func(*Domain, *sim.Proc) int { return 0 }
	for _, shards := range []int{2, 3, 5} {
		c := sim.NewClusterObs(1, shards, time.Microsecond, nil, nil)
		h := NewHost(c.Kernel(0), 4)
		rows := []struct {
			name   string
			cfg    Config
			shard0 bool
		}{
			{"guest", Config{Entry: entry}, false},
			{"colocated guest", Config{Entry: entry, Colocate: true}, true},
			{"build-only domain", Config{}, true},
		}
		for _, row := range rows {
			for pcpu := 0; pcpu <= len(h.PCPUs); pcpu++ {
				if got := h.homeKernel(row.cfg, pcpu) == c.Kernel(0); got != row.shard0 {
					t.Errorf("%d shards, %s on pCPU %d: homed on shard 0 = %v, want %v", shards, row.name, pcpu, got, row.shard0)
				}
			}
		}
	}
}
