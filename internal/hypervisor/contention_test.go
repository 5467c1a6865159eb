package hypervisor

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestPinnedDomainsContendForPCPU: two domains pinned to one physical CPU
// see their work serialised; domains on separate pCPUs do not.
func TestPinnedDomainsContendForPCPU(t *testing.T) {
	run := func(pin bool) time.Duration {
		k := sim.NewKernel(1)
		h := NewHost(k, 2, "")
		var last sim.Time
		k.Spawn("toolstack", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				pcpu := -1
				if pin {
					pcpu = 0 // both on pcpu0
				} else {
					pcpu = i
				}
				h.Create(p, Config{
					Name:   "guest",
					Memory: 32 << 20,
					PCPU:   pcpu,
					Entry: func(d *Domain, gp *sim.Proc) int {
						gp.Use(d.VCPU, 100*time.Millisecond)
						if gp.Now() > last {
							last = gp.Now()
						}
						return 0
					},
				})
			}
		})
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return last.Sub(0)
	}
	shared := run(true)
	separate := run(false)
	if shared < separate+70*time.Millisecond {
		t.Errorf("shared pCPU finished at %v vs separate %v; no contention visible", shared, separate)
	}
}

// TestConsoleTimestamps: console lines carry virtual-time stamps in order.
func TestConsoleTimestamps(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, 1, "")
	k.Spawn("toolstack", func(p *sim.Proc) {
		h.Create(p, Config{
			Name: "g", Memory: 32 << 20,
			Entry: func(d *Domain, gp *sim.Proc) int {
				d.Console("first")
				gp.Sleep(time.Second)
				d.Console("second")
				return 0
			},
		})
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	lines := h.Domains()[0].ConsoleLines()
	if len(lines) != 2 {
		t.Fatalf("console lines = %d", len(lines))
	}
	if lines[0] >= lines[1] {
		t.Errorf("timestamps out of order: %q then %q", lines[0], lines[1])
	}
}

// TestShutdownReasonRecorded: crash shutdowns carry their reason.
func TestShutdownReasonRecorded(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, 1, "")
	k.Spawn("toolstack", func(p *sim.Proc) {
		d := h.Create(p, Config{Name: "g", Memory: 32 << 20})
		d.Shutdown(139, ShutdownCrash)
		if !d.Dead || d.Reason != ShutdownCrash || d.ExitCode != 139 {
			t.Errorf("domain = dead=%v reason=%v code=%d", d.Dead, d.Reason, d.ExitCode)
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
