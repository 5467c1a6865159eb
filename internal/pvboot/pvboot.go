// Package pvboot provides start-of-day support for a unikernel guest
// (paper §3.2): it initialises a VM with one virtual CPU and event
// channels, lays out the single 64-bit address space, installs W^X page
// permissions, optionally issues the seal hypercall (§2.3.3), and hands
// control to an entry function running over the lwt scheduler.
//
// Unlike a conventional OS there are no processes and no preemptive
// threads: the VM is either executing OCaml-analogue code or blocked on
// domainpoll, and it shuts down when the main thread returns.
package pvboot

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/hypervisor"
	"repro/internal/lwt"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/xenstore"
)

// Options configure guest start-of-day.
type Options struct {
	// BinarySize is the unikernel image size (text+data) in bytes; it
	// determines the layout and part of the boot cost.
	BinarySize uint64
	// Seal issues the seal hypercall after page tables are installed.
	Seal bool
	// Resume marks start-of-day after live migration: runtime state was
	// carried over in the snapshot, so the runtime-init cost shrinks to
	// the reconnect work (event channels, device handshakes).
	Resume bool
}

// VM is a booted unikernel guest: the runtime state an entry function works
// with.
type VM struct {
	Dom    *hypervisor.Domain
	S      *lwt.Scheduler
	Layout *mem.Layout
}

// defaultInitCost is the guest-side boot work (runtime init, driver
// handshakes) of a Mirage unikernel: tiny, since the paper's sub-50 ms total
// boot is dominated by domain construction. resumeInitCost is the
// reconnect-only start-of-day after a migration (the snapshot carries the
// initialised runtime, so only device rings and event channels are rebuilt).
const (
	defaultInitCost = 4 * time.Millisecond
	resumeInitCost  = 200 * time.Microsecond
)

// Boot performs start-of-day initialisation for domain d in proc p and
// returns the VM handle. The domain's page tables are populated with the
// W^X layout of Figure 2 before any application code runs.
func Boot(d *hypervisor.Domain, p *sim.Proc, opts Options) (*VM, error) {
	initCost := defaultInitCost
	if opts.Resume {
		initCost = resumeInitCost
	}
	k := d.K
	tr := k.Trace()
	initStart := k.Now()
	p.Use(d.VCPU, initCost)
	if tr.Enabled() {
		tr.Complete(obs.Time(initStart), obs.Time(k.Now().Sub(initStart)),
			"boot", "runtime-init", d.ID, 0)
	}

	layout, err := mem.NewLayout(d.MemBytes, opts.BinarySize)
	if err != nil {
		return nil, fmt.Errorf("pvboot: %w", err)
	}
	if err := layout.Validate(); err != nil {
		return nil, fmt.Errorf("pvboot: %w", err)
	}

	// Install region-granularity page permissions: text executable but
	// never writable, everything else writable but never executable.
	pt := d.PT
	entries := []struct {
		base  uint64
		flags hypervisor.PageFlags
	}{
		{layout.TextData.Base, hypervisor.PageR | hypervisor.PageX},
		{layout.TextData.Base + layout.TextData.Size/2, hypervisor.PageR | hypervisor.PageW}, // data half
		{layout.IOData.Base, hypervisor.PageR | hypervisor.PageW | hypervisor.PageIO},
		{layout.MinorHeap.Base, hypervisor.PageR | hypervisor.PageW},
		{layout.MajorHeap.Base, hypervisor.PageR | hypervisor.PageW},
	}
	for _, e := range entries {
		if err := pt.Map(e.base, e.flags); err != nil {
			return nil, fmt.Errorf("pvboot: mapping %#x: %w", e.base, err)
		}
	}
	if tr.Enabled() {
		tr.Instant(obs.Time(k.Now()), "boot", "pagetables-installed", d.ID, 0,
			obs.Int("regions", int64(len(entries))))
	}
	if opts.Seal {
		if err := d.Seal(p); err != nil {
			return nil, fmt.Errorf("pvboot: %w", err)
		}
	}

	s := lwt.NewScheduler(d.K)
	s.Heap = mem.NewHeap(mem.DefaultHeapConfig())
	s.CPU = d.VCPU
	d.ThreadStats = func() (int, int) { return s.Created, s.Wakes } // domstat hook

	return &VM{Dom: d, S: s, Layout: layout}, nil
}

// WatchPort wires an event-channel port into the scheduler's run loop: fn
// runs whenever the port fires while the VM is blocked in domainpoll.
func (vm *VM) WatchPort(pt *hypervisor.Port, fn func()) {
	vm.S.OnSignal(pt.Sig, fn)
}

// Attach connects one split device through the unified device seam: the
// xenstore handshake runs against dom0's store, the backend maps the rings
// and the frontend's event handler is wired into the VM run loop. Every
// device class — network, block, whatever comes next — attaches through
// this one call.
func (vm *VM) Attach(dom0 *hypervisor.Domain, st *xenstore.Store, index int, fe device.Frontend, be device.Backend) (*hypervisor.Port, error) {
	port, err := device.Connect(vm.Dom, dom0, st, index, fe, be)
	if err != nil {
		return nil, err
	}
	vm.WatchPort(port, fe.OnEvent)
	return port, nil
}

// Main runs the scheduler until main completes and returns the VM exit
// code: 0 on success, 1 if the main thread failed (§3.3: the domain shuts
// down with the exit code matching the thread return value).
func (vm *VM) Main(p *sim.Proc, main lwt.Waiter) int {
	if err := vm.S.Run(p, main); err != nil {
		vm.Dom.Console("main thread failed: " + err.Error())
		return 1
	}
	return 0
}
