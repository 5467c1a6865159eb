package pvboot

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hypervisor"
	"repro/internal/lwt"
	"repro/internal/sim"
)

// binarySize is the image size every test boots with.
const binarySize = 256 << 10

// boot creates a host, a domain, and boots a VM inside it with a
// binarySize image, then calls fn.
func boot(t *testing.T, opts Options, fn func(vm *VM, p *sim.Proc)) *hypervisor.Domain {
	t.Helper()
	k := sim.NewKernel(1)
	h := hypervisor.NewHost(k, 1, "")
	var dom *hypervisor.Domain
	k.Spawn("toolstack", func(tp *sim.Proc) {
		dom = h.Create(tp, hypervisor.Config{
			Name:   "guest",
			Memory: 64 << 20,
			Entry: func(d *hypervisor.Domain, p *sim.Proc) int {
				opts.BinarySize = binarySize
				vm, err := Boot(d, p, opts)
				if err != nil {
					t.Errorf("Boot: %v", err)
					return 1
				}
				fn(vm, p)
				return 0
			},
		})
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return dom
}

func TestBootProducesWorkingVM(t *testing.T) {
	boot(t, Options{}, func(vm *VM, p *sim.Proc) {
		if vm.Layout == nil || vm.S == nil || vm.S.Heap == nil {
			t.Error("VM missing runtime pieces")
		}
		main := lwt.Map(vm.S.Sleep(time.Millisecond), func(struct{}) int { return 7 })
		if code := vm.Main(p, main); code != 0 {
			t.Errorf("Main = %d, want 0", code)
		}
		if main.Value() != 7 {
			t.Error("main thread value lost")
		}
	})
}

// TestBootInstallsWxorXPageTable: the default boot seals, and the seal
// hypercall is the W^X oracle: it fails the boot unless no installed entry
// is both writable and executable.
func TestBootInstallsWxorXPageTable(t *testing.T) {
	d := boot(t, Options{}, func(vm *VM, p *sim.Proc) {})
	if d.ExitCode != 0 || !d.PT.Sealed() {
		t.Errorf("boot exit %d, sealed %v: want a sealed W^X page table", d.ExitCode, d.PT.Sealed())
	}
	if n := d.Host.K.Metrics().Counter("hv_seals_total").Value(); n != 1 {
		t.Errorf("hv_seals_total = %d, want the one seal hypercall of start-of-day", n)
	}
}

func TestBootWithSealFreezesPageTable(t *testing.T) {
	d := boot(t, Options{}, func(vm *VM, p *sim.Proc) {
		if !vm.Dom.PT.Sealed() {
			t.Error("VM not sealed after Boot")
		}
		// Code-injection attempt: map a writable+executable page.
		if err := vm.Dom.PT.Map(0xdead000, hypervisor.PageR|hypervisor.PageW|hypervisor.PageX); err == nil {
			t.Error("sealed VM accepted an executable mapping")
		}
	})
	if n := d.Host.K.Metrics().Counter("hv_seal_refusals_total").Value(); n != 1 {
		t.Errorf("hv_seal_refusals_total = %d, want the one refused attempt", n)
	}
}

func TestSealedVMStillMapsIOPages(t *testing.T) {
	boot(t, Options{}, func(vm *VM, p *sim.Proc) {
		// I/O is unaffected by sealing (§2.3.3): fresh non-exec I/O
		// mappings are allowed.
		addr := vm.Layout.IOData.Base + 0x1000
		if err := vm.Dom.PT.Map(addr, hypervisor.PageR|hypervisor.PageW|hypervisor.PageIO); err != nil {
			t.Errorf("sealed VM refused I/O mapping: %v", err)
		}
	})
}

func TestMainFailureGivesExitCodeOne(t *testing.T) {
	boot(t, Options{}, func(vm *VM, p *sim.Proc) {
		bad := lwt.FailWith[int](vm.S, errTest)
		if code := vm.Main(p, bad); code != 1 {
			t.Errorf("Main = %d, want 1 for failed main thread", code)
		}
	})
}

// TestMainDeadlockGivesExitCodeOne: a main thread that is left with no timer
// and no watched event — found by the scheduler loop on a wake the kernel
// ran inline — fails the domain with lwt's deadlock error on the console.
func TestMainDeadlockGivesExitCodeOne(t *testing.T) {
	var code int
	d := boot(t, Options{}, func(vm *VM, p *sim.Proc) {
		never := lwt.NewPromise[int](vm.S)
		code = vm.Main(p, lwt.Bind(vm.S.Sleep(time.Millisecond), func(struct{}) *lwt.Promise[int] { return never }))
	})
	if code != 1 {
		t.Errorf("Main = %d, want 1 for a deadlocked main thread", code)
	}
	lines := d.ConsoleLines()
	if n := len(lines); n == 0 || !strings.Contains(lines[n-1], "main thread failed: lwt: deadlock: ") {
		t.Errorf("console = %q, want the deadlock last", lines)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test failure" }

func TestWatchPortDeliversDeviceEvents(t *testing.T) {
	k := sim.NewKernel(1)
	h := hypervisor.NewHost(k, 1, "")
	k.Spawn("toolstack", func(tp *sim.Proc) {
		backendDom := h.Create(tp, hypervisor.Config{Name: "dom0-backend", Memory: 32 << 20})
		h.Create(tp, hypervisor.Config{
			Name:   "guest",
			Memory: 64 << 20,
			Entry: func(d *hypervisor.Domain, p *sim.Proc) int {
				vm, err := Boot(d, p, Options{BinarySize: binarySize})
				if err != nil {
					t.Errorf("Boot: %v", err)
					return 1
				}
				gport, bport := hypervisor.Connect(d, backendDom)
				got := lwt.NewPromise[string](vm.S)
				vm.WatchPort(gport, func() {
					if !got.Completed() {
						got.Resolve("irq")
					}
				})
				// Backend fires the event later.
				k.Spawn("backend", func(bp *sim.Proc) {
					bp.Sleep(5 * time.Millisecond)
					bport.NotifyAsync()
				})
				return vm.Main(p, got)
			},
		})
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	guest := h.Domains()[1]
	if guest.ExitCode != 0 {
		t.Errorf("guest exit = %d, want 0", guest.ExitCode)
	}
}

func TestBootFailsOnTinyMemory(t *testing.T) {
	k := sim.NewKernel(1)
	h := hypervisor.NewHost(k, 1, "")
	k.Spawn("toolstack", func(tp *sim.Proc) {
		h.Create(tp, hypervisor.Config{
			Name:   "tiny",
			Memory: 2 << 20,
			Entry: func(d *hypervisor.Domain, p *sim.Proc) int {
				if _, err := Boot(d, p, Options{BinarySize: binarySize}); err == nil {
					t.Error("Boot succeeded with 2 MiB")
				}
				return 0
			},
		})
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
