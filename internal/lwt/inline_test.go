package lwt

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// refRun is Run as it was while the loop lived on the domain's goroutine:
// every CPU charge and every domainpoll parks the goroutine and resumes it.
// It is the reference the inline loop must match step for step.
func refRun(s *Scheduler, p *sim.Proc, main Waiter) error {
	for {
		for {
			for i := 0; i < len(s.ready); i++ {
				c := s.ready[i]
				s.ready[i] = nil
				c.run()
			}
			s.ready = s.ready[:0]
			if s.Heap != nil {
				if gc := s.Heap.Drain(); gc > 0 && s.CPU != nil {
					p.Use(s.CPU, gc)
				}
			}
			if len(s.ready) == 0 {
				break
			}
		}
		if main.Completed() {
			return main.Failed()
		}
		if s.sleeping == 0 && len(s.watched) == 0 {
			return fmt.Errorf("lwt: deadlock: main thread pending with no timers or events")
		}
		var sigs []*sim.Signal
		for _, w := range s.watched {
			sigs = append(sigs, w.sig)
		}
		sigs = append(sigs, s.wake)
		s.parked = true
		idx := p.ArmWaitAny(sigs...) // park the goroutine, then collect
		if idx < 0 {
			p.Suspend(func() bool { idx = p.CollectWaitAny(sigs...); return true })
		}
		s.parked = false
		if idx >= 0 && idx < len(s.watched) {
			s.watched[idx].fn()
		}
	}
}

// runWith runs main on p with the inline loop or the reference one.
func runWith(reference bool, s *Scheduler, p *sim.Proc, main Waiter) error {
	if reference {
		return refRun(s, p, main)
	}
	return s.Run(p, main)
}

// guestScenario runs one scripted guest under the inline loop or the
// reference one and returns every step it took (stamped with virtual time),
// the trace, the metrics and the end time. Two watched signals are set at
// the instant a Sleep falls due, by an event armed before the Sleep's, so
// the loop polls both before the Sleep resolves; the Sleep's continuation
// allocates enough promises to force minor collections, so the loop stops
// at a CPU charge mid-pass; and a third watched signal is set during that
// charge, together with a kernel-context resolution the loop must pick up
// once the charge completes.
func guestScenario(t *testing.T, reference bool) (steps []string, trace []byte, metrics string, end sim.Time, minorGCs int) {
	t.Helper()
	tr := obs.NewTracer(obs.DefaultCap)
	tr.Enable()
	reg := obs.NewRegistry()
	k := sim.NewKernelObs(1, tr, reg)
	step := func(format string, args ...any) {
		steps = append(steps, fmt.Sprintf("%v %s", k.Now(), fmt.Sprintf(format, args...)))
	}
	s := NewScheduler(k)
	cfg := mem.DefaultHeapConfig()
	cfg.MinorSize = 4 << 10
	s.Heap = mem.NewHeap(cfg)
	s.CPU = k.NewCPU("vcpu")

	a, b, c := k.NewSignal("a"), k.NewSignal("b"), k.NewSignal("c")
	late := NewPromise[struct{}](s) // resolved from kernel context mid-charge
	k.At(sim.Time(time.Millisecond), func() { a.Set(); b.Set(); step("set a, b") })
	k.At(sim.Time(time.Millisecond+2*time.Microsecond), func() {
		c.Set()
		late.Resolve(struct{}{})
		step("set c, resolve late")
	})
	// Just after a bare Sleep wakes the loop, kernel-context code allocates
	// enough to owe a collection while the loop is parked: the loop must not
	// book it until its next pass.
	k.At(sim.Time(1500*time.Microsecond+100), func() {
		for i := 0; i < 50; i++ {
			NewPromise[int](s)
		}
		step("allocate")
	})
	k.Spawn("guest", func(p *sim.Proc) {
		for i, sig := range []*sim.Signal{a, b, c} {
			name := string(rune('a' + i))
			s.OnSignal(sig, func() { step("%s fired", name) })
		}
		s.Sleep(1500 * time.Microsecond) // awaited by nobody
		burst := Bind(s.Sleep(time.Millisecond), func(struct{}) *Promise[struct{}] {
			step("timer")
			ws := make([]Waiter, 100)
			for i := range ws {
				ws[i] = Return(s, struct{}{})
			}
			return Join(s, ws...)
		})
		main := Join(s,
			Bind(burst, func(struct{}) *Promise[struct{}] {
				step("burst joined")
				return s.Sleep(time.Millisecond)
			}),
			Map(late, func(struct{}) struct{} { step("late ran"); return struct{}{} }))
		err := runWith(reference, s, p, main)
		step("main done: %v", err)
		end = k.Now()
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return steps, buf.Bytes(), reg.Snapshot().Format(), end, s.Heap.MinorGCs
}

// TestInlineLoopMatchesGoroutineLoop: the loop that runs on the kernel's
// stack takes the same steps at the same virtual instants, wakes the proc as
// often and writes the same trace as the loop that parked its goroutine.
func TestInlineLoopMatchesGoroutineLoop(t *testing.T) {
	rSteps, rTrace, rMetrics, rEnd, _ := guestScenario(t, true)
	iSteps, iTrace, iMetrics, iEnd, gcs := guestScenario(t, false)
	if !reflect.DeepEqual(rSteps, iSteps) {
		t.Errorf("step order differs:\nreference:\n  %s\ninline:\n  %s",
			strings.Join(rSteps, "\n  "), strings.Join(iSteps, "\n  "))
	}
	if rMetrics != iMetrics {
		t.Errorf("metrics differ (sim_proc_wakes_total must count alike):\nreference:\n%s\ninline:\n%s", rMetrics, iMetrics)
	}
	if !bytes.Equal(rTrace, iTrace) {
		t.Errorf("traces differ (reference %d bytes, inline %d bytes)", len(rTrace), len(iTrace))
	}
	if rEnd != iEnd {
		t.Errorf("end time %v, reference %v", iEnd, rEnd)
	}
	// The scenario must have exercised what it claims to.
	if gcs == 0 {
		t.Error("the promise burst forced no minor collection")
	}
	at := func(want string) int {
		i := slices.IndexFunc(iSteps, func(s string) bool { return strings.HasSuffix(s, want) })
		if i < 0 {
			t.Errorf("scenario lost the step %q:\n  %s", want, strings.Join(iSteps, "\n  "))
		}
		return i
	}
	// a and b are polled before the Sleep due at the same instant resolves.
	// The burst's collections are charged after the pass that ran it; c is
	// set and late resolved while that charge runs, so late's continuation
	// runs when the charge completes, before the poll sees c.
	order := []int{at(" a fired"), at(" b fired"), at(" timer"), at(" burst joined"), at(" set c, resolve late"), at(" late ran"), at(" c fired")}
	if slices.Contains(order, -1) {
		return
	}
	when := func(i int) string { t, _, _ := strings.Cut(iSteps[i], " "); return t }
	if !slices.IsSorted(order) || when(order[1]) != when(order[2]) || when(order[3]) == when(order[4]) || when(order[4]) == when(order[5]) {
		t.Errorf("the scenario did not run in the order it scripts:\n  %s", strings.Join(iSteps, "\n  "))
	}
	if !strings.Contains(iMetrics, "sim_proc_wakes_total") {
		t.Error("metrics carry no proc wake count")
	}
}

// TestCallbackPanicAfterInlineWake: a callback that panics on a wake the
// kernel ran inline surfaces from Kernel.Run as the guest proc's panic, with
// the text the goroutine loop gave.
func TestCallbackPanicAfterInlineWake(t *testing.T) {
	panicked := func(reference bool) string {
		k := sim.NewKernel(1)
		s := NewScheduler(k)
		k.Spawn("guest", func(p *sim.Proc) {
			main := Map(s.Sleep(time.Millisecond), func(struct{}) int { panic("boom") })
			runWith(reference, s, p, main)
		})
		return func() (v string) {
			defer func() { v = fmt.Sprint(recover()) }()
			k.Run()
			return ""
		}()
	}
	want := `sim: proc "guest" panicked: boom`
	if got := panicked(false); got != want {
		t.Errorf("inline loop: panic = %q, want %q", got, want)
	}
	if got := panicked(true); got != want {
		t.Errorf("reference loop: panic = %q, want %q", got, want)
	}
}

// TestDeadlockFoundInKernelContext: a main thread left with no timer and no
// watched event after an inline wake still ends Run with lwt's deadlock
// error, and the goroutine carries on after it.
func TestDeadlockFoundInKernelContext(t *testing.T) {
	run(t, func(p *sim.Proc, s *Scheduler) {
		main := Bind(s.Sleep(time.Millisecond), func(struct{}) *Promise[int] { return NewPromise[int](s) })
		err := s.Run(p, main)
		if err == nil || !strings.HasPrefix(err.Error(), "lwt: deadlock: ") {
			t.Errorf("Run = %v, want lwt's deadlock error", err)
		}
		if p.Now() != sim.Time(time.Millisecond) {
			t.Errorf("deadlock found at %v, want 1ms", p.Now())
		}
	})
}

// TestGuestParkedInlineInDeadlockReport: a non-daemon guest whose loop,
// running inline, parks on a watched signal nobody sets is named in the
// kernel's deadlock report at its park site.
func TestGuestParkedInlineInDeadlockReport(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewScheduler(k)
	s.OnSignal(k.NewSignal("never"), func() {})
	k.Spawn("guest", func(p *sim.Proc) {
		s.Run(p, Bind(s.Sleep(time.Millisecond), func(struct{}) *Promise[int] { return NewPromise[int](s) }))
		t.Error("Run returned with its main thread pending")
	})
	_, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "1 procs parked: [guest@waitany]") {
		t.Errorf("deadlock report = %v, want guest@waitany", err)
	}
}
