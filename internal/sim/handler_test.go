package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// backendScenario runs one event-driven backend against two producers and a
// consumer, the backend either as a daemon proc looping on Wait(sig) or as a
// handler on sig, and returns every step in the order it happened (each
// stamped with its virtual time), the trace and the metrics. It covers a Set
// before the backend first runs, two Sets in one instant, and a Set that
// arrives while the backend is running.
func backendScenario(t *testing.T, asHandler bool) (steps []string, trace []byte, metrics string) {
	t.Helper()
	tr := obs.NewTracer(obs.DefaultCap)
	tr.Enable()
	reg := obs.NewRegistry()
	k := NewKernelObs(1, tr, reg)
	step := func(format string, args ...any) {
		steps = append(steps, fmt.Sprintf("%v %s", k.Now(), fmt.Sprintf(format, args...)))
	}
	sig := k.NewSignal("evtchn")
	served := k.NewSignal("served")

	runs := 0
	serve := func() {
		runs++
		step("serve #%d", runs)
		if runs == 3 {
			// Work that raises the backend's own event while it runs: the
			// backend must go round again without parking.
			sig.Set()
			step("set during serve #%d", runs)
		}
		served.Set()
	}
	if asHandler {
		k.SpawnHandler("backend", sig, serve)
	} else {
		k.SpawnDaemon("backend", func(p *Proc) {
			for {
				serve()
				p.Wait(sig)
			}
		})
	}
	sig.Set() // before the backend has run at all
	step("set before first run")

	start := k.NewSignal("start")
	for i, gap := range []time.Duration{time.Millisecond, 3 * time.Millisecond} {
		name := fmt.Sprintf("producer%d", i)
		k.Spawn(name, func(p *Proc) {
			p.Wait(start) // both producers are runnable before either Set
			sig.Set()
			step("%s set", name)
			p.Sleep(gap)
			sig.Set()
			step("%s set again", name)
		})
	}
	k.SpawnDaemon("consumer", func(p *Proc) {
		for {
			p.Wait(served)
			step("consumer woke")
		}
	})
	k.At(Time(time.Millisecond), func() {
		step("start")
		start.Set()
	})

	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return steps, buf.Bytes(), reg.Snapshot().Format()
}

func TestHandlerRunsWhereTheWaitingProcWould(t *testing.T) {
	pSteps, pTrace, pMetrics := backendScenario(t, false)
	hSteps, hTrace, hMetrics := backendScenario(t, true)
	if !reflect.DeepEqual(pSteps, hSteps) {
		t.Errorf("step order differs:\nproc:\n  %s\nhandler:\n  %s",
			strings.Join(pSteps, "\n  "), strings.Join(hSteps, "\n  "))
	}
	if pMetrics != hMetrics {
		t.Errorf("metrics differ (spawns and wakes must count alike):\nproc:\n%s\nhandler:\n%s", pMetrics, hMetrics)
	}
	if !bytes.Equal(pTrace, hTrace) {
		t.Errorf("traces differ (proc %d bytes, handler %d bytes)", len(pTrace), len(hTrace))
	}
	// The scenario must have exercised what it claims to.
	for _, want := range []string{"0s serve #1", "0s serve #2", "1ms producer1 set", "1ms set during serve #3", "1ms serve #4", "4ms serve #6"} {
		if !slices.Contains(hSteps, want) {
			t.Errorf("scenario lost the step %q:\n  %s", want, strings.Join(hSteps, "\n  "))
		}
	}
}

func TestHandlerPanicNamesTheHandler(t *testing.T) {
	k := NewKernel(1)
	sig := k.NewSignal("evt")
	k.SpawnHandler("boom", sig, func() {
		if k.Now() > 0 {
			panic("ring corrupted")
		}
	})
	k.After(time.Millisecond, sig.Set)
	got := func() (v any) {
		defer func() { v = recover() }()
		k.Run()
		return nil
	}()
	if s := fmt.Sprint(got); s != `sim: handler "boom" panicked: ring corrupted` {
		t.Errorf("panic = %q", s)
	}
}

// TestHandlerIsADaemonForTheDeadlockCheck: an idle handler never ends a run
// in a deadlock, and when a real proc is stuck the report counts and names
// that proc alone — on a plain kernel and on a cluster, which share the
// formatter.
func TestHandlerIsADaemonForTheDeadlockCheck(t *testing.T) {
	plain := NewKernel(1)
	c := NewClusterObs(1, 2, 10*time.Microsecond, nil, nil)
	for _, tc := range []struct {
		name string
		run  *Kernel // what Run is called on
		k    *Kernel // where the handler and the stuck proc live
	}{
		{"plain", plain, plain},
		{"2-shard", c.Kernel(0), c.Kernel(1)},
	} {
		name, run, k := tc.name, tc.run, tc.k
		k.SpawnHandler("backend", k.NewSignal("evt"), func() {})
		if _, err := run.Run(); err != nil {
			t.Errorf("%s: an idle handler ended the run with %v", name, err)
		}
		never := k.NewSignal("never")
		k.Spawn("stuck", func(p *Proc) { p.Wait(never) })
		_, err := run.Run()
		if err == nil || !strings.Contains(err.Error(), "1 procs parked: [stuck@wait:never]") {
			t.Errorf("%s: deadlock report = %v, want the stuck proc alone counted and named", name, err)
		}
		if err != nil && strings.Contains(err.Error(), "backend") {
			t.Errorf("%s: deadlock report names the daemon handler: %v", name, err)
		}
	}
}

// TestHandlerOnShardParallel runs a handler on one shard with a producer on
// another: the handler runs in its own shard's windows exactly as the
// waiting proc did, so both forms agree.
func TestHandlerOnShardParallel(t *testing.T) {
	run := func(asHandler bool) []string {
		c := NewClusterObs(1, 2, 10*time.Microsecond, nil, nil)
		k0, k1 := c.Kernel(0), c.Kernel(1)
		sig := k1.NewSignal("evtchn")
		var steps []string // written on shard 1 only
		serve := func() { steps = append(steps, fmt.Sprintf("%v serve", k1.Now())) }
		if asHandler {
			k1.SpawnHandler("backend", sig, serve)
		} else {
			k1.SpawnDaemon("backend", func(p *Proc) {
				for {
					serve()
					p.Wait(sig)
				}
			})
		}
		k0.Spawn("producer", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Sleep(7 * time.Microsecond)
				k0.Post(k1, 0, sig.Set)
			}
		})
		if _, err := k0.Run(); err != nil {
			t.Fatal(err)
		}
		return steps
	}
	want := run(false)
	if len(want) != 21 {
		t.Fatalf("proc form served %d times, want 21: %v", len(want), want)
	}
	if got := run(true); !reflect.DeepEqual(got, want) {
		t.Errorf("handler steps %v, want %v", got, want)
	}
}

func TestAtArgOrdersWithAtAndCarriesItsArgument(t *testing.T) {
	k := NewKernel(1)
	type frame struct{ id int }
	var got []string
	deliver := func(arg any, n uint64) { got = append(got, fmt.Sprintf("%v frame %d/%d", k.Now(), arg.(*frame).id, n)) }
	k.AtArg(Time(2), deliver, &frame{2}, 20)
	k.At(Time(1), func() { got = append(got, "1ns plain") })
	k.AtArg(Time(1), deliver, &frame{1}, 10)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"1ns plain", "1ns frame 1/10", "2ns frame 2/20"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}

	f := &frame{}
	fn := func(any, uint64) {}
	k.AtArg(k.Now(), fn, f, 0) // warm the event free list
	k.Run()
	if n := testing.AllocsPerRun(100, func() {
		k.AtArg(k.Now(), fn, f, 7)
		k.Run()
	}); n != 0 {
		t.Errorf("AtArg with a pointer argument allocates %v per event, want 0", n)
	}
}
