package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestInlineBodyWakesWithoutHandOff: a proc suspended into an inline body and
// woken 10,000 times by a signal runs every wake on the kernel's stack; its
// goroutine is resumed once, when the body is done. The wakes are still
// counted as proc wakes.
func TestInlineBodyWakesWithoutHandOff(t *testing.T) {
	const wakes = 10000
	k := NewKernel(1)
	sig := k.NewSignal("evt")
	left := wakes
	var tick func() // the setter is a chain of events, so no other goroutine runs
	tick = func() {
		sig.Set()
		if left--; left > 0 {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)

	var atSuspend, moved, woken, afterExit int
	k.Spawn("guest", func(p *Proc) {
		if p.ArmWaitAny(sig) != -1 {
			t.Error("nothing was pending, yet ArmWaitAny did not park")
		}
		atSuspend = k.handoffs
		p.Suspend(func() bool {
			if p.CollectWaitAny(sig) != 0 {
				t.Error("woken, but not by the signal")
			}
			if k.handoffs != atSuspend {
				moved++
			}
			if woken++; woken == wakes {
				return true
			}
			p.ArmWaitAny(sig)
			return false
		})
		afterExit = k.handoffs
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != wakes {
		t.Fatalf("body ran %d times, want %d", woken, wakes)
	}
	if moved != 0 {
		t.Errorf("%d of %d wakes resumed a goroutine", moved, wakes)
	}
	if got := afterExit - atSuspend; got != 1 {
		t.Errorf("goroutine resumed %d times after Suspend, want exactly 1 (at exit)", got)
	}
	if got := k.metrics.Counter("sim_proc_wakes_total").Value(); got != wakes {
		t.Errorf("sim_proc_wakes_total = %v, want %d", got, wakes)
	}
}

// TestInlineBodyPanicIsTheProcsPanic: a panic in an inline body surfaces from
// Run with the message a panic on the proc's goroutine gives.
func TestInlineBodyPanicIsTheProcsPanic(t *testing.T) {
	k := NewKernel(1)
	sig := k.NewSignal("evt")
	k.After(time.Millisecond, sig.Set)
	k.Spawn("guest", func(p *Proc) {
		p.ArmWaitAny(sig)
		p.Suspend(func() bool { panic("ring corrupted") })
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		k.Run()
		return nil
	}()
	if s := fmt.Sprint(got); s != `sim: proc "guest" panicked: ring corrupted` {
		t.Errorf("panic = %q", s)
	}
}

// TestInlineBodyMustNotBlock: a body that calls a blocking Proc method fails
// loudly, naming the proc, instead of hanging the kernel.
func TestInlineBodyMustNotBlock(t *testing.T) {
	k := NewKernel(1)
	sig := k.NewSignal("evt")
	k.After(time.Millisecond, sig.Set)
	k.Spawn("guest", func(p *Proc) {
		p.ArmWaitAny(sig)
		p.Suspend(func() bool {
			p.CollectWaitAny(sig)
			p.Sleep(time.Millisecond)
			return true
		})
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		k.Run()
		return nil
	}()
	if s := fmt.Sprint(got); !strings.Contains(s, `proc "guest" blocked inside its inline body`) {
		t.Errorf("panic = %q", s)
	}
}
