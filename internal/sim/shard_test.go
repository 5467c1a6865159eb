package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// clusterRunShards drives a fixed cross-shard workload on a fresh cluster
// of the given size and returns everything observable about the run: the
// per-shard execution logs (concatenated in shard order), the final virtual
// time, the metrics snapshot and the merged trace.
func clusterRunShards(t *testing.T, shards int) (string, Time, string, string) {
	t.Helper()
	tr := obs.NewTracer(obs.DefaultCap)
	tr.Enable()
	reg := obs.NewRegistry()
	c := NewClusterObs(7, shards, 10*time.Microsecond, tr, reg)
	logs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		i := i
		k := c.Kernel(i)
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 40; j++ {
				p.Sleep(time.Duration(1+k.Rand().Intn(5000)) * time.Nanosecond)
				logs[i] = append(logs[i], fmt.Sprintf("s%d j%d @%v", i, j, k.Now()))
				src, hop := i, j
				dst := c.Kernel((i + 1) % shards)
				// The posted fn runs in dst's shard context.
				k.Post(dst, time.Duration(k.Rand().Intn(20))*time.Microsecond, func() {
					logs[(src+1)%shards] = append(logs[(src+1)%shards],
						fmt.Sprintf("s%d <- s%d hop%d @%v", (src+1)%shards, src, hop, dst.Now()))
				})
				if j%8 == 0 {
					k.SpawnTo(dst, fmt.Sprintf("x%d-%d", i, j), 0, func(p *Proc) {
						p.Sleep(time.Microsecond)
						logs[(src+1)%shards] = append(logs[(src+1)%shards],
							fmt.Sprintf("s%d spawn from s%d @%v", (src+1)%shards, src, dst.Now()))
					})
				}
			}
		})
	}
	end, err := c.Run()
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	var all bytes.Buffer
	for i := range logs {
		for _, l := range logs[i] {
			fmt.Fprintln(&all, l)
		}
	}
	var trOut bytes.Buffer
	if err := tr.WriteJSON(&trOut); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return all.String(), end, reg.Snapshot().Format(), trOut.String()
}

func TestParallelPanicPropagation(t *testing.T) {
	c := NewClusterObs(3, 3, 10*time.Microsecond, nil, nil)
	c.Kernel(2).Spawn("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("shard 2 exploded")
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		c.Run()
		return nil
	}()
	if got == nil {
		t.Fatal("expected panic to propagate")
	}
	if s := fmt.Sprint(got); s != `sim: proc "boom" panicked: shard 2 exploded` {
		t.Errorf("panic = %q", s)
	}
}

// TestParallelStopWithPendingMailbox stops the cluster while a cross-shard
// send is still parked in a mailbox, then restarts: the send must survive
// the stop and run at its original timestamp.
func TestParallelStopWithPendingMailbox(t *testing.T) {
	c := NewClusterObs(5, 2, 10*time.Microsecond, nil, nil)
	k0, k1 := c.Kernel(0), c.Kernel(1)
	var deliveredAt Time
	k0.Spawn("sender", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k0.Post(k1, 500*time.Microsecond, func() { deliveredAt = k1.Now() })
	})
	end, err := c.RunFor(1100 * time.Microsecond)
	if err != nil {
		t.Fatalf("first leg: %v", err)
	}
	if end != Time(1100*time.Microsecond) {
		t.Errorf("first leg ended at %v, want 1.1ms", end)
	}
	if deliveredAt != 0 {
		t.Errorf("cross-shard send ran before its timestamp (at %v)", deliveredAt)
	}
	end, err = c.RunFor(time.Millisecond)
	if err != nil {
		t.Fatalf("second leg: %v", err)
	}
	if deliveredAt != Time(1500*time.Microsecond) {
		t.Errorf("send delivered at %v, want 1.5ms", deliveredAt)
	}
	if end != Time(2100*time.Microsecond) {
		t.Errorf("clock after restart %v, want 2.1ms", end)
	}
	// Every shard clock must agree after RunFor (consistent restart).
	for i := 0; i < c.Shards(); i++ {
		if n := c.Kernel(i).Now(); n != end {
			t.Errorf("shard %d clock %v, want %v", i, n, end)
		}
	}
}

// TestStopAtExactEventTime pins the inclusive-limit semantics: an event
// scheduled exactly at the StopAt timestamp still runs, on both the plain
// kernel and the cluster.
func TestStopAtExactEventTime(t *testing.T) {
	k := NewKernel(1)
	var ran []string
	k.At(Time(time.Millisecond), func() { ran = append(ran, "at-limit") })
	k.At(Time(time.Millisecond)+1, func() { ran = append(ran, "past-limit") })
	k.StopAt(Time(time.Millisecond))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != "at-limit" {
		t.Errorf("plain kernel ran %v, want [at-limit]", ran)
	}

	c := NewClusterObs(1, 2, 10*time.Microsecond, nil, nil)
	ran = nil
	c.Kernel(1).At(Time(time.Millisecond), func() { ran = append(ran, "at-limit") })
	c.Kernel(1).At(Time(time.Millisecond)+1, func() { ran = append(ran, "past-limit") })
	c.Kernel(0).StopAt(Time(time.Millisecond))
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != "at-limit" {
		t.Errorf("cluster ran %v, want [at-limit]", ran)
	}
}

func TestParallelStopMidRun(t *testing.T) {
	c := NewClusterObs(9, 3, 10*time.Microsecond, nil, nil)
	k1 := c.Kernel(1)
	ticks := 0
	k1.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(100 * time.Microsecond)
			ticks++
			if ticks == 5 {
				k1.Stop()
				return
			}
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatalf("%v", err)
	}
	if ticks != 5 {
		t.Errorf("%d ticks, want 5", ticks)
	}
	if n := k1.Now(); n != Time(500*time.Microsecond) {
		t.Errorf("stopped at %v, want 500µs", n)
	}
}

// TestByteIdentityShardCounts pins same-seed byte-identity of the
// epoch driver at the shard counts repro's -pcpus 1/2/4 produce (pcpus +
// the dom0 shard): two runs agree on every log line, the final time, the
// metrics and the trace.
func TestByteIdentityShardCounts(t *testing.T) {
	for _, shards := range []int{2, 3, 5} {
		aLog, aEnd, aMet, aTr := clusterRunShards(t, shards)
		bLog, bEnd, bMet, bTr := clusterRunShards(t, shards)
		if aEnd != bEnd {
			t.Errorf("shards=%d: final time: %v, then %v", shards, aEnd, bEnd)
		}
		if aLog != bLog {
			t.Errorf("shards=%d: execution logs differ", shards)
		}
		if aMet != bMet {
			t.Errorf("shards=%d: metrics differ:\n%s\nthen:\n%s", shards, aMet, bMet)
		}
		if aTr != bTr {
			t.Errorf("shards=%d: traces differ (%d bytes, then %d bytes)", shards, len(aTr), len(bTr))
		}
	}
}

// TestEpochWindowInvariant pins the property the epoch loop rests on. A
// chain of zero-delay Posts across three shards is clamped up to the
// lookahead W on every hop, so each send lands exactly W after its sender's
// clock; and a send that would land behind its destination's clock — which
// no Post can produce — panics at the barrier, naming the shard.
func TestEpochWindowInvariant(t *testing.T) {
	const w = 10 * time.Microsecond
	reg := obs.NewRegistry()
	c := NewClusterObs(11, 3, w, nil, reg)
	k0, k1, k2 := c.Kernel(0), c.Kernel(1), c.Kernel(2)
	var sent, landed []Time
	hop := func(src, dst *Kernel, next func()) {
		sent = append(sent, src.Now())
		src.Post(dst, 0, func() {
			landed = append(landed, dst.Now())
			next()
		})
	}
	k0.Spawn("chain", func(p *Proc) {
		p.Sleep(7 * time.Microsecond)
		hop(k0, k1, func() {
			hop(k1, k2, func() {
				hop(k2, k0, func() {})
			})
		})
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(landed) != 3 {
		t.Fatalf("%d hops landed, want 3", len(landed))
	}
	for i := range landed {
		if want := sent[i].Add(w); landed[i] != want {
			t.Errorf("hop %d sent at %v landed at %v, want %v", i, sent[i], landed[i], want)
		}
	}
	if n := reg.Counter("sim_cluster_clamped_sends_total").Value(); n != 3 {
		t.Errorf("sim_cluster_clamped_sends_total = %d, want 3", n)
	}

	if _, err := c.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	k2.mbox.q = append(k2.mbox.q, xevent{at: k2.Now() - 1, src: 1, seq: 1, fn: func() {}})
	got := func() (v any) {
		defer func() { v = recover() }()
		c.Run()
		return nil
	}()
	if s := fmt.Sprint(got); got == nil || !strings.Contains(s, "late cross-shard delivery to shard 2") {
		t.Errorf("panic = %v, want a late delivery to shard 2", got)
	}
}

// TestElisionTimerPastHorizon parks one timer on an otherwise-idle shard
// well past the first epochs' windows. The shard must be elided from early
// barriers (it has provably nothing to run), yet once a window reaches the
// timer the shard must run again and the timer must fire at exactly its
// natural timestamp.
func TestElisionTimerPastHorizon(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewClusterObs(3, 3, 10*time.Microsecond, nil, reg)

	k1, k2 := c.Kernel(1), c.Kernel(2)
	k1.Spawn("dense", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(5 * time.Microsecond)
		}
	})
	var firedAt Time
	k2.At(Time(300*time.Microsecond), func() { firedAt = k2.Now() })

	if _, err := c.Run(); err != nil {
		t.Fatalf("%v", err)
	}
	if firedAt != Time(300*time.Microsecond) {
		t.Errorf("parked timer fired at %v, want exactly 300µs", firedAt)
	}
	if el := reg.Counter("sim_cluster_barriers_elided_total").Value(); el == 0 {
		t.Errorf("quiet shard was never elided from a barrier")
	}
}

// TestStopAtInsideEpoch checks a RunFor limit landing mid-window: the last
// epoch of the first leg covers [1000µs, 1010µs) and the limit is 1005µs.
// Events up to the limit run, events past it stay parked, and every shard
// clock aligns on the limit so the next leg resumes consistently.
func TestStopAtInsideEpoch(t *testing.T) {
	c := NewClusterObs(13, 3, 10*time.Microsecond, nil, nil)
	k1 := c.Kernel(1)
	ticks := 0
	k1.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(20 * time.Microsecond)
			ticks++
		}
	})
	end, err := c.RunFor(1005 * time.Microsecond)
	if err != nil {
		t.Fatalf("first leg: %v", err)
	}
	if ticks != 50 {
		t.Errorf("%d ticks at the limit, want 50", ticks)
	}
	if end != Time(1005*time.Microsecond) {
		t.Errorf("first leg ended at %v, want 1.005ms", end)
	}
	for i := 0; i < c.Shards(); i++ {
		if n := c.Kernel(i).Now(); n != end {
			t.Errorf("shard %d clock %v, want %v", i, n, end)
		}
	}
	if _, err := c.RunFor(time.Millisecond); err != nil {
		t.Fatalf("second leg: %v", err)
	}
	if ticks != 100 {
		t.Errorf("%d ticks after resume, want 100", ticks)
	}
}

// TestMailboxSliceReuse pins the allocation fix: after the first barrier a
// mailbox drain must recycle the previous drain's backing array, counted in
// sim_cluster_mailbox_reuse_total.
func TestMailboxSliceReuse(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewClusterObs(17, 2, 10*time.Microsecond, nil, reg)
	k0 := c.Kernel(0)
	k1 := c.Kernel(1)
	k0.Spawn("sender", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(200 * time.Microsecond) // separate epochs: one drain each
			k0.Post(k1, 0, func() {})
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sim_cluster_mailbox_reuse_total").Value(); got == 0 {
		t.Error("sim_cluster_mailbox_reuse_total = 0, want recycled drains")
	}
}

// TestShardZeroReadsEpochStart: shard 0's window runs first in every epoch,
// so an event there reads another shard's state as it stood when the epoch
// began — none of that shard's writes from the same window, all of the
// earlier ones. The fleet's SLO watchdog reads replica histograms live on
// this promise.
func TestShardZeroReadsEpochStart(t *testing.T) {
	us := func(n int) Time { return Time(n) * Time(time.Microsecond) }
	c := NewClusterObs(1, 3, 10*time.Microsecond, nil, nil)
	var writes [3]int // writes[i] is written on shard i only
	for i := 1; i < 3; i++ {
		for _, at := range []int{1, 4, 13, 16} {
			c.Kernel(i).At(us(at), func() { writes[i]++ })
		}
	}
	// Epochs [1µs, 11µs) and [13µs, 23µs): shard 0 reads inside each.
	var seen []string
	for _, at := range []int{5, 17} {
		c.Kernel(0).At(us(at), func() { seen = append(seen, fmt.Sprint(writes[1:])) })
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(seen, " "), "[0 0] [2 2]"; got != want {
		t.Errorf("shard 0 read %s, want %s (each epoch's start)", got, want)
	}
}
