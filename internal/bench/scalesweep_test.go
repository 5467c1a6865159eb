package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
)

// TestScaleSweep (quick mode): the autoscaled fleet must summon replicas as
// the load steps up and hold tail latency well under the overloaded fixed
// baseline at the top step, and the whole rendered result must be
// byte-identical across same-seed runs.
func TestScaleSweep(t *testing.T) {
	r := ScaleSweep(42, true, 1, 3, fleet.RoundRobin)

	reps := r.Get("fleet replicas")
	if reps == nil || len(reps.Y) == 0 {
		t.Fatal("missing 'fleet replicas' series")
	}
	top := len(reps.Y) - 1
	if reps.Y[top] < 2 {
		t.Fatalf("fleet never scaled up: replicas at top load = %v\n%s", reps.Y[top], r.Format())
	}

	fp99 := r.Get("fleet p99 ms")
	xp99 := r.Get("fixed p99 ms")
	if fp99 == nil || xp99 == nil {
		t.Fatal("missing p99 series")
	}
	if fp99.Y[top] <= 0 || xp99.Y[top] <= 0 {
		t.Fatalf("empty latency samples at top load\n%s", r.Format())
	}
	// The baseline single replica is ~1.6x oversubscribed at the top step;
	// its p99 should be at least twice the fleet's.
	if xp99.Y[top] < 2*fp99.Y[top] {
		t.Fatalf("fixed baseline p99 %.1fms not degraded vs fleet p99 %.1fms\n%s",
			xp99.Y[top], fp99.Y[top], r.Format())
	}

	fg := r.Get("fleet goodput")
	xg := r.Get("fixed goodput")
	if fg.Y[top] <= xg.Y[top] {
		t.Fatalf("fleet goodput %.0f <= fixed %.0f at top load\n%s", fg.Y[top], xg.Y[top], r.Format())
	}

	r2 := ScaleSweep(42, true, 1, 3, fleet.RoundRobin)
	if r.Format() != r2.Format() {
		t.Fatalf("same-seed runs differ:\n--- run1\n%s\n--- run2\n%s", r.Format(), r2.Format())
	}
}

// TestSweepsShardedParity: on the 4-shard layout the sweeps must render the
// same bytes whether the shards interleave on one thread or run on their own
// — the load generators sit on four different shards, so anything they
// share (a collector, a histogram read live) shows up here, and under -race.
func TestSweepsShardedParity(t *testing.T) {
	defer core.SetDefaultSharding(1, false)
	for _, sw := range []struct {
		name string
		run  func() *Result
	}{
		{"scalesweep", func() *Result { return ScaleSweep(42, true, 1, 3, fleet.RoundRobin) }},
		{"racksweep", func() *Result { return RackSweep(42, true) }},
	} {
		core.SetDefaultSharding(4, false)
		serial := sw.run().Format()
		core.SetDefaultSharding(4, true)
		if parallel := sw.run().Format(); parallel != serial {
			t.Errorf("%s: serial and parallel drivers differ:\n--- serial\n%s\n--- parallel\n%s",
				sw.name, serial, parallel)
		}
	}
}
