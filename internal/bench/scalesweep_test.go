package bench

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netback"
	"repro/internal/obs"
)

// TestScaleSweep (quick mode): the autoscaled fleet must summon replicas as
// the load steps up and hold tail latency well under the overloaded fixed
// baseline at the top step, and the whole rendered result must be
// byte-identical across same-seed runs.
// scaleSweep is the quick sweep every test here runs: seed 42, 1..3 replicas.
func scaleSweep(rc core.Config) *Result {
	r, _ := ScaleSweepDomStat(rc, 42, true, 1, 3, fleet.RoundRobin)
	return r
}

func TestScaleSweep(t *testing.T) {
	r := scaleSweep(core.Config{})

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

	r2 := scaleSweep(core.Config{})
	if r.Format() != r2.Format() {
		t.Fatalf("same-seed runs differ:\n--- run1\n%s\n--- run2\n%s", r.Format(), r2.Format())
	}
}

// TestSweepsShardedParity: on the 4-shard layout the sweeps must render the
// same bytes whether or not the run is traced — the load generators sit on
// four different shards and the trace merges four buffers, so a figure that
// read anything the tracer touches would show it here. Each run is built from
// its own configuration value, so they are parallel subtests.
func TestSweepsShardedParity(t *testing.T) {
	configs := []struct {
		name string
		cfg  func() core.Config
	}{
		{"serial", func() core.Config { return core.Config{PCPUs: 4} }},
		{"traced", func() core.Config {
			tr := obs.NewTracer(obs.DefaultCap)
			tr.Enable()
			return core.Config{PCPUs: 4, Trace: tr}
		}},
	}
	sweeps := []struct {
		name string
		run  func(core.Config) *Result
	}{
		{"scalesweep", func(rc core.Config) *Result { return scaleSweep(rc) }},
		{"racksweep", func(rc core.Config) *Result { return RackSweep(rc, 42, true) }},
	}
	out := make([][]string, len(sweeps))
	t.Run("runs", func(t *testing.T) {
		for si, sw := range sweeps {
			out[si] = make([]string, len(configs))
			for ci, c := range configs {
				si, ci, sw, c := si, ci, sw, c
				t.Run(sw.name+"/"+c.name, func(t *testing.T) {
					t.Parallel()
					out[si][ci] = sw.run(c.cfg()).Format()
				})
			}
		}
	})
	for si, sw := range sweeps {
		for ci, c := range configs {
			if out[si][ci] != out[si][0] {
				t.Errorf("%s: %s and %s runs differ:\n--- %s\n%s\n--- %s\n%s",
					sw.name, configs[0].name, c.name, configs[0].name, out[si][0], c.name, out[si][ci])
			}
		}
	}
}

// TestShardedTracksSerial: the 4-shard layout partitions one event queue
// and models nothing of its own, so its figures must stay close to the
// serial ones: losssweep goodput within 10 % at every loss rate, and
// racksweep's p99 and p50 rows within 50 µs (the cross-shard lookahead adds
// a few µs per hop). Cross-shard sends that arrive late, or a width that
// defers a reply, show up here as a collapsed goodput or a tail in ms.
func TestShardedTracksSerial(t *testing.T) {
	runs := []struct {
		name   string
		run    func(core.Config) *Result
		series []string
		near   func(serial, sharded float64) bool
		want   string
	}{
		{"losssweep", func(rc core.Config) *Result { return LossSweep(rc, 1<<20, nil) }, []string{"goodput"},
			func(a, b float64) bool { return math.Abs(b-a) <= 0.1*a }, "within 10 %"},
		{"racksweep", func(rc core.Config) *Result { return RackSweep(rc, 42, true) }, []string{"p99 ms", "p50 ms"},
			func(a, b float64) bool { return math.Abs(b-a) <= 0.050 }, "within 50 µs"},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			serial, sharded := r.run(core.Config{PCPUs: 1}), r.run(core.Config{PCPUs: 4})
			for _, name := range r.series {
				a, b := serial.Get(name), sharded.Get(name)
				if a == nil || b == nil || len(a.Y) != len(b.Y) || len(a.Y) == 0 {
					t.Fatalf("series %q missing or misshapen:\n%s\n%s", name, serial.Format(), sharded.Format())
				}
				for i := range a.Y {
					if !r.near(a.Y[i], b.Y[i]) {
						t.Errorf("%s at x=%v: 4 shards %.3f, serial %.3f, want %s", name, a.X[i], b.Y[i], a.Y[i], r.want)
					}
				}
			}
		})
	}
}

// TestConfigsRunConcurrently: a run is a value, so differently configured
// platforms share a process. Four sweeps — plain, sharded, impaired, traced —
// start together on their own goroutines, each from its own configuration,
// and each must produce the figure, registry and trace it produces alone.
// Nothing ambient is left for them to share; under -race that is also checked
// access by access.
func TestConfigsRunConcurrently(t *testing.T) {
	configs := []struct {
		name string
		cfg  func() core.Config
	}{
		{"plain", func() core.Config { return core.Config{Metrics: obs.NewRegistry()} }},
		{"4-shards", func() core.Config { return core.Config{PCPUs: 4, Metrics: obs.NewRegistry()} }},
		{"impaired", func() core.Config {
			return core.Config{
				Faults:  netback.Faults{Drop: 0.01, Jitter: 200 * time.Microsecond},
				Metrics: obs.NewRegistry(),
			}
		}},
		{"traced", func() core.Config {
			tr := obs.NewTracer(obs.DefaultCap)
			tr.Enable()
			return core.Config{Trace: tr, Metrics: obs.NewRegistry()}
		}},
	}
	type outcome struct {
		figure, metrics, trace string
		faults                 int64 // bridge_faults_total, every kind
	}
	run := func(rc core.Config) outcome {
		o := outcome{figure: scaleSweep(rc).Format()}
		snap := rc.Metrics.Snapshot()
		o.metrics = snap.Format()
		for _, row := range snap.Filter("bridge_faults_total").Rows {
			o.faults += row.N
		}
		if rc.Trace != nil {
			var b bytes.Buffer
			if err := rc.Trace.WriteJSON(&b); err != nil {
				t.Error(err)
			}
			o.trace = b.String()
		}
		return o
	}

	alone := make([]outcome, len(configs))
	for i, c := range configs {
		alone[i] = run(c.cfg())
	}
	together := make([]outcome, len(configs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range configs {
		i, rc := i, c.cfg()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			together[i] = run(rc)
		}()
	}
	close(start)
	wg.Wait()

	for i, c := range configs {
		a, b := alone[i], together[i]
		if a.figure != b.figure {
			t.Errorf("%s: figure differs from the run alone:\n--- alone\n%s\n--- concurrent\n%s", c.name, a.figure, b.figure)
		}
		if a.metrics != b.metrics {
			t.Errorf("%s: registry differs from the run alone:\n--- alone\n%s\n--- concurrent\n%s", c.name, a.metrics, b.metrics)
		}
		if a.trace != b.trace {
			t.Errorf("%s: trace differs from the run alone (%d vs %d bytes)", c.name, len(a.trace), len(b.trace))
		}
	}
	if n := together[0].faults; n != 0 {
		t.Errorf("plain run counted %d bridge faults: another run's impairment reached it", n)
	}
	if together[2].faults == 0 {
		t.Error("impaired run counted no bridge faults: its configuration never reached the bridge")
	}
	if together[3].trace == "" || together[0].figure != together[3].figure {
		t.Error("traced run recorded nothing, or tracing changed the figure")
	}
}
