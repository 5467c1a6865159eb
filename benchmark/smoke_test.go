package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The smoke test is what makes a later API change that breaks the benchmark
// fail at tier-1 (go test ./...) instead of at measurement time: it runs every
// workload at 1/50 size, untraced and traced, plus one pass of the
// microbenchmarks, and holds the names the benchmark emits against
// BENCHMARK.json.

const smokeDiv = 50

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclaredNames: BENCHMARK.json and spec.go declare the same workloads and
// metrics, inside the contract's limits.
func TestDeclaredNames(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bj.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q / spec.go %q (or their why differs)", i, got.Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	if len(bj.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(bj.EndToEnd), len(e2eMetrics))
	}
	hasSetup := false
	for i, m := range e2eMetrics {
		got := bj.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %s %s %s %v", i, got, m.name, m.unit, m.better, m.bound)
		}
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end %q: bad name, unit or bound", m.name)
		}
		if m.name == "setup_s" && m.unit == "s" && m.better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(bj.PerLayer), len(layerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range layerMetrics {
		got := bj.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %s %s %s", i, got, m.name, m.unit, m.better)
		}
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
			t.Errorf("per-layer %q: bad or repeated name, or bad unit", m.name)
		}
		seen[m.name] = true
	}
}

// TestWorkloadsUntraced: every workload runs, checks its outputs and emits
// exactly the declared end-to-end metrics, none of them 0.
func TestWorkloadsUntraced(t *testing.T) {
	for _, w := range workloads {
		rec, err := runUntraced(w, runConfig{seed: 1, reps: 1, div: smokeDiv, rep: runRep})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failed != 0 || rec.Attempted != rec.OpsPerRep {
			t.Errorf("%s: %d of %d ops failed", w.name, rec.Failed, rec.Attempted)
		}
		if len(rec.Metrics) != len(e2eMetrics) {
			t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(rec.Metrics), len(e2eMetrics))
		}
		for _, m := range e2eMetrics {
			s, ok := rec.Metrics[m.name]
			if !ok || !(s.Median > 0) || math.IsInf(s.Median, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, m.name, s.Median)
			}
		}
	}
}

// TestSerialWorkloadsRepeat: on the serial workloads two repetitions of one
// seed have the same virtual digest, and another seed another.
func TestSerialWorkloadsRepeat(t *testing.T) {
	w := workloadByName("http_fleet")
	a, err := runRep(w, 1, smokeDiv, false, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep(w, 1, smokeDiv, false, "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := runRep(w, 2, smokeDiv, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("same seed, digests %s and %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a.Digest)
	}
}

// mustMove lists, per workload, per-layer metrics that are non-zero whenever
// the counters, spans and registry ids they are made from still exist: a
// renamed counter would otherwise silently read 0.
var mustMove = map[string][]string{
	"tcp_bulk": {"sim.proc_wakes_per_op", "sim.wheel_timers_per_op", "ring.batch_mean", "grant.ops_per_op",
		"grant.copy_bytes_per_op", "hypervisor.notifies_per_op", "hypervisor.vcpu_busy_virt_us_per_op",
		"hypervisor.boot_wall_us", "hypervisor.boot_virt_ms", "netback.notifications_per_op",
		"netback.virt_busy_us_per_op", "tcp.segments_per_op", "tcp.connect_virt_us_p50", "tcp.write_virt_us_p50",
		"goruntime.goroutines_peak"},
	"dns_udp": {"sim.proc_wakes_per_op", "ring.batch_mean", "grant.ops_per_op", "hypervisor.notifies_per_op",
		"hypervisor.vcpu_busy_virt_us_per_op", "netback.notifications_per_op", "netback.virt_busy_us_per_op"},
	"http_fleet": {"sim.wheel_timers_per_op", "tcp.segments_per_op", "tcp.connect_virt_us_p50",
		"httpd.request_virt_us_p99", "fleet.steered_conns_per_op", "fleet.replica_imbalance",
		"hypervisor.runq_wait_virt_us_per_op"},
	"http_fleet_par": {"sim.epochs_per_kop", "sim.par_speedup", "fleet.steered_conns_per_op"},
	"kv_mixed": {"blkif.merged_ratio", "blkif.indirect_ratio", "blkif.ring_occupancy_mean",
		"blkback.virt_busy_us_per_op", "storage.wal_flushes_per_kop", "storage.wal_grouped_max",
		"storage.checkpoints", "storage.set_virt_us_p50", "grant.ops_per_op"},
}

// TestTracedAndLayers: the traced run of every workload plus one pass of the
// microbenchmarks emit exactly the declared per-layer metrics, and writes the
// span file.
func TestTracedAndLayers(t *testing.T) {
	micro := runMicro(1000, 0)
	for name, v := range micro {
		if !(v > 0) && !strings.HasSuffix(name, "_allocs") {
			t.Errorf("microbenchmark %s = %v", name, v)
		}
	}
	declared := map[string]layerMetric{}
	for _, m := range layerMetrics {
		declared[m.name] = m
	}
	out := t.TempDir()
	for _, w := range workloads {
		tr, err := runTraced(w, runConfig{seed: 1, div: smokeDiv, out: out, rep: runRep})
		if err != nil {
			t.Fatal(err)
		}
		lay := tr.layers
		for k, v := range micro {
			lay[k] = v
		}
		for name := range lay {
			// The profile also yields shares no metric is declared for.
			if _, ok := declared[name]; !ok && !strings.HasSuffix(name, "cpu_share") {
				t.Errorf("%s: emitted %s, which is not declared", w.name, name)
			}
		}
		for _, m := range layerMetrics {
			if _, ok := lay[m.name]; !ok && m.source != "P" && m.name != "sim.par_speedup" && m.name != "sim.nondet_reps" {
				t.Errorf("%s: declared %s (%s) was not emitted", w.name, m.name, m.source)
			}
		}
		for _, name := range mustMove[w.name] {
			if !(lay[name] > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, lay[name])
			}
		}
		if st, err := os.Stat(filepath.Join(out, w.name+".spans.json")); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file: %v", w.name, err)
		}
	}
}

// TestOnlySutImportsTheProgram: sut.go is the one file that reaches into the
// program under test, so its imports are the whole pinned API surface.
func TestOnlySutImportsTheProgram(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.HasPrefix(imp.Path.Value, `"repro/`) && f != "sut.go" {
				t.Errorf("%s imports %s; only sut.go may import the program under test", f, imp.Path.Value)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := e2eMetric{name: "cpu_us_per_op", better: "lower", bound: 0.10}
	higher := e2eMetric{name: "wall_ops_per_s", better: "higher", bound: 0.10}
	st := func(v ...float64) stat { return newStat("", v) }
	for _, c := range []struct {
		m    e2eMetric
		a, b stat
		want string
	}{
		{lower, st(10, 10.2, 10.4), st(10, 10.2, 10.4), "same"},
		{lower, st(10, 10.2, 10.4), st(10.1, 10.3, 10.5), "same"},
		{lower, st(10, 10.2, 10.4), st(9, 9.1, 9.2), "better"},
		{lower, st(10, 10.2, 10.4), st(11.5, 11.6, 11.7), "worse"},
		{lower, st(9, 10.2, 12), st(9.5, 10.4, 12.5), "unresolved"},
		{higher, st(100, 102, 104), st(120, 121, 122), "better"},
		{higher, st(100, 102, 104), st(85, 86, 87), "worse"},
		{higher, st(100, 102, 104), st(99, 101, 103), "same"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.m.name, c.a.Values, c.b.Values, got, c.want)
		}
	}
}
