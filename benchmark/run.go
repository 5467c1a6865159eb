package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// The run protocol. Work is fixed by op count, never by time. One run of a
// workload is a warm-up repetition followed by R timed repetitions of the
// same seeded input, each on a fresh platform in a fresh process; host-time
// metrics are the median over the R repetitions, and the minimum and maximum
// are kept.
//
// Every repetition has a process of its own because a platform cannot be
// torn down: its backend Procs stay parked for ever, and with them everything
// the platform allocated. Repetitions sharing one heap would each run under a
// different collector pace (measured on kv_mixed: 156k to 286k ops/s over
// five repetitions in one process).
//
// One repetition:
//
//	set-up   process start, input generation, platform build, guest deploy and
//	         boot, and the platform run to 1 ms before the load starts
//	         (setup_s)
//	collect  runtime.GC(), so the timed run starts from a collected heap
//	timed    one Platform.RunFor, between two readings of the host counters
//	check    every op's output, Platform.Check(), the virtual digest

// processStart is as close to the start of the process as Go code gets.
var processStart = time.Now()

// rep is what one repetition measured; it is what a repetition's process
// prints on its standard output.
type rep struct {
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Allocs     float64 `json:"allocs"`
	AllocBytes float64 `json:"alloc_bytes"`
	MemMB      float64 `json:"mem_mb"`

	Ops       int     `json:"ops"` // planned = attempted
	Failed    int     `json:"failed"`
	SLOMisses int     `json:"slo_misses"`
	Samples   int     `json:"samples"` // latency samples behind the percentiles
	VirtOps   float64 `json:"virt_ops_per_s"`
	P50US     float64 `json:"p50_us"`
	P99US     float64 `json:"p99_us"`
	Digest    string  `json:"digest"`

	// Layers holds the repetition's per-layer metrics of source C, S and P;
	// only a traced repetition fills it.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// detail is what the per-layer metrics of one repetition are made from.
type detail struct {
	ops            int
	before, after  map[string]float64 // flattened counters around the timed run
	m              *merged
	boots          []bootSample
	reqP99US       float64
	gcCycles       float64
	gcCPU, userCPU float64
	goroutines     int
}

// repFunc runs one repetition of a workload at 1/div size. spans, if not
// empty, is where a traced repetition writes its span file.
type repFunc func(w *workload, seed int64, div int, traced bool, spans string) (*rep, error)

// runRep runs one repetition in this process.
func runRep(w *workload, seed int64, div int, traced bool, spans string) (*rep, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs()))
	in, ops := w.gen(seed, div)
	setSharding(w.shards)
	wd := w.build(in, traced)
	setSharding(0)
	if err := wd.runSetup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	r := &rep{Ops: ops, SetupS: time.Since(processStart).Seconds()}
	d := &detail{ops: ops}

	d.before, _ = wd.counters()
	registryBefore := wd.registry()
	d.goroutines = runtime.NumGoroutine()
	var profile bytes.Buffer
	runtime.GC()
	if traced {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
	}
	h0 := readHost()
	err := wd.runTimed()
	h1 := readHost()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.name, err)
	}
	if err := wd.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.WallS = h1.wall.Sub(h0.wall).Seconds()
	r.CPUS = (h1.cpu - h0.cpu).Seconds()
	r.Allocs = float64(h1.allocs - h0.allocs)
	r.AllocBytes = float64(h1.allocBytes - h0.allocBytes)
	r.MemMB = hostMemMB()
	d.gcCycles = float64(h1.gcCycles - h0.gcCycles)
	d.gcCPU, d.userCPU = h1.gcCPU-h0.gcCPU, h1.userCPU-h0.userCPU
	if n := runtime.NumGoroutine(); n > d.goroutines {
		d.goroutines = n
	}

	var lines []string
	d.after, lines = wd.counters()
	d.reqP99US = wd.requestPercentile(registryBefore, 0.99)
	d.boots = wd.boots
	m := merge(ops, wd.recs)
	if traced {
		// Deploy → guest Main entered, one span per guest, on a row of their own.
		var deploys []span
		for _, b := range wd.boots {
			deploys = append(deploys, span{kind: spanDeploy, op: -1, end: b.virtNS})
		}
		m.spans = append(m.spans, deploys)
	}
	d.m = m
	r.Failed = m.failed()
	r.SLOMisses = m.sloMisses(w.sloNS)
	r.Digest = m.digest(lines)
	if m.firstDue >= 0 && m.lastDone > m.firstDue {
		r.VirtOps = float64(ops-r.Failed) / (float64(m.lastDone-m.firstDue) / 1e9)
	}
	var lat []int64
	for op, l := range m.lat {
		if l >= 0 && (w.latOf == nil || w.latOf(in, op)) {
			lat = append(lat, l)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.Samples = len(lat)
	r.P50US = float64(percentile(lat, 0.50)) / 1e3
	r.P99US = float64(percentile(lat, 0.99)) / 1e3

	if traced {
		r.Layers = countAndSpanLayers(d)
		samples, err := parseProfile(profile.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: cpu profile: %w", w.name, err)
		}
		shares, _ := foldProfile(samples)
		for name, v := range shares {
			r.Layers[name] = v
		}
		if spans != "" {
			if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
				return nil, err
			}
			if err := m.writeSpans(spans); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// childRep runs one full-size repetition in a process of its own: this
// program again, with -rep. It waits for the process to end.
func childRep(w *workload, seed int64, _ int, traced bool, spans string) (*rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-rep", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-traced="+strconv.FormatBool(traced), "-spans", spans)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: repetition process: %w", w.name, err)
	}
	r := &rep{}
	if err := json.Unmarshal(out, r); err != nil {
		return nil, fmt.Errorf("%s: repetition process output: %w", w.name, err)
	}
	return r, nil
}

// stat is one metric over the repetitions of a run.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

func newStat(unit string, values []float64) stat {
	st := stat{Unit: unit, Values: values, Median: median(values)}
	for i, v := range values {
		if i == 0 || v < st.Min {
			st.Min = v
		}
		if i == 0 || v > st.Max {
			st.Max = v
		}
	}
	return st
}

// record is the JSON record one run of one workload writes.
type record struct {
	Workload   string          `json:"workload"`
	Op         string          `json:"op"`
	Loop       string          `json:"loop"`
	Seed       int64           `json:"seed"`
	Reps       int             `json:"reps"`
	OpsPerRep  int             `json:"ops_per_rep"`
	Samples    int             `json:"latency_samples_per_rep"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"nproc"`
	Go         string          `json:"go"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	SLOMisses  int             `json:"slo_misses"`
	Digests    []string        `json:"digests"`
	SameDigest bool            `json:"digests_equal"`
	Metrics    map[string]stat `json:"metrics"`
}

type runConfig struct {
	seed int64
	reps int
	div  int // 1 = full size; the smoke test runs at 50
	out  string
	rep  repFunc // childRep, or runRep to stay in this process
}

// runUntraced is the run that produces the end-to-end metrics: one warm-up
// repetition, then cfg.reps timed ones.
func runUntraced(w *workload, cfg runConfig) (*record, error) {
	var reps []*rep
	var setups []float64
	for i := 0; i <= cfg.reps; i++ {
		r, err := cfg.rep(w, cfg.seed, cfg.div, false, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
		if i > 0 { // repetition 0 is the warm-up
			reps = append(reps, r)
		}
	}
	rec := &record{
		Workload: w.name, Op: w.op, Loop: w.loop, Seed: cfg.seed, Reps: cfg.reps, OpsPerRep: reps[0].Ops,
		Samples: reps[0].Samples, GOMAXPROCS: w.procs(), NumCPU: runtime.NumCPU(), Go: runtime.Version(),
		SameDigest: true, Metrics: map[string]stat{},
	}
	col := map[string][]float64{"setup_s": setups}
	memMax := 0.0
	for _, r := range reps {
		n := float64(r.Ops)
		rec.Attempted += r.Ops
		rec.Failed += r.Failed
		rec.SLOMisses += r.SLOMisses
		rec.Digests = append(rec.Digests, r.Digest)
		if r.Digest != reps[0].Digest {
			rec.SameDigest = false
		}
		if r.MemMB > memMax {
			memMax = r.MemMB
		}
		for name, v := range map[string]float64{
			"wall_ops_per_s":     n / r.WallS,
			"cpu_us_per_op":      r.CPUS * 1e6 / n,
			"allocs_per_op":      r.Allocs / n,
			"alloc_bytes_per_op": r.AllocBytes / n,
			"virt_ops_per_s":     r.VirtOps,
			"virt_lat_p50_us":    r.P50US,
			"virt_lat_p99_us":    r.P99US,
			"virt_slo_ok_ratio":  1 - float64(r.SLOMisses)/n,
			"ok_ratio":           1 - float64(r.Failed)/n,
		} {
			col[name] = append(col[name], v)
		}
	}
	col["host_mem_mb"] = []float64{memMax}
	for _, m := range e2eMetrics {
		rec.Metrics[m.name] = newStat(m.unit, col[m.name])
	}
	return rec, nil
}

// tracedReps is how many repetitions the traced run records.
const tracedReps = 2

// tracedRun is what the traced run of one workload produced. A traced run
// with a failed op is an error, so every attempted op succeeded.
type tracedRun struct {
	layers    map[string]float64
	attempted int
}

// runTraced is the separate traced run that produces the per-layer metrics of
// source C, S and P: a warm-up and one untraced repetition (the reference for
// obs.trace_overhead_frac), then tracedReps repetitions with harness spans,
// the registry delta and a CPU profile. C and S repeat exactly on the serial
// workloads; every metric is reported as the mean over the traced repetitions.
func runTraced(w *workload, cfg runConfig) (*tracedRun, error) {
	spans := ""
	if cfg.out != "" {
		spans = filepath.Join(cfg.out, w.name+".spans.json")
	}
	var all []*rep
	for i := 0; i < 2+tracedReps; i++ {
		traced := i >= 2
		path := ""
		if traced {
			path = spans
		}
		r, err := cfg.rep(w, cfg.seed, cfg.div, traced, path)
		if err != nil {
			return nil, err
		}
		if r.Failed > 0 {
			return nil, fmt.Errorf("%s: traced run: %d of %d ops failed", w.name, r.Failed, r.Ops)
		}
		all = append(all, r)
	}
	untraced, traced := all[1], all[2:]
	out := map[string]float64{}
	tracedWall, attempted := 0.0, 0
	for _, r := range traced {
		attempted += r.Ops
		for name, v := range r.Layers {
			out[name] += v / float64(len(traced))
		}
		tracedWall += r.WallS / float64(len(traced))
	}
	out["obs.trace_overhead_frac"] = tracedWall/untraced.WallS - 1

	// The parallel workload's two own metrics: how much faster it ran than the
	// serial workload it mirrors (one repetition of that, same invocation),
	// and how many of its repetitions differed in their virtual results.
	if w.shards > 0 {
		serial, err := cfg.rep(workloadByName("http_fleet"), cfg.seed, cfg.div, false, "")
		if err != nil {
			return nil, err
		}
		out["sim.par_speedup"] = serial.WallS / untraced.WallS
		for _, r := range all[1:] {
			if r.Digest != all[0].Digest {
				out["sim.nondet_reps"]++
			}
		}
	}
	return &tracedRun{layers: out, attempted: attempted}, nil
}

// writeJSON writes v to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// printRecord prints every end-to-end metric of a run by name, with its unit.
func printRecord(rec *record) {
	fmt.Printf("%s  seed=%d reps=%d ops/rep=%d GOMAXPROCS=%d\n", rec.Workload, rec.Seed, rec.Reps, rec.OpsPerRep, rec.GOMAXPROCS)
	for _, m := range e2eMetrics {
		s := rec.Metrics[m.name]
		fmt.Printf("  %-20s %14.6g %-6s (min %.6g, max %.6g)\n", m.name, s.Median, s.Unit, s.Min, s.Max)
	}
	fmt.Printf("  fail_ratio %.6g (%d of %d attempted), virt_slo_miss_ratio %.6g (%d), %d latency samples per repetition, digests equal: %v\n",
		float64(rec.Failed)/float64(rec.Attempted), rec.Failed, rec.Attempted,
		float64(rec.SLOMisses)/float64(rec.Attempted), rec.SLOMisses, rec.Samples, rec.SameDigest)
}

// printLayers prints every per-layer metric by name, with its unit and source.
func printLayers(title string, layers map[string]float64) {
	fmt.Printf("%s  per-layer metrics\n", title)
	for _, m := range layerMetrics {
		fmt.Printf("  %-38s %14.6g %-6s %s\n", m.name, layers[m.name], m.unit, m.source)
	}
}
