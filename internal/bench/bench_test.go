package bench

import (
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/sim"
)

// last returns the final Y value of a series.
func last(s *Series) float64 { return s.Y[len(s.Y)-1] }

func TestFig5Shape(t *testing.T) {
	r := Fig5BootTime(core.Config{}, []int{64, 512, 3072})
	mirage, minimal, apache := r.Get("mirage"), r.Get("linux-pv-minimal"), r.Get("linux-pv-apache")
	if mirage == nil || minimal == nil || apache == nil {
		t.Fatal("missing series")
	}
	for i := range mirage.Y {
		// Mirage matches minimal Linux and is well under half Debian+Apache... the
		// paper says "slightly under half the time of the Debian Linux".
		if mirage.Y[i] > minimal.Y[i] {
			t.Errorf("mem %v: mirage %.3fs > minimal linux %.3fs", mirage.X[i], mirage.Y[i], minimal.Y[i])
		}
		ratio := apache.Y[i] / mirage.Y[i]
		if ratio < 1.6 || ratio > 3.5 {
			t.Errorf("mem %v: apache/mirage ratio = %.2f, want ~2x", mirage.X[i], ratio)
		}
	}
	// Boot time grows with memory (domain build).
	if mirage.Y[2] <= mirage.Y[0] {
		t.Error("mirage boot time does not grow with memory")
	}
}

// TestFig6Shape: fig6's Mirage column is a real appliance's start-of-day,
// the same instant-to-instant span a deployment reads off its domain, and
// it is under the paper's 50 ms at every size.
func TestFig6Shape(t *testing.T) {
	r := Fig6BootAsync(core.Config{})
	mirage, linux := r.Get("mirage"), r.Get("linux-pv")

	pl := core.NewPlatform(1)
	dep := pl.Deploy(core.Unikernel{
		Build: build.DNSAppliance(nil),
		Main: func(env *core.Env) int {
			env.VM.Dom.SignalReady()
			return 0
		},
	}, core.DeployOpts{
		ParallelToolstack: true,
		Net:               &netstack.Config{MAC: core.MAC(1), IP: pairServer, Netmask: benchMask},
	})
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		t.Fatal(err)
	}
	want := dep.Domain.BootedAt.Sub(dep.Domain.CreatedAt).Seconds()
	for i, y := range mirage.Y {
		if y != want {
			t.Errorf("mirage startup at %v MiB = %vs, a deployed appliance's BootedAt-CreatedAt = %vs", mirage.X[i], y, want)
		}
		if y > 0.05 {
			t.Errorf("mirage startup at %v MiB = %.3fs, paper says under 50ms", mirage.X[i], y)
		}
	}
	if last(linux) < 5*last(mirage) {
		t.Errorf("linux startup %.3fs not clearly above mirage %.3fs", last(linux), last(mirage))
	}
	if linux.Y[len(linux.Y)-1] <= linux.Y[0] {
		t.Error("linux startup does not grow with memory")
	}
}

func TestFig7aOrdering(t *testing.T) {
	r := Fig7aThreads(core.Config{}, []int{300_000})
	pv, native := r.Get("linux-pv"), r.Get("linux-native")
	malloc, extent := r.Get("mirage-malloc"), r.Get("mirage-extent")
	for i := range pv.Y {
		if !(pv.Y[i] > native.Y[i] && native.Y[i] > malloc.Y[i] && malloc.Y[i] > extent.Y[i]) {
			t.Errorf("ordering violated at %v M threads: pv=%.3f native=%.3f malloc=%.3f extent=%.3f",
				pv.X[i], pv.Y[i], native.Y[i], malloc.Y[i], extent.Y[i])
		}
	}
}

func TestFig7bMirageTighter(t *testing.T) {
	_, stats := Fig7bJitter(core.Config{}, 200_000)
	byName := map[string]JitterStats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	m, n, pv := byName["mirage"], byName["linux-native"], byName["linux-pv"]
	if !(m.P99 < n.P99 && n.P99 < pv.P99) {
		t.Errorf("p99 ordering: mirage=%v native=%v pv=%v", m.P99, n.P99, pv.P99)
	}
	if !(m.Max < n.Max) {
		t.Errorf("mirage max %v not tighter than native max %v", m.Max, n.Max)
	}
}

func TestPingOverheadInPaperRange(t *testing.T) {
	r := PingLatency(core.Config{}, 2_000)
	l, m := r.Get("linux-target").Y[0], r.Get("mirage-target").Y[0]
	overhead := (m/l - 1) * 100
	if overhead < 2 || overhead > 14 {
		t.Errorf("mirage ping overhead = %.1f%%, paper says 4-10%%", overhead)
	}
}

func TestFig8Shape(t *testing.T) {
	r := Fig8TCP(core.Config{}, 2<<20)
	ll, lm, ml := r.Get("linux-to-linux"), r.Get("linux-to-mirage"), r.Get("mirage-to-linux")
	for i := 0; i < 2; i++ {
		if !(lm.Y[i] > ll.Y[i]) {
			t.Errorf("flows=%v: L->M (%.0f) not above L->L (%.0f); zero-copy receive should win", ll.X[i], lm.Y[i], ll.Y[i])
		}
		if !(ml.Y[i] < ll.Y[i]) {
			t.Errorf("flows=%v: M->L (%.0f) not below L->L (%.0f); type-safe tx should cost", ll.X[i], ml.Y[i], ll.Y[i])
		}
		// Rough magnitudes: all in the 0.7-2.5 Gb/s band of Figure 8.
		for _, s := range []*Series{ll, lm, ml} {
			if s.Y[i] < 600 || s.Y[i] > 2600 {
				t.Errorf("%s flows=%v: %.0f Mb/s outside the paper's band", s.Name, s.X[i], s.Y[i])
			}
		}
	}
	// M->L ratio to L->L roughly 975/1590 ~ 0.61.
	ratio := ml.Y[0] / ll.Y[0]
	if ratio < 0.45 || ratio > 0.8 {
		t.Errorf("M->L / L->L = %.2f, paper ~0.61", ratio)
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9BlockRead(core.Config{}, []int{4, 64, 1024, 4096}, 256)
	mir, unb, buf := r.Get("mirage"), r.Get("mirage-unbatched"), r.Get("linux-pv-buffered")
	if mir == nil || unb == nil || buf == nil {
		t.Fatal("missing series")
	}
	// The fast path (merging + indirect descriptors) beats per-page
	// submission by >=3x at small block sizes — a burst of adjacent small
	// reads rides one ring slot and one device op.
	for i := range mir.Y {
		if mir.X[i] > 4 {
			continue
		}
		if mir.Y[i] < 3*unb.Y[i] {
			t.Errorf("block %v KiB: batched %.0f MiB/s < 3x unbatched %.0f MiB/s",
				mir.X[i], mir.Y[i], unb.Y[i])
		}
	}
	// The fast path reaches near the 1.6 GB/s device ceiling at large blocks.
	if top := last(mir); top < 1200 || top > 1800 {
		t.Errorf("mirage large-block throughput = %.0f MiB/s, want ~1600", top)
	}
	// The buffer cache plateaus near 300 MB/s.
	if plateau := last(buf); plateau < 200 || plateau > 420 {
		t.Errorf("buffered plateau = %.0f MiB/s, want ~300", plateau)
	}
	if last(buf) > last(mir)/3 {
		t.Error("buffer cache not clearly the bottleneck at large blocks")
	}
	// Batched throughput grows with block size (merging already helps small
	// blocks, but big sequential runs keep the device busier).
	if mir.Y[0] >= last(mir) {
		t.Error("mirage throughput does not grow with block size")
	}
}

func TestFig10Shape(t *testing.T) {
	r := Fig10DNS(core.Config{}, []int{100, 1000, 10000}, 5_000)
	bind, nsd := r.Get("bind9-linux"), r.Get("nsd-linux")
	noMemo, memo := r.Get("mirage-no-memo"), r.Get("mirage-memo")
	minios := r.Get("nsd-minios-O")

	// At reasonable zone sizes (index 1: 1000 entries).
	i := 1
	if v := bind.Y[i]; v < 45 || v > 65 {
		t.Errorf("bind = %.0f kq/s, want ~55", v)
	}
	if v := nsd.Y[i]; v < 60 || v > 80 {
		t.Errorf("nsd = %.0f kq/s, want ~70", v)
	}
	if v := noMemo.Y[i]; v < 30 || v > 50 {
		t.Errorf("mirage no-memo = %.0f kq/s, want ~40", v)
	}
	if v := memo.Y[i]; v < 70 || v > 90 {
		t.Errorf("mirage memo = %.0f kq/s, want 75-80", v)
	}
	// Memoized Mirage outperforms both BIND and NSD (the headline claim).
	if !(memo.Y[i] > nsd.Y[i] && memo.Y[i] > bind.Y[i]) {
		t.Error("memoized Mirage does not beat BIND and NSD")
	}
	// The Mirage DNS server outperforms BIND by ~45%.
	gain := (memo.Y[i]/bind.Y[i] - 1) * 100
	if gain < 25 || gain > 65 {
		t.Errorf("Mirage-vs-BIND gain = %.0f%%, paper says 45%%", gain)
	}
	// MiniOS port far below everything.
	if minios.Y[i] > noMemo.Y[i]/2 {
		t.Errorf("NSD-MiniOS = %.0f kq/s, should be far below Mirage", minios.Y[i])
	}
	// BIND's reproducible small-zone anomaly.
	if bind.Y[0] >= bind.Y[1] {
		t.Error("BIND small-zone slowdown missing")
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11OpenFlow(50_000)
	nox, mir, mae := r.Get("nox-destiny-fast"), r.Get("mirage"), r.Get("maestro")
	for i := 0; i < 2; i++ {
		if !(nox.Y[i] > mir.Y[i] && mir.Y[i] > mae.Y[i]) {
			t.Errorf("mode %d ordering violated: nox=%.0f mirage=%.0f maestro=%.0f", i, nox.Y[i], mir.Y[i], mae.Y[i])
		}
	}
	// Batch >> single for everyone; Maestro collapses hardest in single.
	for _, s := range []*Series{nox, mir, mae} {
		if s.Y[0] <= s.Y[1] {
			t.Errorf("%s: batch (%.0f) not above single (%.0f)", s.Name, s.Y[0], s.Y[1])
		}
	}
	if mae.Y[0]/mae.Y[1] < nox.Y[0]/nox.Y[1] {
		t.Error("Maestro's single-mode collapse not the worst")
	}
	// Mirage batch ~110 kreq/s (between NOX ~160 and Maestro ~60).
	if mir.Y[0] < 90 || mir.Y[0] > 140 {
		t.Errorf("mirage batch = %.0f kreq/s, want ~110", mir.Y[0])
	}
}

func TestFig12Shape(t *testing.T) {
	r := Fig12DynWeb()
	mir, lin := r.Get("mirage-dyn"), r.Get("linux-nginx-webpy")
	// Mirage linear up to ~80 sessions/s: reply rate at 70 ~= 700 req/s.
	at := func(s *Series, x float64) float64 {
		ys := pointsAt(*s, x)
		if len(ys) == 0 {
			t.Fatalf("missing x=%v", x)
		}
		return ys[0]
	}
	if y := at(mir, 70); y < 650 || y > 750 {
		t.Errorf("mirage at 70 sessions/s = %.0f replies/s, want ~700 (linear)", y)
	}
	// Mirage saturates somewhere around 80 sessions (800 req/s).
	if y := at(mir, 100); y > 950 {
		t.Errorf("mirage at 100 = %.0f replies/s; should be CPU-bound near 800", y)
	}
	// Linux saturates around 20 sessions (~200 replies/s).
	if y := at(lin, 20); y < 150 || y > 250 {
		t.Errorf("linux at 20 sessions = %.0f replies/s, want ~200", y)
	}
	if y := at(lin, 80); y > 300 {
		t.Errorf("linux at 80 sessions = %.0f replies/s; should be saturated ~200", y)
	}
	if at(mir, 80) < 3*at(lin, 80) {
		t.Error("mirage not clearly ahead at high load")
	}
}

func TestFig13Shape(t *testing.T) {
	r := Fig13StaticWeb()
	one := r.Get("linux-1x6vcpu").Y[0]
	two := r.Get("linux-2x3vcpu").Y[0]
	six := r.Get("linux-6x1vcpu").Y[0]
	mir := r.Get("mirage-6x1vcpu").Y[0]
	if !(one < two && two < six) {
		t.Errorf("scale-out ordering violated: 1x6=%.0f 2x3=%.0f 6x1=%.0f", one, two, six)
	}
	if !(mir > six) {
		t.Errorf("mirage (%.0f) does not exceed the best Apache placement (%.0f)", mir, six)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	r := Table2Sizes()
	std, dce := r.Get("standard"), r.Get("dead-code-eliminated")
	paperStd := []float64{449, 673, 393, 392}
	paperDce := []float64{184, 172, 164, 168}
	for i := range paperStd {
		if d := std.Y[i]/paperStd[i] - 1; d < -0.1 || d > 0.1 {
			t.Errorf("appliance %d standard = %.0f KB, paper %.0f", i, std.Y[i], paperStd[i])
		}
		if d := dce.Y[i]/paperDce[i] - 1; d < -0.1 || d > 0.1 {
			t.Errorf("appliance %d DCE = %.0f KB, paper %.0f", i, dce.Y[i], paperDce[i])
		}
	}
}

func TestFig14Ratios(t *testing.T) {
	r := Fig14LoC()
	mir, lin := r.Get("mirage"), r.Get("linux")
	for i := range mir.Y {
		ratio := lin.Y[i] / mir.Y[i]
		if ratio < 4 {
			t.Errorf("appliance %d: LoC ratio %.1f < 4", i, ratio)
		}
	}
}

func TestAblations(t *testing.T) {
	seal := AblationSeal(core.Config{})
	if seal.Get("boot-cost").Y[1] <= seal.Get("boot-cost").Y[0] {
		t.Error("sealing reported as free")
	}
	vchan := AblationVchan(core.Config{})
	ys := vchan.Get("notifications").Y
	if ys[0] >= ys[1]/10 {
		t.Errorf("check-before-block: %v notifications vs naive %v; want >10x reduction", ys[0], ys[1])
	}
	comp := AblationDNSCompression()
	if comp.Get("tree(size-first)").Y[0] != comp.Get("hashtable").Y[0] {
		t.Error("compression strategies disagree on output size")
	}
	ts := AblationToolstack(core.Config{})
	if ts.Get("parallel").Y[0] >= ts.Get("synchronous").Y[0] {
		t.Error("parallel toolstack not faster for batch creation")
	}
	if Table1Facilities() == "" {
		t.Error("empty Table 1")
	}
	zc := AblationZeroCopy(core.Config{}, 500)
	zy := zc.Get("echo-rate").Y
	if zy[0] <= zy[1] {
		t.Errorf("zero-copy echo rate %.0f not above copying path %.0f", zy[0], zy[1])
	}
}

// TestFig7bMirageIsMeasuredLateness: fig7b's Mirage column is the lateness
// an lwt scheduler delivers its sleepers with, measured here on sleepers
// that fall due a hundred at a time, so that a per-wake cost would show.
func TestFig7bMirageIsMeasuredLateness(t *testing.T) {
	const n = 20_000
	k := sim.NewKernel(1)
	s := lwt.NewScheduler(k)
	var worst time.Duration
	k.Spawn("main", func(p *sim.Proc) {
		ws := make([]lwt.Waiter, n)
		for i := range ws {
			d := time.Second + time.Duration(i/100)*time.Millisecond
			ws[i] = s.Sleep(d)
			lwt.Always(ws[i], func() { worst = max(worst, k.Now().Sub(sim.Time(d))) })
		}
		if err := s.Run(p, lwt.Join(s, ws...)); err != nil {
			t.Error(err)
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	_, stats := Fig7bJitter(core.Config{}, n)
	if m := stats[0]; m.Name != "mirage" || m.P50 != worst || m.P99 != worst || m.Max != worst {
		t.Errorf("mirage column %+v, want every percentile at the measured lateness %v", m, worst)
	}
}

func TestKVSweepShape(t *testing.T) {
	r := KVSweep(core.Config{}, KVSweepConfig{Seed: 42, Quick: true, ValueBytes: 128, ReadPct: 50, QDMax: 64})
	direct, buffered := r.Get("direct"), r.Get("buffered")
	if direct == nil || buffered == nil {
		t.Fatal("missing series")
	}
	n := len(direct.Y)
	// Queue depth buys throughput: group commit amortises the WAL barrier.
	if direct.Y[n-1] < 5*direct.Y[0] {
		t.Errorf("direct qd=%v (%.1f kops/s) not well above qd=%v (%.1f)",
			direct.X[n-1], direct.Y[n-1], direct.X[0], direct.Y[0])
	}
	// Direct rings beat the buffer cache at high queue depth: the cache's
	// serialized management CPU un-merges the flush.
	if direct.Y[n-1] < 1.1*buffered.Y[n-1] {
		t.Errorf("direct qd=%v (%.1f kops/s) not clearly above buffered (%.1f)",
			direct.X[n-1], direct.Y[n-1], buffered.Y[n-1])
	}
	for i, y := range direct.Y {
		if y <= 0 {
			t.Errorf("qd=%v: non-positive throughput %.3f", direct.X[i], y)
		}
	}
}

func TestLossSweepCompletes(t *testing.T) {
	// Small transfer, worst-case rate included: proves the stack degrades
	// gracefully under loss instead of deadlocking (the full sweep runs the
	// same code at more rates/bytes).
	r := LossSweep(core.Config{}, 256<<10, []float64{0, 0.05})
	g := r.Get("goodput")
	if g == nil || len(g.Y) != 2 {
		t.Fatal("missing goodput series")
	}
	if g.Y[0] <= g.Y[1] {
		t.Errorf("goodput at 0%% loss (%.1f) not above 5%% loss (%.1f)", g.Y[0], g.Y[1])
	}
	for i, y := range g.Y {
		if y <= 0 {
			t.Errorf("rate %v: non-positive goodput %.3f", g.X[i], y)
		}
	}
}

// TestFormatPrintsEveryPoint: a series that holds the same X more than once
// (a CDF whose samples are all equal) prints one row per point, so the
// table reaches the last Y; a series with fewer points at that X prints "-"
// in the extra rows.
func TestFormatPrintsEveryPoint(t *testing.T) {
	r := Result{ID: "t", Title: "repeated x", XLabel: "ms", YLabel: "fraction", Series: []Series{
		{Name: "flat", X: []float64{0, 0, 0}, Y: []float64{0.5, 0.9, 1}},
		{Name: "spread", X: []float64{0, 2}, Y: []float64{0.4, 1}},
	}}
	want := "== t: repeated x ==\n" +
		"              ms                   flat                 spread   [fraction]\n" +
		"               0                    0.5                    0.4\n" +
		"               0                    0.9                      -\n" +
		"               0                      1                      -\n" +
		"               2                      -                      1\n"
	if got := r.Format(); got != want {
		t.Errorf("Format:\n%s\nwant:\n%s", got, want)
	}
}
