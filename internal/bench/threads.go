package bench

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/conventional"
	"repro/internal/mem"
)

// DefaultThreadCounts are the Figure 7a x-axis values (paper: up to 20 M;
// scale down for quick runs with the counts argument).
var DefaultThreadCounts = []int{1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000}

// threadRecordBytes matches the lwt thread footprint.
const threadRecordBytes = 96

// Fig7aThreads regenerates Figure 7a: time to construct n parallel
// sleeping threads under the four memory systems. Thread records are
// heap-allocated, so the cost is dominated by the garbage collector; the
// specialised extent-backed address space wins, the malloc-backed heaps
// pay chunk tracking, and the conventional OSs add (PV-inflated) syscalls
// on heap growth.
func Fig7aThreads(counts []int) *Result {
	r := &Result{
		ID:     "fig7a",
		Title:  "Thread construction time",
		XLabel: "threads (millions)",
		YLabel: "seconds",
		Notes: []string{
			"ordering: linux-pv slowest, then linux-native, mirage-malloc, mirage-extent fastest",
		},
	}
	// Threads sleep 0.5-1.5s and terminate, so the live set is bounded:
	// at the observed creation rates roughly this many threads coexist.
	const liveWindow = 5_000_000
	for _, cfg := range conventional.ThreadConfigs() {
		s := Series{Name: cfg.Name}
		for _, n := range counts {
			h := mem.NewHeap(cfg.Heap)
			for i := 0; i < n; i++ {
				h.Alloc(threadRecordBytes)
				if i >= liveWindow {
					h.Release(threadRecordBytes) // an earlier thread terminates
				}
			}
			total := h.Cost + time.Duration(n)*cfg.PerThread
			s.X = append(s.X, float64(n)/1e6)
			s.Y = append(s.Y, total.Seconds())
		}
		r.Series = append(r.Series, s)
	}
	return r
}

// JitterStats summarise a wakeup-latency distribution.
type JitterStats struct {
	Name          string
	P50, P90, P99 time.Duration
	Max           time.Duration
}

// Fig7bJitter regenerates Figure 7b: the CDF of timer-wakeup jitter for n
// parallel threads sleeping 1–4 s. The unikernel's jitter is only dispatch
// queueing (threads due at the same instant serialise on the vCPU); the
// conventional OSs add syscall-return and scheduler queueing delays.
// Returned series are CDFs: X = jitter in ms, Y = cumulative fraction.
func Fig7bJitter(n int) (*Result, []JitterStats) {
	const wakeCost = 300 * time.Nanosecond // a dispatch, on every target
	type target struct {
		name string
		os   *conventional.OSParams
	}
	lnative := conventional.LinuxNative()
	lpv := conventional.LinuxPV()
	targets := []target{
		{name: "mirage"},
		{name: "linux-native", os: &lnative},
		{name: "linux-pv", os: &lpv},
	}
	r := &Result{
		ID:     "fig7b",
		Title:  "Wakeup jitter CDF, threads sleeping 1-4s",
		XLabel: "jitter (ms)",
		YLabel: "cumulative fraction",
		Notes:  []string{"paper: Mirage gives lower and more predictable latency"},
	}
	var stats []JitterStats
	for ti, tg := range targets {
		rng := rand.New(rand.NewSource(int64(1000 + ti)))
		// Due times for n sleepers, uniform in [1s, 4s).
		due := make([]int64, n)
		for i := range due {
			due[i] = int64(time.Second) + rng.Int63n(int64(3*time.Second))
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
		// Dispatch queue: wakes serialise on the vCPU at wakeCost each.
		jitters := make([]time.Duration, n)
		cpuFree := int64(0)
		for i, d := range due {
			start := d
			if cpuFree > start {
				start = cpuFree
			}
			cpuFree = start + int64(wakeCost)
			j := time.Duration(start - d)
			if tg.os != nil {
				j += conventional.JitterSample(*tg.os, rng)
			}
			jitters[i] = j
		}
		sort.Slice(jitters, func(i, j int) bool { return jitters[i] < jitters[j] })
		st := JitterStats{
			Name: tg.name,
			P50:  jitters[n/2],
			P90:  jitters[n*9/10],
			P99:  jitters[n*99/100],
			Max:  jitters[n-1],
		}
		stats = append(stats, st)
		// CDF sampled at fixed fractions.
		s := Series{Name: tg.name}
		for _, frac := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0} {
			idx := int(frac*float64(n)) - 1
			if idx < 0 {
				idx = 0
			}
			s.X = append(s.X, float64(jitters[idx])/1e6)
			s.Y = append(s.Y, frac)
		}
		r.Series = append(r.Series, s)
	}
	return r, stats
}
