package bench

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/lwt"
	"repro/internal/mem"
)

// DefaultThreadCounts are the Figure 7a x-axis values (paper: up to 20 M;
// scale down for quick runs with the counts argument).
var DefaultThreadCounts = []int{1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000}

// Fig7aThreads regenerates Figure 7a: time to construct n parallel
// sleeping threads under the four memory systems. Each column deploys one
// appliance whose main runs the paper's loop on its domain's lwt scheduler:
// n Sleeps of 0.5–1.5 s created in one synchronous pass, each promise
// charging its record to the column's heap. The time is what construction
// adds to the vCPU's busy time: n × PerThread plus the heap cost the pass
// accrued, dominated by the garbage collector; the extent-backed address
// space wins, the malloc-backed heaps pay chunk tracking, and the
// conventional OSs add (PV-inflated) syscalls on heap growth. A cooperative
// thread cannot run before the creating loop yields, so none ends during
// construction and the sleep durations do not enter the measurement: main
// stops the run once construction is booked, and the queued sleepers go
// with the platform, unpopped.
func Fig7aThreads(rc core.Config, counts []int) *Result {
	r := &Result{
		ID:     "fig7a",
		Title:  "Thread construction time",
		XLabel: "threads (millions)",
		YLabel: "seconds",
		Notes: []string{
			"ordering: linux-pv slowest, then linux-native, mirage-malloc, mirage-extent fastest",
		},
	}
	for _, cfg := range conventional.ThreadConfigs() {
		s := Series{Name: cfg.Name}
		for _, n := range counts {
			runtime.GC() // free the last run's queued sleepers before this run queues its own
			var busy time.Duration
			rn := newRun(rc, "fig7a", 7)
			rn.deploy("threads", func(env *core.Env) {
				sched, k := env.VM.S, env.VM.Dom.K
				sched.Heap = mem.NewHeap(cfg.Heap)
				start := sched.CPU.BusyTime() // start-of-day's share
				for i := 0; i < n; i++ {
					sched.Sleep(500*time.Millisecond + time.Duration(k.Rand().Int63n(int64(time.Second))))
				}
				sched.CPU.Reserve(time.Duration(n)*cfg.PerThread + sched.Heap.Drain())
				busy = sched.CPU.BusyTime() - start
				k.Stop()
			})
			rn.settle(time.Minute)
			s.X = append(s.X, float64(n)/1e6)
			s.Y = append(s.Y, busy.Seconds())
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
// parallel threads sleeping 1–4 s. One appliance's main records, on its
// domain's lwt scheduler, each thread's wake instant minus its due instant:
// the unikernel's column. Each conventional
// OS adds its syscall-return and scheduler-queueing delay to the same wakes.
// Returned series are CDFs: X = jitter in ms, Y = cumulative fraction.
func Fig7bJitter(rc core.Config, n int) (*Result, []JitterStats) {
	r := &Result{
		ID:     "fig7b",
		Title:  "Wakeup jitter CDF, threads sleeping 1-4s",
		XLabel: "jitter (ms)",
		YLabel: "cumulative fraction",
		Notes:  []string{"paper: Mirage gives lower and more predictable latency"},
	}
	rn := newRun(rc, "fig7b", 7)
	k := rn.pl.K
	late := make([]time.Duration, n)
	rn.deploy("threads", func(env *core.Env) {
		sched := env.VM.S
		ws := make([]lwt.Waiter, n)
		for i := range ws {
			d := time.Second + time.Duration(k.Rand().Int63n(int64(3*time.Second)))
			due := k.Now().Add(d)
			ws[i] = sched.Sleep(d)
			lwt.Always(ws[i], func() { late[i] = k.Now().Sub(due) })
		}
		if err := sched.Run(env.P, lwt.Join(sched, ws...)); err != nil {
			panic(err)
		}
	})
	rn.settle(time.Minute)
	var stats []JitterStats
	lnative, lpv := conventional.LinuxNative(), conventional.LinuxPV()
	for _, prof := range []*conventional.OSParams{nil, &lnative, &lpv} {
		name, jitters := "mirage", append([]time.Duration(nil), late...)
		if prof != nil {
			name = prof.Name
			for i := range jitters {
				jitters[i] += conventional.JitterSample(*prof, k.Rand())
			}
		}
		sort.Slice(jitters, func(i, j int) bool { return jitters[i] < jitters[j] })
		stats = append(stats, JitterStats{
			Name: name,
			P50:  jitters[n/2],
			P90:  jitters[n*9/10],
			P99:  jitters[n*99/100],
			Max:  jitters[n-1],
		})
		// CDF sampled at fixed fractions.
		s := Series{Name: name}
		for _, frac := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0} {
			idx := max(int(frac*float64(n))-1, 0)
			s.X = append(s.X, float64(jitters[idx])/1e6)
			s.Y = append(s.Y, frac)
		}
		r.Series = append(r.Series, s)
	}
	return r, stats
}
