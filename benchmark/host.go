package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSample is the host side of one instant: what the simulator has cost so
// far in wall time, process CPU, allocation and collection.
type hostSample struct {
	wall       time.Time
	cpu        time.Duration // getrusage user+sys, every thread of the process
	allocs     uint64        // /gc/heap/allocs:objects
	allocBytes uint64        // /gc/heap/allocs:bytes
	gcCycles   uint64
	gcCPU      float64 // /cpu/classes/gc/total:cpu-seconds
	userCPU    float64 // /cpu/classes/user:cpu-seconds
}

var hostMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
}

func readMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(hostMetricNames))
	for i, n := range hostMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func readHost() hostSample {
	s := readMetrics()
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		userCPU:    s[4].Value.Float64(),
	}
}

// hostMemMB is the memory the process holds from the OS right now, in MiB.
func hostMemMB() float64 {
	s := readMetrics()
	return float64(s[5].Value.Uint64()-s[6].Value.Uint64()) / (1 << 20)
}
