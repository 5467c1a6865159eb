package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// micro.go drives the per-layer microbenchmarks of sut.go (metric source M):
// each is run in batches of at least 1000 calls until at least minTime has
// been measured, and the median batch is reported per call.

func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timed measures fn: wall time and heap objects allocated.
func timed(fn func()) (time.Duration, uint64) {
	a0 := allocObjects()
	t0 := time.Now()
	fn()
	return time.Since(t0), allocObjects() - a0
}

// perCall repeats batch(calls) until minTime of measured time has passed and
// returns the median nanoseconds and allocations per call.
func perCall(calls int, minTime time.Duration, batch func(n int) (time.Duration, uint64)) (ns, allocs float64) {
	var nss, as []float64
	var spent time.Duration
	for len(nss) == 0 || spent < minTime {
		d, a := batch(calls)
		spent += d
		nss = append(nss, float64(d.Nanoseconds())/float64(calls))
		as = append(as, float64(a)/float64(calls))
	}
	sort.Float64s(nss)
	sort.Float64s(as)
	return nss[len(nss)/2], as[len(as)/2]
}

// runMicro runs every microbenchmark and returns the M metrics by name.
func runMicro(calls int, minTime time.Duration) map[string]float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := map[string]float64{}
	run := func(nsName, allocName string, batch func(n int) (time.Duration, uint64)) {
		runtime.GC()
		ns, allocs := perCall(calls, minTime, batch)
		out[nsName] = ns
		if allocName != "" {
			out[allocName] = allocs
		}
	}
	run("sim.event_ns", "sim.event_allocs", microSimEvent)
	run("sim.proc_switch_ns", "", microProcSwitch)
	run("sim.wheel_timer_ns", "", microWheelTimer)
	run("lwt.bind_resolve_ns", "lwt.bind_resolve_allocs", microLwtBind)
	run("lwt.sleep_ns", "", microLwtSleep)
	run("ring.roundtrip_ns", "", microRing)
	run("grant.with_copy_ns", "", microGrant)
	run("bufpool.get_release_ns", "", microBufpool)
	run("cstruct.view_ns", "", microCstruct)
	run("netif.frame_ns", "netif.frame_allocs", microNetifFrame)
	run("tcp.segment_ns", "tcp.segment_allocs", microTCPSegment)
	run("tcp.conn_cycle_ns", "", microTCPConnCycle)
	run("blkif.req_ns", "", microBlkif)
	run("storage.wal_append_ns", "", microWALAppend)
	run("storage.btree_set_ns", "", func(n int) (time.Duration, uint64) { set, _ := microBTree(n); return set, 0 })
	run("storage.btree_get_ns", "", func(n int) (time.Duration, uint64) { _, get := microBTree(n); return get, 0 })
	run("dns.handle_hit_ns", "dns.handle_allocs", func(n int) (time.Duration, uint64) { return microDNS(n, true) })
	run("dns.handle_miss_ns", "", func(n int) (time.Duration, uint64) { return microDNS(n, false) })
	run("httpd.parse_ns", "", microHTTPParse)
	run("obs.counter_inc_ns", "", microObsCounter)
	return out
}
