package main

import (
	"sort"
	"strings"
)

// layers.go turns what one traced repetition recorded into the per-layer
// metrics of source C (counts: the obs registry delta and the layers' own
// exported counters, per op) and S (harness spans). M comes from micro.go, P
// from profile.go; run.go puts the four together.

// counts is the change of the flattened counters over the timed run.
type counts struct {
	d     map[string]float64 // after − before
	after map[string]float64
}

// containsAll reports whether id contains every one of the label fragments.
func containsAll(id string, has []string) bool {
	for _, h := range has {
		if !strings.Contains(id, h) {
			return false
		}
	}
	return true
}

// sum adds every counter whose id is name or name{labels}, keeping only ids
// that contain all of has.
func (c counts) sum(name string, has ...string) float64 {
	total := 0.0
	for id, v := range c.d {
		if (id == name || strings.HasPrefix(id, name+"{")) && containsAll(id, has) {
			total += v
		}
	}
	return total
}

// histMean is the mean of the histograms name{...has...} over the run.
func (c counts) histMean(name string, has ...string) float64 {
	var sum, n float64
	for id, v := range c.d {
		if strings.HasPrefix(id, name) && strings.HasSuffix(id, "#sum") && containsAll(id, has) {
			sum += v
			n += c.d[strings.TrimSuffix(id, "#sum")+"#count"]
		}
	}
	return ratio(sum, n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countAndSpanLayers computes every C and S metric a single repetition can
// give. Metrics of layers the workload does not run come out 0.
func countAndSpanLayers(r *detail) map[string]float64 {
	c := counts{d: map[string]float64{}, after: r.after}
	for id, v := range r.after {
		c.d[id] = v - r.before[id]
	}
	ops := float64(r.ops)
	perOp := func(v float64) float64 { return v / ops }
	perKop := func(v float64) float64 { return v * 1000 / ops }
	cpuUS := func(name string) float64 { return c.d["cpu_busy_ns{cpu="+name+"}"] / 1e3 }
	out := map[string]float64{}

	out["sim.proc_wakes_per_op"] = perOp(c.sum("sim_proc_wakes_total"))
	out["sim.wheel_timers_per_op"] = perOp(c.sum("sim_wheel_scheduled_total"))
	epochs := c.sum("sim_cluster_epochs_total")
	out["sim.epochs_per_kop"] = perKop(epochs)
	out["sim.barriers_elided_ratio"] = ratio(c.sum("sim_cluster_barriers_elided_total"), epochs*c.after["sim_cluster_shards"])
	out["sim.late_deliveries_per_kop"] = perKop(c.sum("sim_cluster_late_deliveries_total"))

	out["ring.batch_mean"] = c.histMean("ring_batch_size")
	out["grant.ops_per_op"] = perOp(c.sum("grant_ops_total"))
	out["grant.copy_bytes_per_op"] = perOp(c.sum("grant_copy_bytes_total"))

	out["hypervisor.notifies_per_op"] = perOp(c.sum("hv_evtchn_notifies_total"))
	out["hypervisor.vcpu_busy_virt_us_per_op"] = perOp(c.d["guest_vcpu_busy_ns"] / 1e3)
	out["hypervisor.runq_wait_virt_us_per_op"] = perOp(c.d["guest_runq_wait_ns"] / 1e3)
	var bootWall, bootVirt float64
	for _, b := range r.boots {
		bootWall += b.wallUS
		bootVirt += float64(b.virtNS) / 1e6
	}
	out["hypervisor.boot_wall_us"] = ratio(bootWall, float64(len(r.boots)))
	out["hypervisor.boot_virt_ms"] = ratio(bootVirt, float64(len(r.boots)))

	out["netif.tx_ring_full_per_kop"] = perKop(c.sum("net_tx_ring_full_total"))
	out["netback.notifications_per_op"] = perOp(c.sum("bridge_notifications_total"))
	out["netback.virt_busy_us_per_op"] = perOp(cpuUS("dom0-netback") + cpuUS("bridge-link"))

	out["tcp.segments_per_op"] = perOp(c.sum("tcp_segments_total", "dir=out"))
	out["tcp.retransmits_per_kop"] = perKop(c.sum("tcp_retransmits_total"))
	out["tcp.connect_virt_us_p50"] = float64(percentile(r.m.spansOf(spanConnect), 0.5)) / 1e3
	out["tcp.write_virt_us_p50"] = float64(percentile(r.m.spansOf(spanWrite), 0.5)) / 1e3

	requests := c.d["blkif_reads"] + c.d["blkif_writes"]
	out["blkif.merged_ratio"] = ratio(c.d["blkif_merged"], requests)
	out["blkif.indirect_ratio"] = ratio(c.d["blkif_indirect"], requests-c.d["blkif_merged"])
	out["blkif.ring_occupancy_mean"] = c.histMean("ring_occupancy", "ring=blk")
	out["blkback.virt_busy_us_per_op"] = perOp(cpuUS("ssd-bus"))

	out["storage.wal_flushes_per_kop"] = perKop(c.d["wal_flushes"])
	out["storage.wal_grouped_max"] = c.after["wal_grouped_max"]
	out["storage.checkpoints"] = c.d["kv_checkpoints"]
	out["storage.set_virt_us_p50"] = float64(percentile(r.m.spansOf(spanKVSet), 0.5)) / 1e3
	out["storage.get_virt_us_p50"] = float64(percentile(r.m.spansOf(spanKVGet), 0.5)) / 1e3

	out["httpd.request_virt_us_p99"] = r.reqP99US
	out["fleet.steered_conns_per_op"] = perOp(c.sum("lb_steered_conns_total"))
	var busiest, total, replicas float64
	for id, v := range c.d {
		if strings.HasPrefix(id, "replica_requests{") {
			replicas++
			total += v
			if v > busiest {
				busiest = v
			}
		}
	}
	out["fleet.replica_imbalance"] = ratio(busiest*replicas, total)

	out["goruntime.gc_cpu_frac"] = ratio(r.gcCPU, r.gcCPU+r.userCPU)
	out["goruntime.gc_cycles_per_kop"] = perKop(r.gcCycles)
	out["goruntime.goroutines_peak"] = float64(r.goroutines)

	late := append([]int64(nil), r.m.late...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	out["loadgen.late_virt_us_p99"] = float64(percentile(late, 0.99)) / 1e3
	return out
}
