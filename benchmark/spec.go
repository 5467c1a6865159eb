package main

import (
	"runtime"
	"time"
)

// spec.go declares the benchmark: the workloads with their frozen sizes, the
// end-to-end metrics with their bounds, and the per-layer metrics with their
// source and the end-to-end metric each is expected to move. BENCHMARK.json
// repeats the names; smoke_test.go fails when the two disagree.

// A workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	loop string // "closed" or "open", with its rate or client count
	op   string // the unit both throughput metrics count

	// gen makes the seeded input at 1/div of full size and returns it with
	// the number of ops it holds; build deploys it on a fresh platform.
	gen   func(seed int64, div int) (input any, ops int)
	build func(input any, traced bool) *world

	sloNS  int64 // virtual latency limit per op
	shards int   // 0: single kernel at GOMAXPROCS 1; n: n-shard cluster on OS threads

	// latOf selects which ops' latencies feed the percentiles (nil: all).
	// See kvLatencySample.
	latOf func(input any, op int) bool
}

// procs is the GOMAXPROCS the harness sets while the workload runs. The
// simulator is logically single-threaded (one Proc goroutine runs at a
// time), so serial workloads run at 1: at the default the cross-thread
// goroutine hand-off measures the host scheduler, not the program.
func (w *workload) procs() int {
	if w.shards == 0 {
		return 1
	}
	n := runtime.NumCPU()
	if n > w.shards {
		n = w.shards
	}
	return n
}

// repNominalSeconds is what one repetition is sized to take on the reference
// box; -seconds is turned into a repetition count with it, so the work done
// never depends on how fast the host is.
const repNominalSeconds = 2.5

// Frozen repetition sizes (ops per repetition at full size).
const (
	bulkFlows      = 4
	bulkBlockBytes = 256 << 10
	bulkBlocks     = 256 // per flow: 4 × 64 MiB

	dnsZoneEntries = 10000
	dnsQueries     = 100000

	httpClients  = 4
	httpSessions = 20000
	httpRate     = 800.0 // sessions per virtual second, ×3 requests = 60 % of modelled capacity

	kvKeys       = 4096
	kvOps        = 100000
	kvValueBytes = 128
	kvReadPct    = 50
)

func div(n, d int) int {
	if n/d < 1 {
		return 1
	}
	return n / d
}

// kvLatencySample: the durable KV serves every Get from memory (the overlay,
// or the B-tree's own node cache, which holds every node it ever wrote), so a
// Get completes in 0 virtual ns and half the ops would pin the median to 0.
// The latency percentiles of kv_mixed are therefore taken over the Sets — the
// ops that wait for the device. Gets still count in throughput, failures and
// the latency limit, and storage.get_virt_us_p50 reports them on their own.
func kvLatencySample(input any, op int) bool { return !input.(*kvInput).ops[op].read }

var workloads = []*workload{
	{
		name: "tcp_bulk",
		why:  "Per-byte cost: tcp segmentation and ACK clocking, bufpool/cstruct, ring batching and grant copy do the work; dns, httpd, storage, blkif do none.",
		loop: "closed, 4 flows",
		op:   "one 256 KiB Conn.Write delivered and checksum-verified at the sink",
		gen: func(seed int64, d int) (any, int) {
			in := genBulk(seed, bulkFlows, div(bulkBlocks, d), bulkBlockBytes)
			return in, in.flows * in.blocksPerFlow
		},
		build: func(in any, traced bool) *world { return buildBulk(in.(*bulkInput), traced) },
		sloNS: int64(20 * time.Millisecond),
	},
	{
		name: "dns_udp",
		why:  "Smallest packets, so per-packet cost dominates: netif/netback, event-channel notifies, sim Proc hand-off, lwt wake. Bypasses tcp entirely.",
		loop: "closed, window 16",
		op:   "one query answered with the correct A record",
		gen: func(seed int64, d int) (any, int) {
			in := genDNS(seed, dnsZoneEntries, div(dnsQueries, d))
			return in, len(in.queries)
		},
		build: func(in any, traced bool) *world { return buildDNS(in.(*dnsInput), traced) },
		sloNS: int64(time.Millisecond),
	},
	{
		name: "http_fleet",
		why:  "Short connections: tcp handshake/teardown, timing-wheel arm/cancel, fleet LB steering, httpd parse, many domains for the scheduler. Setup-bound where tcp_bulk is byte-bound.",
		loop: "open, 800 sessions/s × 3 requests",
		op:   "one HTTP request answered 200 with the expected body",
		gen: func(seed int64, d int) (any, int) {
			in := genHTTP(seed, httpClients, div(httpSessions, d), httpRate)
			return in, in.ops()
		},
		build: func(in any, traced bool) *world { return buildHTTP(in.(*httpInput), traced) },
		sloNS: int64(10 * time.Millisecond),
	},
	{
		name: "http_fleet_par",
		why:  "http_fleet's input byte for byte on the 4-shard sim.Cluster driven by OS threads: same layers, sim used differently (epochs, mailboxes). The only workload where a parallel gain can be claimed.",
		loop: "open, 800 sessions/s × 3 requests",
		op:   "one HTTP request answered 200 with the expected body",
		gen: func(seed int64, d int) (any, int) {
			in := genHTTP(seed, httpClients, div(httpSessions, d), httpRate)
			return in, in.ops()
		},
		build:  func(in any, traced bool) *world { return buildHTTP(in.(*httpInput), traced) },
		sloNS:  int64(10 * time.Millisecond),
		shards: 4,
	},
	{
		name: "kv_mixed",
		why:  "Storage only, no network layer runs: WAL group commit and CoW B-tree checkpoints over blkif, blkback and the SSD model; reads and writes take different paths.",
		loop: "closed, queue depth 32",
		op:   "one Get or Set completed with the right value",
		gen: func(seed int64, d int) (any, int) {
			in := genKV(seed, div(kvKeys, d), div(kvOps, d), kvValueBytes, kvReadPct)
			return in, len(in.ops)
		},
		build: func(in any, traced bool) *world { return buildKV(in.(*kvInput), traced) },
		sloNS: int64(2 * time.Millisecond),
		latOf: kvLatencySample,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// An e2eMetric is one number a user of the system would see. bound is the
// share of the parent's median by which it may worsen before a change counts
// as a regression. One bound serves all five workloads, so each is set by the
// noisiest of them on the reference box: at least three times the widest
// quartile spread seen over ten seeds. For the host clock that is the box
// itself (the same work took 19.3 to 22.9 µs of CPU per op on dns_udp within
// ten minutes); for the virtual clock it is http_fleet_par, whose results vary
// from run to run, and the seeded arrival schedule. On the serial workloads
// the virtual metrics repeat exactly for one seed, and -compare reports whether
// they are bit-identical, which is the test a simulator-only change must pass.
type e2eMetric struct {
	name, unit, better string
	bound              float64
	virtual            bool // measured on the virtual clock: repeats exactly for one seed on serial workloads
	meaning            string
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, false, "one repetition's set-up on the host clock: input generation, zone/key build, platform boot, KV prepopulate; median over every repetition of the run"},
	{"wall_ops_per_s", "1/s", "higher", 0.25, false, "ops ÷ wall time of the timed Platform.RunFor; median of R"},
	{"cpu_us_per_op", "us", "lower", 0.25, false, "getrusage user+sys delta ÷ ops; median of R"},
	{"allocs_per_op", "count", "lower", 0.03, false, "/gc/heap/allocs:objects delta ÷ ops; median of R"},
	{"alloc_bytes_per_op", "B", "lower", 0.05, false, "/gc/heap/allocs:bytes delta ÷ ops; median of R"},
	{"host_mem_mb", "MiB", "lower", 0.25, false, "max over repetitions of /memory/classes/total − heap/released, read at each repetition's end"},
	{"virt_ops_per_s", "1/s", "higher", 0.02, true, "the paper-facing rate: ops ÷ (first op due → last op done) on the virtual clock"},
	{"virt_lat_p50_us", "virt_us", "lower", 0.03, true, "per-op virtual latency, median"},
	{"virt_lat_p99_us", "virt_us", "lower", 0.20, true, "per-op virtual latency, p99 (≥ 1000 samples per repetition, so ≥ 10 lie beyond it)"},
	{"virt_slo_ok_ratio", "ratio", "higher", 0.001, true, "1 − (ops failed or over the workload's virtual latency limit ÷ ops attempted)"},
	{"ok_ratio", "ratio", "higher", 0.001, true, "1 − (ops failed, refused, reset or wrong ÷ ops attempted)"},
}

// A layerMetric is one number about a single layer. source says how it is
// taken: M an isolated microbenchmark of the layer's exported functions, C a
// count from the obs registry (or the layer's own exported counters) over
// the traced repetition, S a harness span around a call into the layer, P
// the layer's share of the CPU profile of the traced repetitions.
type layerMetric struct {
	name, unit, better string
	source             string
	moves              string // the end-to-end metric and workload it should move; after "not", where it should not
}

var layerMetrics = []layerMetric{
	{"sim.event_ns", "ns", "lower", "M", "wall_ops_per_s, cpu_us_per_op on dns_udp, http_fleet; not virt_* anywhere"},
	{"sim.event_allocs", "count", "lower", "M", "allocs_per_op on every workload"},
	{"sim.proc_switch_ns", "ns", "lower", "M", "wall_ops_per_s on dns_udp, http_fleet"},
	{"sim.wheel_timer_ns", "ns", "lower", "M", "wall_ops_per_s on http_fleet"},
	{"sim.proc_wakes_per_op", "count", "lower", "C", "wall_ops_per_s on dns_udp, http_fleet"},
	{"sim.wheel_timers_per_op", "count", "lower", "C", "wall_ops_per_s on http_fleet"},
	{"sim.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on dns_udp, http_fleet"},
	{"sim.epochs_per_kop", "count", "lower", "C", "wall_ops_per_s on http_fleet_par; not http_fleet"},
	{"sim.barriers_elided_ratio", "ratio", "higher", "C", "wall_ops_per_s on http_fleet_par"},
	{"sim.late_deliveries_per_kop", "count", "lower", "C", "virt_lat_p99_us on http_fleet_par"},
	{"sim.par_speedup", "ratio", "higher", "C", "wall_ops_per_s of http_fleet_par ÷ http_fleet, same invocation"},
	{"sim.nondet_reps", "count", "lower", "C", "repetitions of http_fleet_par whose virtual digest differs from the first"},

	{"lwt.bind_resolve_ns", "ns", "lower", "M", "cpu_us_per_op on every workload; largest on kv_mixed, http_fleet"},
	{"lwt.bind_resolve_allocs", "count", "lower", "M", "allocs_per_op on every workload"},
	{"lwt.sleep_ns", "ns", "lower", "M", "cpu_us_per_op on http_fleet"},
	{"lwt.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on every workload"},

	{"ring.roundtrip_ns", "ns", "lower", "M", "wall_ops_per_s on dns_udp"},
	{"ring.batch_mean", "count", "higher", "C", "virt_ops_per_s on tcp_bulk"},
	{"ring.cpu_share", "ratio", "lower", "P", "wall_ops_per_s on dns_udp"},

	{"grant.with_copy_ns", "ns", "lower", "M", "cpu_us_per_op on tcp_bulk; not kv_mixed"},
	{"grant.ops_per_op", "count", "lower", "C", "cpu_us_per_op on tcp_bulk"},
	{"grant.copy_bytes_per_op", "B", "lower", "C", "cpu_us_per_op on tcp_bulk; not kv_mixed (maps, not copies)"},

	{"hypervisor.notifies_per_op", "count", "lower", "C", "virt_lat_p50_us, wall_ops_per_s on dns_udp"},
	{"hypervisor.vcpu_busy_virt_us_per_op", "virt_us", "lower", "C", "virt_ops_per_s on dns_udp, http_fleet"},
	{"hypervisor.runq_wait_virt_us_per_op", "virt_us", "lower", "C", "virt_lat_p99_us on http_fleet"},
	{"hypervisor.boot_wall_us", "us", "lower", "S", "setup_s on http_fleet"},
	{"hypervisor.boot_virt_ms", "virt_ms", "lower", "S", "setup_s on http_fleet"},
	{"hypervisor.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on dns_udp"},

	{"bufpool.get_release_ns", "ns", "lower", "M", "cpu_us_per_op on tcp_bulk; not kv_mixed"},
	{"cstruct.view_ns", "ns", "lower", "M", "allocs_per_op, alloc_bytes_per_op on tcp_bulk; not kv_mixed"},
	{"bufpool.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on tcp_bulk (bufpool and cstruct frames)"},

	{"netif.frame_ns", "ns", "lower", "M", "wall_ops_per_s on dns_udp, tcp_bulk; not kv_mixed"},
	{"netif.frame_allocs", "count", "lower", "M", "allocs_per_op on dns_udp, tcp_bulk"},
	{"netif.tx_ring_full_per_kop", "count", "lower", "C", "virt_ops_per_s on tcp_bulk"},
	{"netback.notifications_per_op", "count", "lower", "C", "wall_ops_per_s on dns_udp, tcp_bulk"},
	{"netback.virt_busy_us_per_op", "virt_us", "lower", "C", "virt_ops_per_s on tcp_bulk"},
	{"netif.cpu_share", "ratio", "lower", "P", "wall_ops_per_s on dns_udp, tcp_bulk"},
	{"netback.cpu_share", "ratio", "lower", "P", "wall_ops_per_s on dns_udp, tcp_bulk"},

	{"netstack.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on dns_udp (netstack, ethernet, arp, ipv4, udp, icmp frames)"},

	{"tcp.segment_ns", "ns", "lower", "M", "wall_ops_per_s on tcp_bulk; not dns_udp, not kv_mixed"},
	{"tcp.segment_allocs", "count", "lower", "M", "allocs_per_op on tcp_bulk"},
	{"tcp.conn_cycle_ns", "ns", "lower", "M", "wall_ops_per_s on http_fleet"},
	{"tcp.segments_per_op", "count", "lower", "C", "wall_ops_per_s on tcp_bulk, http_fleet"},
	{"tcp.retransmits_per_kop", "count", "lower", "C", "virt_lat_p99_us on http_fleet, tcp_bulk"},
	{"tcp.connect_virt_us_p50", "virt_us", "lower", "S", "virt_lat_p50_us on http_fleet"},
	{"tcp.write_virt_us_p50", "virt_us", "lower", "S", "virt_lat_p50_us on tcp_bulk"},
	{"tcp.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on tcp_bulk, http_fleet; not dns_udp, not kv_mixed"},

	{"blkif.req_ns", "ns", "lower", "M", "wall_ops_per_s on kv_mixed; not any network workload"},
	{"blkif.merged_ratio", "ratio", "higher", "C", "virt_ops_per_s on kv_mixed"},
	{"blkif.indirect_ratio", "ratio", "higher", "C", "virt_ops_per_s on kv_mixed"},
	{"blkif.ring_occupancy_mean", "count", "higher", "C", "virt_ops_per_s on kv_mixed"},
	{"blkback.virt_busy_us_per_op", "virt_us", "lower", "C", "virt_ops_per_s on kv_mixed"},
	{"blkif.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on kv_mixed"},
	{"blkback.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on kv_mixed"},

	{"storage.wal_append_ns", "ns", "lower", "M", "wall_ops_per_s on kv_mixed"},
	{"storage.btree_set_ns", "ns", "lower", "M", "wall_ops_per_s on kv_mixed"},
	{"storage.btree_get_ns", "ns", "lower", "M", "wall_ops_per_s on kv_mixed"},
	{"storage.wal_flushes_per_kop", "count", "lower", "C", "virt_ops_per_s, virt_lat_p99_us on kv_mixed"},
	{"storage.wal_grouped_max", "count", "higher", "C", "virt_ops_per_s on kv_mixed"},
	{"storage.checkpoints", "count", "lower", "C", "virt_lat_p99_us on kv_mixed"},
	{"storage.set_virt_us_p50", "virt_us", "lower", "S", "virt_lat_p50_us on kv_mixed"},
	{"storage.get_virt_us_p50", "virt_us", "lower", "S", "virt_ops_per_s on kv_mixed (0 today: every Get is served from memory)"},
	{"storage.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on kv_mixed"},

	{"dns.handle_hit_ns", "ns", "lower", "M", "cpu_us_per_op on dns_udp only"},
	{"dns.handle_miss_ns", "ns", "lower", "M", "setup_s on dns_udp (memo warm-up)"},
	{"dns.handle_allocs", "count", "lower", "M", "allocs_per_op on dns_udp"},
	{"dns.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on dns_udp only"},

	{"httpd.parse_ns", "ns", "lower", "M", "cpu_us_per_op on http_fleet"},
	{"httpd.request_virt_us_p99", "virt_us", "lower", "C", "virt_lat_p99_us on http_fleet"},
	{"httpd.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on http_fleet"},

	{"fleet.steered_conns_per_op", "count", "lower", "C", "virt_lat_p50_us on http_fleet"},
	{"fleet.replica_imbalance", "ratio", "lower", "C", "virt_lat_p99_us on http_fleet"},
	{"fleet.cpu_share", "ratio", "lower", "P", "cpu_us_per_op on http_fleet"},

	{"obs.counter_inc_ns", "ns", "lower", "M", "cpu_us_per_op everywhere (every layer increments counters)"},
	{"obs.cpu_share", "ratio", "lower", "P", "cpu_us_per_op everywhere"},
	{"obs.trace_overhead_frac", "ratio", "lower", "C", "untraced ÷ traced wall_ops_per_s − 1: what the harness spans and the profiler cost"},

	{"goruntime.gc_cpu_frac", "ratio", "lower", "C", "cpu_us_per_op on tcp_bulk (follows allocs_per_op)"},
	{"goruntime.gc_cycles_per_kop", "count", "lower", "C", "cpu_us_per_op on tcp_bulk"},
	{"goruntime.sched_cpu_share", "ratio", "lower", "P", "wall_ops_per_s on dns_udp (Proc hand-off)"},
	{"goruntime.malloc_cpu_share", "ratio", "lower", "P", "cpu_us_per_op on tcp_bulk"},
	{"goruntime.goroutines_peak", "count", "lower", "C", "host_mem_mb on http_fleet"},

	{"loadgen.late_virt_us_p99", "virt_us", "lower", "S", "how late the open-loop generator issued against its schedule; harness health"},
	{"loadgen.cpu_share", "ratio", "lower", "P", "harness cost: above 0.15 the workload is measuring the harness"},
}
