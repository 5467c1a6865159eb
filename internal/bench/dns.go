package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/build"
	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/dns"
	"repro/internal/ipv4"
	"repro/internal/loadgen"
	"repro/internal/netstack"
)

// DefaultZoneSizes are the Figure 10 x-axis zone sizes (entries).
var DefaultZoneSizes = []int{100, 300, 1000, 3000, 10000}

// Fig10DNS regenerates Figure 10: authoritative DNS throughput against
// zone size for BIND9, NSD, NSD-in-MiniOS (-O and -O3), and Mirage with
// and without response memoization. The Mirage lines run the real server
// (wire parse, zone lookup, compression, encode) under a queryperf-style
// random query stream; the baselines combine the same real zone lookups
// with their measured cost profiles.
func Fig10DNS(rc core.Config, zoneSizes []int, queriesPerPoint int) *Result {
	r := &Result{
		ID:     "fig10",
		Title:  "DNS server throughput vs zone size",
		XLabel: "zone size (entries)",
		YLabel: "kqueries/s",
		Notes: []string{
			"paper: BIND ~55 kq/s, NSD ~70 kq/s, Mirage no-memo ~40 kq/s, Mirage memo 75-80 kq/s, NSD-MiniOS far lower",
			"the memoization patch was ~20 lines and roughly doubled throughput (§4.2)",
		},
	}

	profiles := []conventional.DNSProfile{
		conventional.Bind9Profile(),
		conventional.NSDProfile(),
		conventional.NSDMiniOSProfile(false),
		conventional.NSDMiniOSProfile(true),
	}
	for _, pr := range profiles {
		s := Series{Name: pr.Name}
		for _, n := range zoneSizes {
			qps := 1.0 / pr.CostPerQuery(n).Seconds()
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, qps/1e3)
		}
		r.Series = append(r.Series, s)
	}

	for _, memo := range []bool{false, true} {
		name := "mirage-no-memo"
		if memo {
			name = "mirage-memo"
		}
		s := Series{Name: name}
		for i, n := range zoneSizes {
			qps, appendix := mirageDNSThroughput(rc, n, memo, queriesPerPoint)
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, qps/1e3)
			if i == len(zoneSizes)-1 {
				r.Metrics = append(r.Metrics, fmt.Sprintf("[%s, zone %d]", name, n))
				r.Metrics = append(r.Metrics, appendix...)
			}
		}
		r.Series = append(r.Series, s)
	}
	return r
}

// fig10MaxQueries caps the platform-measured query count per point: the
// server is in steady state well before this, and every further round trip
// only costs (real) simulation time.
const fig10MaxQueries = 2500

// mirageDNSThroughput runs the real Mirage DNS server as a unikernel on the
// platform — zone compiled in, UDP 53 over the full netfront/netback path —
// against a queryperf-style client guest that keeps a pipeline of queries
// outstanding, and returns steady-state queries/s of virtual time plus a
// metrics appendix. The server is CPU-bound on its vCPU: each query charges
// the measured handle cost (parse + lookup + compression/encode, or memo
// hit), so throughput tracks the reciprocal of that cost.
func mirageDNSThroughput(rc core.Config, zoneEntries int, memo bool, queries int) (float64, []string) {
	if queries > fig10MaxQueries {
		queries = fig10MaxQueries
	}
	zone := dns.SyntheticZone("bench.local", zoneEntries)
	srv := dns.NewServer(zone, memo)
	if memo {
		// Steady state: queryperf sustains load long enough that every
		// name is memoized; warm the cache outside the measurement.
		for i := 0; i < zoneEntries; i++ {
			srv.Handle(dns.EncodeQuery(uint16(i), fmt.Sprintf("host-%d.bench.local", i), dns.TypeA))
		}
	}

	rn := newRun(rc, "fig10", int64(zoneEntries))
	pl := rn.pl
	serverIP := ipv4.AddrFrom4(10, 0, 0, 53)

	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: "dns", Roots: []string{"dns"}},
		Memory: 64 << 20,
		Main: func(env *core.Env) int {
			// The DNS handle cost below is the calibrated whole-server
			// per-query CPU cost; zero the generic per-packet charges so
			// it is not double-counted.
			env.Net.Params = netstack.Params{}
			env.Net.UDP.Bind(53, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				resp, cost := srv.Handle(append([]byte(nil), data.Bytes()...))
				data.Release()
				env.VM.Dom.VCPU.Reserve(cost) // server work on the vCPU
				if resp != nil {
					env.Net.SendUDP(src, srcPort, 53, resp)
				}
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(10*time.Minute))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(53), IP: serverIP, Netmask: benchMask}})

	const window = 16 // queries kept in flight (queryperf default order)
	rng := rand.New(rand.NewSource(int64(zoneEntries)))
	var t loadgen.Tally
	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: "queryperf", Roots: []string{"dns"}},
		Memory: 32 << 20,
		Main: func(env *core.Env) int {
			return loadgen.Closed(env, window, queries, loadgen.Query(serverIP, func(int) string {
				return fmt.Sprintf("host-%d.bench.local", rng.Intn(zoneEntries))
			}), &t)
		},
	}, core.DeployOpts{
		Net: &netstack.Config{MAC: core.MAC(2), IP: ipv4.AddrFrom4(10, 0, 0, 2), Netmask: benchMask},
		// queryperf ran on a separate load-generation host (§4.2); give the
		// client its own pCPU so its packet work does not steal server time.
		PCPU: 1,
	})

	appendix := rn.finish(5*time.Minute, "cpu_", "net_", "ring_occupancy", "bridge_")
	if len(t.Lats) != queries {
		panic(fmt.Sprintf("fig10: %d/%d queries answered", len(t.Lats), queries))
	}
	return float64(queries) / t.Elapsed.Seconds(), appendix
}

// AblationDNSCompression compares the naive hashtable label compressor
// against the size-first functional map on a hostile workload where many
// names share lengths (the §4.2 hash-collision DoS concern) and reports
// ordering comparisons saved. Both strategies must produce identical wire
// output; the ~20% speedup in the paper came from the cheap length-first
// comparison.
func AblationDNSCompression() *Result {
	m := CompressionWorkload()
	tree := dns.NewTreeCompressor()
	enc1, err1 := dns.EncodeMessage(m, tree)
	hash := dns.NewHashCompressor()
	enc2, err2 := dns.EncodeMessage(m, hash)
	if err1 != nil || err2 != nil {
		panic(fmt.Sprintf("ablation-dns-compression: encode: %v, %v", err1, err2))
	}
	identical := string(enc1) == string(enc2)

	return &Result{
		ID:     "ablation-dns-compression",
		Title:  "Label compression: functional map vs hashtable",
		XLabel: "strategy",
		YLabel: "message bytes",
		Series: []Series{
			{Name: "tree(size-first)", X: []float64{0}, Y: []float64{float64(len(enc1))}},
			{Name: "hashtable", X: []float64{1}, Y: []float64{float64(len(enc2))}},
		},
		Notes: []string{
			fmt.Sprintf("identical output: %v; tree comparisons: %d (most decided by length alone)", identical, tree.Comparisons),
			"the functional map also removes the hash-collision denial of service (§4.2)",
		},
	}
}

// CompressionWorkload builds the message the label-compression ablation
// encodes, and dns's BenchmarkDNSLabelCompression times: 20 answers sharing
// suffixes, as a zone transfer would.
func CompressionWorkload() dns.Message {
	m := dns.Message{ID: 1, Flags: dns.FlagResponse}
	for i := 0; i < 20; i++ {
		m.Answers = append(m.Answers, dns.RR{
			Name: fmt.Sprintf("host-%04d.sub.bench.local", i),
			Type: dns.TypeA, Class: dns.ClassIN, TTL: 60, Data: "10.0.0.1",
		})
	}
	return m
}
