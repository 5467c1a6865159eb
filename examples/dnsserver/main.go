// DNS appliance example (§4.2): an authoritative DNS server unikernel with
// its zone file compiled into the image, serving a queryperf-style client
// over the full network path — once with response memoization and once
// without, showing the ~2x throughput difference of the paper's 20-line
// patch.
//
//	go run ./examples/dnsserver
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/dns"
	"repro/internal/ipv4"
	"repro/internal/loadgen"
	"repro/internal/netstack"
)

var mask = ipv4.AddrFrom4(255, 255, 255, 0)

const zoneText = `
$ORIGIN example.org.
$TTL 600
@      IN NS ns0
ns0    IN A  10.0.0.53
www    IN A  10.0.0.80
mail   IN A  10.0.0.25
alias  IN CNAME www
`

func run(memoize bool) {
	pl := core.NewPlatform(53)
	serverIP := ipv4.AddrFrom4(10, 0, 0, 53)

	var served *dns.Server
	pl.Deploy(core.Unikernel{
		Build:  build.DNSAppliance([]byte(zoneText)),
		Memory: 64 << 20,
		Main: func(env *core.Env) int {
			zone, err := dns.ParseZone(zoneText) // compiled-in data
			if err != nil {
				env.Console("zone parse failed: " + err.Error())
				return 1
			}
			srv := dns.NewServer(zone, memoize)
			served = srv
			env.Net.UDP.Bind(53, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				resp, cost := srv.Handle(append([]byte(nil), data.Bytes()...))
				data.Release()
				env.VM.Dom.VCPU.Reserve(cost) // server work on the vCPU
				if resp != nil {
					env.Net.SendUDP(src, srcPort, 53, resp)
				}
			})
			env.Console(fmt.Sprintf("dns appliance up (memoize=%v, image %d KB)", memoize, env.Image.SizeKB))
			env.VM.Dom.SignalReady()
			return env.VM.Main(env.P, env.VM.S.Sleep(2*time.Minute))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(53), IP: serverIP, Netmask: mask}})

	const queries = 2000
	names := []string{"www.example.org", "mail.example.org", "alias.example.org", "ns0.example.org"}
	var t loadgen.Tally
	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: "queryperf", Roots: []string{"dns"}},
		Memory: 32 << 20,
		Main: func(env *core.Env) int {
			return loadgen.Closed(env, 1, queries, loadgen.Query(serverIP, func(i int) string { return names[i%len(names)] }), &t)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: ipv4.AddrFrom4(10, 0, 0, 2), Netmask: mask}})

	if _, err := pl.RunFor(3 * time.Minute); err != nil {
		log.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		log.Fatal(err)
	}
	perQuery := t.Elapsed / queries
	fmt.Printf("memoize=%-5v  %d queries in %v of virtual time (%.1f µs/query round-trip)",
		memoize, queries, t.Elapsed.Round(time.Millisecond), float64(perQuery)/1e3)
	if served.Memo != nil {
		fmt.Printf("  [memo hits=%d misses=%d]", served.Memo.Hits, served.Memo.Misses)
	}
	fmt.Println()
}

func main() {
	fmt.Println("DNS appliance (zone compiled into the image), serial query round-trips:")
	run(false)
	run(true)
	fmt.Println("\n(the paper's Figure 10 sweep: go run ./cmd/repro -experiment fig10)")
}
