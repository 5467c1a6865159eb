// Quickstart: build a unikernel appliance, boot it sealed on a simulated
// Xen host, and exchange UDP datagrams with it through the full device
// path (grant tables, shared rings, netback bridge, clean-slate stack).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/obs"
)

var mask = ipv4.AddrFrom4(255, 255, 255, 0)

func main() {
	pl := core.NewPlatform(2026)

	// The echo appliance: configuration is compiled in; only the modules
	// it references are linked (no TCP, no storage).
	echo := pl.Deploy(core.Unikernel{
		Build: build.Config{
			Name:   "udp-echo",
			Roots:  []string{"udp", "icmp"},
			Static: map[string]string{"ip": "10.0.0.1"},
		},
		Memory: 32 << 20,
		Main: func(env *core.Env) int {
			env.Console(fmt.Sprintf("echo appliance up: image %d KB, sealed=%v, modules=%v",
				env.Image.SizeKB, env.VM.Dom.PT.Sealed(), env.Image.Modules))
			env.Net.UDP.Bind(7, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				env.Net.SendUDP(src, srcPort, 7, append([]byte("echo: "), data.Bytes()...))
				data.Release()
			})
			env.VM.Dom.SignalReady()
			return env.VM.Main(env.P, env.VM.S.Sleep(10*time.Second))
		},
	}, core.DeployOpts{
		Net: &netstack.Config{MAC: core.MAC(1), IP: ipv4.AddrFrom4(10, 0, 0, 1), Netmask: mask},
	})

	// A client unikernel on the same bridge.
	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: "client", Roots: []string{"udp"}},
		Memory: 32 << 20,
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second) // let the echo appliance boot
			done := lwt.NewPromise[struct{}](env.VM.S)
			n := 0
			env.Net.UDP.Bind(5000, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				fmt.Printf("[%8.3fs] client <- %q\n", env.VM.S.K.Now().Seconds(), data.Bytes())
				data.Release()
				n++
				if n == 3 {
					done.Resolve(struct{}{})
					return
				}
				env.Net.SendUDP(ipv4.AddrFrom4(10, 0, 0, 1), 7, 5000, []byte(fmt.Sprintf("hello #%d", n+1)))
			})
			env.Net.SendUDP(ipv4.AddrFrom4(10, 0, 0, 1), 7, 5000, []byte("hello #1"))
			return env.VM.Main(env.P, done)
		},
	}, core.DeployOpts{
		Net: &netstack.Config{MAC: core.MAC(2), IP: ipv4.AddrFrom4(10, 0, 0, 2), Netmask: mask},
	})

	if _, err := pl.RunFor(30 * time.Second); err != nil {
		log.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		log.Fatal(err)
	}

	d := echo.Domain
	fmt.Println("\nappliance console:")
	for _, l := range d.ConsoleLines() {
		fmt.Println(" ", l)
	}
	fmt.Printf("\nboot-to-ready: %v (domain build + guest start-of-day, synchronous toolstack)\n", d.BootTime())
	ops := pl.K.Metrics().Snapshot()
	op := func(name string) int64 { return ops.Sum("grant_ops_total", obs.L("dom", d.Name), obs.L("op", name)) }
	fmt.Printf("grant ops: %d grants, %d maps, %d copies; page pool: %d pages allocated, %d in use\n",
		op("grant"), op("map"), op("copy"), d.Pool.Allocated, d.Pool.InUse)
}
