// Elastic fleet example (§1, §7): web-server unikernels are "summoned" by
// incoming load instead of provisioned ahead of it. A dom0 orchestrator
// boots replicas behind a virtual L4 balancer on a shared VIP; a burst of
// keep-alive HTTP sessions drives the fleet up, and the quiet period after
// it drains the extra replicas away. The lifecycle trace is printed at the
// end — same seed, same trace, byte for byte.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ipv4"
	"repro/internal/loadgen"
	"repro/internal/netstack"
)

var (
	mask   = ipv4.AddrFrom4(255, 255, 255, 0)
	vip    = ipv4.AddrFrom4(10, 0, 0, 100)
	baseIP = ipv4.AddrFrom4(10, 0, 0, 10)
	lbIP   = ipv4.AddrFrom4(10, 0, 0, 9)
)

func main() {
	pl := core.NewPlatform(7)
	f := fleet.New(pl, fleet.Spec{
		Name:          "web",
		Build:         build.WebAppliance(),
		Memory:        64 << 20,
		Main:          fleet.WebMain(5*time.Millisecond, []byte("<html>hello from the fleet</html>"), 500*time.Millisecond),
		VIP:           vip,
		BaseIP:        baseIP,
		Netmask:       mask,
		LBIP:          lbIP,
		MACBase:       0x10,
		Min:           1,
		Max:           3,
		Policy:        fleet.LeastConns,
		ScaleUpConns:  2,
		Interval:      200 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
	})

	// The burst: twelve keep-alive sessions of 200 requests each, arriving
	// 250ms apart from T+3s — late arrivals land on freshly summoned
	// replicas.
	var t loadgen.Tally
	plan := make([]loadgen.Launch, 12)
	for i := range plan {
		plan[i] = loadgen.Launch{At: 3*time.Second + time.Duration(i)*250*time.Millisecond, T: &t}
	}
	burst := &loadgen.Sessions{Addr: vip, Reqs: loadgen.GETs(200)}
	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: "client", Roots: []string{"http"}},
		Memory: 32 << 20,
		Main:   func(env *core.Env) int { return burst.Plan(env, plan) },
	}, core.DeployOpts{
		Net:  &netstack.Config{MAC: core.MAC(2), IP: ipv4.AddrFrom4(10, 0, 0, 2), Netmask: mask},
		PCPU: -1,
	})

	if _, err := pl.RunFor(45 * time.Second); err != nil {
		log.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sessions: %d ok, %d failed; peak replicas %d, live now %d\n",
		t.SessOK, t.SessFail, f.MaxReplicas, f.Live())
	fmt.Printf("boot-to-first-byte ms by replica: %v\n", f.BootToFirstByteMS())
	fmt.Println("fleet lifecycle:")
	for _, e := range f.Events {
		fmt.Println(" ", e)
	}
	fmt.Println("(the stepped-load sweep: go run ./cmd/repro -experiment scalesweep)")
}
