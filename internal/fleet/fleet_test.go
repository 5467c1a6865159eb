package fleet

import (
	"strings"
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/ipv4"
	"repro/internal/loadgen"
	"repro/internal/netback"
	"repro/internal/netstack"
)

var (
	tMask   = ipv4.AddrFrom4(255, 255, 255, 0)
	tVIP    = ipv4.AddrFrom4(10, 0, 0, 100)
	tBaseIP = ipv4.AddrFrom4(10, 0, 0, 10)
	tLBIP   = ipv4.AddrFrom4(10, 0, 0, 9)
)

func testSpec(min, max int, policy Policy) Spec {
	return Spec{
		Name:          "web",
		Build:         build.WebAppliance(),
		Main:          WebMain(5*time.Millisecond, []byte("hello"), 500*time.Millisecond),
		VIP:           tVIP,
		BaseIP:        tBaseIP,
		Netmask:       tMask,
		LBIP:          tLBIP,
		MACBase:       0x10,
		Min:           min,
		Max:           max,
		Policy:        policy,
		ScaleUpConns:  2,
		Interval:      200 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
	}
}

// deployClient deploys a guest that opens n keep-alive sessions of reqs
// GETs against the VIP, the first at first and the rest gap apart, and
// returns their tally.
func deployClient(pl *core.Platform, n, reqs int, first, gap time.Duration) *loadgen.Tally {
	t := &loadgen.Tally{}
	plan := make([]loadgen.Launch, n)
	for i := range plan {
		plan[i] = loadgen.Launch{At: first + time.Duration(i)*gap, T: t}
	}
	ss := &loadgen.Sessions{Addr: tVIP, Reqs: loadgen.GETs(reqs)}
	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: "client-2", Roots: []string{"http"}},
		Memory: 32 << 20,
		Main:   func(env *core.Env) int { return ss.Plan(env, plan) },
	}, core.DeployOpts{
		Net:  &netstack.Config{MAC: core.MAC(2), IP: ipv4.AddrFrom4(10, 0, 0, 2), Netmask: tMask},
		PCPU: -1,
	})
	return t
}

// runScaleScenario boots a fleet, throws a burst of concurrent sessions at
// it, lets the load die away, and returns the fleet for inspection.
func runScaleScenario(t *testing.T, seed int64) *Fleet {
	t.Helper()
	pl := core.NewPlatform(seed)
	f := New(pl, testSpec(1, 4, RoundRobin))
	res := deployClient(pl, 8, 120, 3*time.Second, 20*time.Millisecond)
	if _, err := pl.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		t.Fatal(err)
	}
	if res.SessFail > 0 {
		t.Fatalf("%d sessions failed", res.SessFail)
	}
	if res.SessOK != 8 {
		t.Fatalf("sessions ok = %d, want 8", res.SessOK)
	}
	return f
}

// TestFleetScaleUpDownDeterministic: load summons replicas, quiet retires
// them, and the whole lifecycle trace is byte-identical across same-seed
// runs.
func TestFleetScaleUpDownDeterministic(t *testing.T) {
	f1 := runScaleScenario(t, 42)
	if f1.MaxReplicas < 2 {
		t.Fatalf("MaxReplicas = %d, want scale-up past 1\nevents:\n%s",
			f1.MaxReplicas, strings.Join(f1.Events, "\n"))
	}
	if live := f1.Live(); live != 1 {
		t.Fatalf("Live = %d after quiet period, want scale-down to 1\nevents:\n%s",
			live, strings.Join(f1.Events, "\n"))
	}
	found := false
	for _, e := range f1.Events {
		if strings.Contains(e, "retire") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no retire event:\n%s", strings.Join(f1.Events, "\n"))
	}

	f2 := runScaleScenario(t, 42)
	if strings.Join(f1.Events, "\n") != strings.Join(f2.Events, "\n") {
		t.Fatalf("same-seed event traces differ:\n--- run1\n%s\n--- run2\n%s",
			strings.Join(f1.Events, "\n"), strings.Join(f2.Events, "\n"))
	}
}

// TestFleetDrainNoReset: draining a replica mid-session must not reset the
// connection — the session completes on the draining replica, which then
// retires.
func TestFleetDrainNoReset(t *testing.T) {
	pl := core.NewPlatform(7)
	spec := testSpec(2, 2, RoundRobin)
	spec.Main = WebMain(2*time.Millisecond, []byte("hello"), 2*time.Second)
	f := New(pl, spec)

	res := deployClient(pl, 1, 400, 3*time.Second, 0)

	var victim int = -1
	pl.K.After(3500*time.Millisecond, func() {
		for _, r := range f.Replicas() {
			if r.State == Healthy && f.LB.BackendActive(r.ID()) > 0 {
				victim = r.Index
				f.drain(r, "manual")
				return
			}
		}
	})

	if _, err := pl.RunFor(45 * time.Second); err != nil {
		t.Fatal(err)
	}
	if res.SessFail > 0 || res.SessOK != 1 {
		t.Fatalf("session ok=%d fail=%d\nevents:\n%s",
			res.SessOK, res.SessFail, strings.Join(f.Events, "\n"))
	}
	if victim < 0 {
		t.Fatal("drain never triggered — session not active at T+3.5s")
	}
	if st := f.Replicas()[victim].State; st != Retired {
		t.Fatalf("victim state = %v, want Retired\nevents:\n%s", st, strings.Join(f.Events, "\n"))
	}
}

// TestFleetCrashReplaceUnderLoss: with 1% frame loss, a hung replica (dead
// bridge port, probes unanswered) and a cleanly crashing replica are both
// detected and replaced, keeping the fleet at Min.
func TestFleetCrashReplaceUnderLoss(t *testing.T) {
	pl := core.NewPlatform(11)
	pl.Bridge.SetFaults(netback.Faults{Drop: 0.01})
	spec := testSpec(2, 3, LeastConns)
	f := New(pl, spec)

	// T+4s: replica 0 hangs — its bridge port goes dark but the domain
	// stays "running" (the probe-timeout path).
	pl.K.After(4*time.Second, func() {
		pl.Bridge.DetachMAC(f.Replicas()[0].MAC)
	})
	// T+8s: replica 1 crashes outright (the lifecycle-hook path).
	pl.K.After(8*time.Second, func() {
		if d := f.Replicas()[1].Dep.Domain; d != nil && !d.Dead {
			d.Shutdown(1, hypervisor.ShutdownCrash)
		}
	})

	if _, err := pl.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	ev := strings.Join(f.Events, "\n")
	if !strings.Contains(ev, "dead web-0 (probe-timeout)") {
		t.Fatalf("hung replica not declared dead by probes:\n%s", ev)
	}
	if !strings.Contains(ev, "dead web-1") {
		t.Fatalf("crashed replica not declared dead:\n%s", ev)
	}
	if live := f.Live(); live != 2 {
		t.Fatalf("Live = %d, want crashed replicas replaced back to Min=2\n%s", live, ev)
	}
	for _, r := range f.Replicas()[2:] {
		if r.State == Healthy {
			return
		}
	}
	t.Fatalf("no replacement replica became healthy:\n%s", ev)
}

// TestLBPolicies exercises pick() directly: round-robin rotation and
// least-conns with ties breaking to the lowest index.
func TestLBPolicies(t *testing.T) {
	pl := core.NewPlatform(1)
	lb := NewLB(pl.K, pl.Bridge, core.MAC(0xf0), tLBIP, tVIP, RoundRobin)
	for i := 0; i < 3; i++ {
		lb.AddBackend(BackendID(i), core.MAC(byte(0xf1+i)))
		lb.SetUp(BackendID(i))
	}
	var got []BackendID
	for i := 0; i < 6; i++ {
		got = append(got, lb.pick().id)
	}
	want := []BackendID{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin order = %v, want %v", got, want)
		}
	}

	lb.policy = LeastConns
	lb.backends[0].active = 2
	lb.backends[1].active = 1
	lb.backends[2].active = 1
	if be := lb.pick(); be.id != 1 {
		t.Fatalf("least-conns pick = %d, want 1 (lowest index among ties)", be.id)
	}
	lb.SetDraining(1)
	if be := lb.pick(); be.id != 2 {
		t.Fatalf("least-conns pick = %d, want 2 (1 is draining)", be.id)
	}
	lb.RemoveBackend(2)
	if be := lb.pick(); be.id != 0 {
		t.Fatalf("pick = %d, want 0 (only healthy left)", be.id)
	}
}

// TestLBHashConsistencyAndRemap: the rendezvous hash sends every segment of
// a flow to the same backend, spreads flows roughly evenly, and removing a
// backend remaps only the flows that were pinned to it.
func TestLBHashConsistencyAndRemap(t *testing.T) {
	pl := core.NewPlatform(1)
	lb := NewLB(pl.K, pl.Bridge, core.MAC(0xf0), tLBIP, tVIP, Hash)
	const nBackends = 4
	for i := 0; i < nBackends; i++ {
		lb.AddBackend(BackendID(i), core.MAC(byte(0xf1+i)))
		lb.SetUp(BackendID(i))
	}

	const nFlows = 4096
	assign := make(map[int]BackendID, nFlows) // flow -> backend id
	counts := make([]int, nBackends)
	for i := 0; i < nFlows; i++ {
		src := ipv4.AddrFrom4(10, 0, byte(i>>8), byte(i))
		port := uint16(40000 + i%128)
		be := lb.pickHash(src, port)
		if be == nil {
			t.Fatal("pickHash returned nil with healthy backends")
		}
		if again := lb.pickHash(src, port); again != be {
			t.Fatalf("flow %d not sticky: %d then %d", i, be.id, again.id)
		}
		assign[i] = be.id
		counts[be.id]++
	}
	for idx, n := range counts {
		if n < nFlows/nBackends/2 || n > nFlows/nBackends*2 {
			t.Errorf("backend %d owns %d/%d flows; distribution badly skewed: %v",
				idx, n, nFlows, counts)
		}
	}

	// Dropping one backend must leave every surviving assignment untouched.
	lb.RemoveBackend(2)
	remapped := 0
	for i := 0; i < nFlows; i++ {
		src := ipv4.AddrFrom4(10, 0, byte(i>>8), byte(i))
		port := uint16(40000 + i%128)
		be := lb.pickHash(src, port)
		if assign[i] == 2 {
			remapped++
			if be.id == 2 {
				t.Fatal("flow still maps to removed backend")
			}
		} else if be.id != assign[i] {
			t.Fatalf("flow %d moved %d -> %d though its backend survived", i, assign[i], be.id)
		}
	}
	if remapped != counts[2] {
		t.Errorf("remapped %d flows, want exactly the removed backend's %d", remapped, counts[2])
	}
}

// TestFleetHashPolicyEndToEnd: a fixed-size fleet behind the stateless hash
// policy serves every session while the balancer's connection table stays
// empty — steering is pure computation, no per-flow state.
func TestFleetHashPolicyEndToEnd(t *testing.T) {
	pl := core.NewPlatform(7)
	spec := testSpec(2, 2, Hash)
	f := New(pl, spec)
	res := deployClient(pl, 6, 20, 2*time.Second, 10*time.Millisecond)
	if _, err := pl.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		t.Fatal(err)
	}
	if res.SessFail > 0 || res.SessOK != 6 {
		t.Fatalf("sessions ok=%d fail=%d, want 6 ok", res.SessOK, res.SessFail)
	}
	if len(f.LB.conns) != 0 {
		t.Errorf("hash policy kept %d steering entries, want 0 (stateless)", len(f.LB.conns))
	}
	if pl.K.Metrics().Counter("lb_steered_conns_total").Value() == 0 {
		t.Error("no connections steered; traffic never hit the balancer")
	}
}

// TestReplicaHandlesStable: replicas are addressed by stable handles —
// name and BackendID — not by position, and drain drains exactly
// the replica the caller named.
func TestReplicaHandlesStable(t *testing.T) {
	pl := core.NewPlatform(21)
	f := New(pl, testSpec(3, 3, RoundRobin))

	pl.K.After(2*time.Second, func() {
		if f.ReplicaByName("no-such") != nil {
			t.Error("ReplicaByName on an unknown name should return nil")
		}
		r := f.ReplicaByName("web-1")
		if r == nil {
			t.Fatal("web-1 not found")
		}
		if r.Index != 1 || r.ID() != BackendID(1) {
			t.Errorf("web-1 index=%d id=%v, want 1/1", r.Index, r.ID())
		}
		f.drain(r, "manual")
	})
	if _, err := pl.RunFor(6 * time.Second); err != nil {
		t.Fatal(err)
	}

	if st := f.ReplicaByName("web-1").State; st != Retired {
		t.Errorf("web-1 state %v after a drain with no load, want retired", st)
	}
	for _, name := range []string{"web-0", "web-2"} {
		if st := f.ReplicaByName(name).State; st != Healthy {
			t.Errorf("%s state %v, want healthy (only web-1 was drained)", name, st)
		}
	}
	// Min=3 means the control loop replaced the drained replica; the
	// newcomer got a fresh handle rather than reusing web-1's.
	if r := f.ReplicaByName("web-3"); r == nil || r.ID() != BackendID(3) {
		t.Error("replacement web-3 with handle 3 not summoned after drain")
	}
}
