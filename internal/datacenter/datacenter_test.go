package datacenter

import (
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ipv4"
	"repro/internal/sim"
)

// newRack builds a platform with the named extra hosts and a default
// fabric over all of them (h0 plus the extras).
func newRack(seed int64, hosts ...string) (*core.Platform, *DC) {
	pl := core.NewPlatform(seed)
	for _, h := range hosts {
		pl.AddHost(h)
	}
	return pl, New(pl)
}

// newFleet spreads min..max web replicas across the given hosts. The
// connection threshold is set sky-high so the control loop only ever
// maintains Min — the tests drive migration and failure, not autoscaling.
func newFleet(pl *core.Platform, min, max int, hosts []string) *fleet.Fleet {
	return fleet.New(pl, fleet.Spec{
		Name:          "web",
		Build:         build.WebAppliance(),
		Memory:        64 << 20,
		Main:          fleet.WebMain(time.Millisecond, []byte("ok"), 250*time.Millisecond),
		VIP:           ipv4.AddrFrom4(10, 0, 0, 100),
		BaseIP:        ipv4.AddrFrom4(10, 0, 0, 10),
		Netmask:       ipv4.AddrFrom4(255, 255, 255, 0),
		LBIP:          ipv4.AddrFrom4(10, 0, 0, 99),
		MACBase:       0x40,
		Min:           min,
		Max:           max,
		Policy:        fleet.LeastConns,
		Hosts:         hosts,
		ScaleUpConns:  1 << 20,
		Interval:      250 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
	})
}

func TestMigrateBlackoutBound(t *testing.T) {
	pl, dc := newRack(7, "h1", "h2")
	f := newFleet(pl, 2, 2, []string{"h1", "h2"})

	var blackout time.Duration
	var err error
	done := false
	pl.K.After(time.Second, func() {
		pl.K.Spawn("migrator", func(p *sim.Proc) {
			blackout, err = dc.Migrate(p, f, f.ReplicaByName("web-0"), "h2")
			done = true
		})
	})
	if _, rerr := pl.RunFor(3 * time.Second); rerr != nil {
		t.Fatal(rerr)
	}
	if !done {
		t.Fatal("migration never completed")
	}
	if err != nil {
		t.Fatal(err)
	}
	// The point of the model: a sealed megabyte-scale appliance relocates
	// in single-digit virtual milliseconds.
	if blackout <= 0 || blackout > 5*time.Millisecond {
		t.Fatalf("blackout %v outside (0, 5ms]", blackout)
	}
	if n := dc.mxMigrates.Value(); n != 1 {
		t.Fatalf("dc_migrations_total = %d, want 1", n)
	}

	r := f.ReplicaByName("web-0")
	if r.Host() != "h2" {
		t.Fatalf("web-0 on %q after migration, want h2", r.Host())
	}
	if r.State != fleet.Healthy {
		t.Fatalf("web-0 state %v after migration, want healthy", r.State)
	}
	// Identity carried over: same stable handle, and the fabric learned
	// the MAC's new home.
	if r.ID() != fleet.BackendID(0) {
		t.Fatalf("web-0 handle %v after migration, want 0", r.ID())
	}
	if got, ok := dc.where[r.MAC]; !ok || got != pl.SiteByName("h2").Index {
		t.Fatalf("fabric learned host %d (%v) for web-0, want %d", got, ok, pl.SiteByName("h2").Index)
	}
}

func TestMigrateValidation(t *testing.T) {
	pl, dc := newRack(11, "h1", "h2")
	f := newFleet(pl, 2, 2, []string{"h1", "h2"})
	if _, err := pl.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}

	if _, err := dc.Migrate(nil, f, f.ReplicaByName("web-0"), "nowhere"); err == nil {
		t.Error("migrating to an unknown host should fail")
	}
	if _, err := dc.Migrate(nil, f, f.ReplicaByName("web-0"), "h1"); err == nil {
		t.Error("migrating to the replica's own host should fail")
	}
	if err := dc.KillHost("h2"); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Migrate(nil, f, f.ReplicaByName("web-0"), "h2"); err == nil {
		t.Error("migrating to a dead host should fail")
	}
}

func TestKillHostHeals(t *testing.T) {
	pl, dc := newRack(9, "h1", "h2")
	f := newFleet(pl, 2, 3, []string{"h1", "h2"}) // web-0 on h1, web-1 on h2

	pl.K.After(time.Second, func() {
		if err := dc.KillHost("h1"); err != nil {
			t.Error(err)
		}
	})
	if _, err := pl.RunFor(4 * time.Second); err != nil {
		t.Fatal(err)
	}

	if pl.SiteByName("h1").Alive() {
		t.Fatal("h1 still alive after KillHost")
	}
	if f.ReplicaByName("web-0").State != fleet.Dead {
		t.Fatalf("web-0 state %v after its host died, want dead", f.ReplicaByName("web-0").State)
	}
	// The fleet healed back to Min on the surviving failure domain.
	if f.Live() < 2 {
		t.Fatalf("fleet did not heal: %d live replicas", f.Live())
	}
	for _, r := range f.Replicas() {
		if (r.State == fleet.Healthy || r.State == fleet.Booting) && r.Host() != "h2" {
			t.Fatalf("live replica %s on %q, want h2 (the survivor)", r.Name, r.Host())
		}
	}
	if n := dc.mxKills.Value(); n != 1 {
		t.Fatalf("dc_host_kills_total = %d, want 1", n)
	}
	// Killing an already-dead host is a no-op, not a double count.
	if err := dc.KillHost("h1"); err != nil {
		t.Fatal(err)
	}
	if n := dc.mxKills.Value(); n != 1 {
		t.Fatalf("dc_host_kills_total after repeat kill = %d, want 1", n)
	}
	if err := dc.KillHost("nowhere"); err == nil {
		t.Error("killing an unknown host should fail")
	}
}

// TestFabricLearning drives probe traffic across hosts and checks the
// fabric's learning table converges: once a replica on a remote host has
// replied to the balancer, its MAC routes point-to-point (Where knows it)
// rather than flooding.
func TestFabricLearning(t *testing.T) {
	pl, dc := newRack(13, "h1", "h2")
	f := newFleet(pl, 2, 2, []string{"h1", "h2"})
	if _, err := pl.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"web-0", "web-1"} {
		r := f.ReplicaByName(name)
		want := r.Dep.Site.Index
		if got, ok := dc.where[r.MAC]; !ok || got != want {
			t.Errorf("fabric learned host %d (%v) for %s, want %d", got, ok, name, want)
		}
	}
	if dc.mxUnknown.Value() == 0 {
		t.Error("expected some unknown-unicast floods before learning converged")
	}
	if dc.mxForward.Value() == 0 {
		t.Error("expected learned point-to-point forwards after convergence")
	}
}
