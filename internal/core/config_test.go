package core

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/ethernet"
	"repro/internal/netback"
	"repro/internal/obs"
)

type sinkEndpoint struct {
	mac ethernet.MAC
	got int
}

func (e *sinkEndpoint) MAC() ethernet.MAC { return e.mac }
func (e *sinkEndpoint) Deliver(f *bufpool.Buf) {
	f.Release()
	e.got++
}

// TestConfigReachesEveryHost: the impairment and the registry a platform is
// built with apply to its first host and to every host racked afterwards,
// and to no platform built from another value.
func TestConfigReachesEveryHost(t *testing.T) {
	reg := obs.NewRegistry()
	impaired := Config{Faults: netback.Faults{Drop: 1}, Metrics: reg}.NewPlatform(1)
	impaired.AddHost("h1")
	clean := NewPlatform(1)
	clean.AddHost("h1")

	send := func(pl *Platform) (delivered, dropped int) {
		for _, s := range pl.Sites() {
			dst := &sinkEndpoint{mac: ethernet.MAC{2}}
			s.Bridge.Attach(dst, s.Bridge.K)
			frame := make([]byte, 64)
			copy(frame, dst.mac[:])
			s.Bridge.TransmitBytes(ethernet.MAC{1}, frame)
			if _, err := pl.RunFor(1e6); err != nil {
				t.Fatal(err)
			}
			delivered += dst.got
		}
		return delivered, int(pl.K.Metrics().Counter("bridge_faults_total", obs.L("kind", "drop")).Value())
	}
	if got, dropped := send(impaired); got != 0 || dropped != 2 {
		t.Errorf("Drop=1 platform: %d frames delivered, %d dropped over 2 hosts; want 0 and 2", got, dropped)
	}
	if got, dropped := send(clean); got != 2 || dropped != 0 {
		t.Errorf("zero-configuration platform: %d frames delivered, %d dropped over 2 hosts; want 2 and 0", got, dropped)
	}
	if n := reg.Counter("bridge_faults_total", obs.L("kind", "drop")).Value(); n != 2 {
		t.Errorf("the platform's own registry counted %d drops, want 2", n)
	}
}
