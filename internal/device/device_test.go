package device

import (
	"testing"

	"repro/internal/cstruct"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/xenstore"
)

// fakeFE is a minimal frontend publishing one named and one unnamed ring.
type fakeFE struct {
	rings  []Ring
	port   *hypervisor.Port
	events int
}

func (f *fakeFE) Kind() string  { return "test" }
func (f *fakeFE) Rings() []Ring { return f.rings }
func (f *fakeFE) Fields() map[string]string {
	return map[string]string{"mac": "00:16:3e:00:00:01", "zzz": "last"}
}
func (f *fakeFE) Connected(p *hypervisor.Port) { f.port = p }
func (f *fakeFE) OnEvent()                     { f.events++ }

type fakeBE struct {
	kind   string
	rings  map[string]*cstruct.View
	fields map[string]string
	port   *hypervisor.Port
}

func (b *fakeBE) Kind() string { return b.kind }
func (b *fakeBE) Connect(guest *hypervisor.Domain, rings map[string]*cstruct.View, fields map[string]string, port *hypervisor.Port) error {
	b.rings, b.fields, b.port = rings, fields, port
	return nil
}

func TestConnectHandshake(t *testing.T) {
	k := sim.NewKernel(1)
	h := hypervisor.NewHost(k, 1, "")
	st := xenstore.New()
	var guest, dom0 *hypervisor.Domain
	k.Spawn("setup", func(p *sim.Proc) {
		dom0 = h.Create(p, hypervisor.Config{Name: "dom0", Memory: 16 << 20})
		guest = h.Create(p, hypervisor.Config{Name: "guest", Memory: 16 << 20})
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}

	fe := &fakeFE{rings: []Ring{
		{Name: "tx", Page: guest.Pool.Get()},
		{Name: "", Page: guest.Pool.Get()},
	}}
	be := &fakeBE{kind: "test"}
	port, err := Connect(guest, dom0, st, 0, fe, be)
	if err != nil {
		t.Fatal(err)
	}
	if fe.port != port {
		t.Fatalf("frontend got port %v, Connect returned %v", fe.port, port)
	}
	if be.port == nil {
		t.Fatalf("backend got no port")
	}
	// The backend's port is the other end of the frontend's channel: what
	// it sends arrives there.
	be.port.NotifyAsync()
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if port.Receives != 1 {
		t.Fatalf("backend port is not the peer of the frontend port")
	}
	if be.rings["tx"] == nil || be.rings[""] == nil {
		t.Fatalf("backend rings not mapped: %v", be.rings)
	}
	if be.fields["mac"] != "00:16:3e:00:00:01" || be.fields["zzz"] != "last" {
		t.Fatalf("backend fields not read back: %v", be.fields)
	}
	// The rendezvous is the store: refs and state must be published there.
	path := Path(guest, "test", 0)
	if s, err := st.Read(path + "/state"); err != nil || s != "4" {
		t.Fatalf("state = %q, %v; want 4 (connected)", s, err)
	}
	for _, key := range []string{"/tx-ring-ref", "/ring-ref", "/event-channel", "/mac"} {
		if _, err := st.Read(path + key); err != nil {
			t.Fatalf("missing handshake key %s: %v", key, err)
		}
	}
}

func TestConnectKindMismatch(t *testing.T) {
	k := sim.NewKernel(1)
	h := hypervisor.NewHost(k, 1, "")
	st := xenstore.New()
	var guest, dom0 *hypervisor.Domain
	k.Spawn("setup", func(p *sim.Proc) {
		dom0 = h.Create(p, hypervisor.Config{Name: "dom0", Memory: 16 << 20})
		guest = h.Create(p, hypervisor.Config{Name: "guest", Memory: 16 << 20})
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	fe := &fakeFE{}
	if _, err := Connect(guest, dom0, st, 0, fe, &fakeBE{kind: "other"}); err == nil {
		t.Fatal("kind mismatch not rejected")
	}
}
