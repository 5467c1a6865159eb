// Package device is the single seam through which split drivers attach:
// one typed Frontend/Backend pair and one Connect function replace the
// parallel ad-hoc handshakes the network and block drivers used to carry
// separately. The design follows the functor-driven configuration style of
// Radanne et al. ("Functor Driven Development", and MirageOS's device-class
// signatures): a driver is a module satisfying a small signature — here,
// an interface naming its rings and handshake fields — and the appliance
// is assembled by applying one generic connector to whatever combination
// of device implementations the configuration selected. Adding a device
// class means implementing the signature, not teaching every orchestration
// layer (PVBoot, the fleet) a new wiring protocol.
//
// The rendezvous itself is the xenstore handshake of real Xen split
// drivers: the frontend grants its shared ring pages and publishes the
// grant references, event channel and extra fields under its device path,
// moves state to XenbusStateInitialised; the backend reads them back out
// of the store (the store, not shared Go pointers, is the interface), maps
// the rings and connects; state then moves to XenbusStateConnected.
package device

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/cstruct"
	"repro/internal/grant"
	"repro/internal/hypervisor"
	"repro/internal/xenstore"
)

// Ring is one shared ring a frontend exports: Name keys the grant
// reference in xenstore ("tx" is published as "tx-ring-ref"; the empty
// name as plain "ring-ref", the single-ring block convention).
type Ring struct {
	Name string
	Page *cstruct.View
}

// Frontend is the guest half of a split driver. Rings and Fields describe
// what the frontend publishes for the handshake; Connected delivers the
// guest end of the event channel once the backend has attached; OnEvent is
// the completion handler the VM's run loop invokes when that channel fires.
type Frontend interface {
	// Kind names the device class ("vif", "vbd") and the xenstore path
	// segment the handshake happens under.
	Kind() string
	Rings() []Ring
	Fields() map[string]string
	Connected(port *hypervisor.Port)
	OnEvent()
}

// Backend is the driver-domain half. Connect receives the mapped ring
// pages (keyed by ring name), the handshake fields as read back from the
// store, and the backend end of the event channel; it is expected to
// register whatever worker services the device.
type Backend interface {
	Kind() string
	Connect(guest *hypervisor.Domain, rings map[string]*cstruct.View, fields map[string]string, port *hypervisor.Port) error
}

// refKey maps a ring name to its xenstore key.
func refKey(name string) string {
	if name == "" {
		return "ring-ref"
	}
	return name + "-ring-ref"
}

// Path returns the xenstore device path for a domain's index'th device of
// the given kind.
func Path(guest *hypervisor.Domain, kind string, index int) string {
	return fmt.Sprintf("/local/domain/%d/device/%s/%d", guest.ID, kind, index)
}

// Connect performs the full frontend/backend rendezvous for one device and
// returns the guest end of its event channel. Fields are written and read
// in sorted key order so the store traffic — and everything downstream of
// it — is identical between same-seed runs.
func Connect(guest, dom0 *hypervisor.Domain, st *xenstore.Store, index int, fe Frontend, be Backend) (*hypervisor.Port, error) {
	if fe.Kind() != be.Kind() {
		return nil, fmt.Errorf("device: frontend %q cannot attach to backend %q", fe.Kind(), be.Kind())
	}
	path := Path(guest, fe.Kind(), index)

	// Frontend half: grant the rings, allocate the event channel, publish.
	rings := fe.Rings()
	for _, r := range rings {
		ref := guest.Grants.Grant(r.Page, false)
		if err := st.Write(path+"/"+refKey(r.Name), strconv.Itoa(int(ref))); err != nil {
			return nil, err
		}
	}
	gport, bport := hypervisor.Connect(guest, dom0)
	if err := st.Write(path+"/event-channel", strconv.Itoa(gport.Index)); err != nil {
		return nil, err
	}
	fields := fe.Fields()
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := st.Write(path+"/"+k, fields[k]); err != nil {
			return nil, err
		}
	}
	st.Write(path+"/state", "3") // XenbusStateInitialised

	// Backend half: read the handshake back out of the store and map the
	// ring grants.
	backRings := make(map[string]*cstruct.View, len(rings))
	for _, r := range rings {
		s, err := st.Read(path + "/" + refKey(r.Name))
		if err != nil {
			return nil, err
		}
		ref, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("device: bad ring ref %q: %w", s, err)
		}
		page, err := guest.Grants.Map(grant.Ref(ref), false)
		if err != nil {
			return nil, err
		}
		backRings[r.Name] = page
	}
	backFields := make(map[string]string, len(keys))
	for _, k := range keys {
		v, err := st.Read(path + "/" + k)
		if err != nil {
			return nil, err
		}
		backFields[k] = v
	}
	if err := be.Connect(guest, backRings, backFields, bport); err != nil {
		return nil, err
	}
	st.Write(path+"/state", "4") // XenbusStateConnected
	fe.Connected(gport)
	return gport, nil
}
