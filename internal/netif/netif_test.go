package netif

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cstruct"
	"repro/internal/ethernet"
	"repro/internal/grant"
	"repro/internal/hypervisor"
	"repro/internal/lwt"
	"repro/internal/netback"
	"repro/internal/obs"
	"repro/internal/pvboot"
	"repro/internal/sim"
	"repro/internal/xenstore"
)

// rig is a two-guest test network: guests a and b attached to one bridge.
type rig struct {
	k      *sim.Kernel
	h      *hypervisor.Host
	bridge *netback.Bridge
	st     *xenstore.Store
}

func newRig() *rig {
	k := sim.NewKernel(42)
	return &rig{
		k:      k,
		h:      hypervisor.NewHost(k, 4, ""),
		bridge: netback.NewBridgeNamed(k, ""),
		st:     xenstore.New(),
	}
}

var macA = ethernet.MAC{0x00, 0x16, 0x3e, 0, 0, 1}
var macB = ethernet.MAC{0x00, 0x16, 0x3e, 0, 0, 2}

// frame builds an Ethernet-framed payload: dst(6) src(6) type(2) payload.
func frame(dst, src ethernet.MAC, payload string) []byte {
	f := make([]byte, 14+len(payload))
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12], f[13] = 0x08, 0x00
	copy(f[14:], payload)
	return f
}

// guestEntry boots a VM, attaches a netif, then runs body.
func (r *rig) spawnGuest(t *testing.T, name string, mac ethernet.MAC, dom0 *hypervisor.Domain,
	body func(vm *pvboot.VM, n *Netif, p *sim.Proc) int) {
	t.Helper()
	r.k.Spawn("create-"+name, func(tp *sim.Proc) {
		r.h.Create(tp, hypervisor.Config{
			Name:   name,
			Memory: 64 << 20,
			Entry: func(d *hypervisor.Domain, p *sim.Proc) int {
				vm, err := pvboot.Boot(d, p, pvboot.Options{BinarySize: 256 << 10})
				if err != nil {
					t.Errorf("boot %s: %v", name, err)
					return 1
				}
				n, err := Attach(vm, r.bridge, dom0, r.st, mac)
				if err != nil {
					t.Errorf("attach %s: %v", name, err)
					return 1
				}
				return body(vm, n, p)
			},
		})
	})
}

func TestFrameDeliveryBetweenGuests(t *testing.T) {
	r := newRig()
	var dom0 *hypervisor.Domain
	var got string
	r.k.Spawn("setup", func(tp *sim.Proc) {
		dom0 = r.h.Create(tp, hypervisor.Config{Name: "dom0", Memory: 128 << 20})

		r.spawnGuest(t, "receiver", macB, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			done := lwt.NewPromise[string](vm.S)
			n.SetReceiver(func(v *cstruct.View, _ uint64) {
				got = v.String(14, v.Len()-14)
				v.Release()
				if !done.Completed() {
					done.Resolve(got)
				}
			})
			return vm.Main(p, done)
		})

		r.spawnGuest(t, "sender", macA, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			p.Sleep(50 * time.Millisecond) // let the receiver come up
			page := vm.Dom.Pool.Get()
			payload := frame(macB, macA, "hello unikernel")
			page.PutBytes(0, payload)
			n.Send(page.Sub(0, len(payload)))
			page.Release()
			// Stay alive long enough for TX completion to drain.
			main := vm.S.Sleep(100 * time.Millisecond)
			return vm.Main(p, main)
		})
	})
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello unikernel" {
		t.Fatalf("received %q, want %q", got, "hello unikernel")
	}
}

func TestScatterGatherFrameReassembled(t *testing.T) {
	r := newRig()
	var got string
	r.k.Spawn("setup", func(tp *sim.Proc) {
		dom0 := r.h.Create(tp, hypervisor.Config{Name: "dom0", Memory: 128 << 20})

		r.spawnGuest(t, "receiver", macB, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			done := lwt.NewPromise[struct{}](vm.S)
			n.SetReceiver(func(v *cstruct.View, _ uint64) {
				got = v.String(14, v.Len()-14)
				v.Release()
				if !done.Completed() {
					done.Resolve(struct{}{})
				}
			})
			return vm.Main(p, done)
		})

		r.spawnGuest(t, "sender", macA, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			p.Sleep(50 * time.Millisecond)
			// Header fragment and payload fragment on separate pages
			// (the Figure 4 write path).
			hdrPage := vm.Dom.Pool.Get()
			hdr := frame(macB, macA, "")
			hdrPage.PutBytes(0, hdr)
			payPage := vm.Dom.Pool.Get()
			payPage.PutBytes(0, []byte("scattered payload"))
			n.Send(hdrPage.Sub(0, 14), payPage.Sub(0, 17))
			hdrPage.Release()
			payPage.Release()
			return vm.Main(p, vm.S.Sleep(100*time.Millisecond))
		})
	})
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "scattered payload" {
		t.Fatalf("received %q, want scattered payload", got)
	}
}

// A frame whose fragments reach the backend on two separate notifications:
// the half-assembled frame must survive between the backend handler's
// activations.
func TestFrameStraddlingTwoBackendWakeups(t *testing.T) {
	r := newRig()
	var got []string
	r.k.Spawn("setup", func(tp *sim.Proc) {
		dom0 := r.h.Create(tp, hypervisor.Config{Name: "dom0", Memory: 128 << 20})

		r.spawnGuest(t, "receiver", macB, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			n.SetReceiver(func(v *cstruct.View, _ uint64) {
				got = append(got, v.String(14, v.Len()-14))
				v.Release()
			})
			return vm.Main(p, vm.S.Sleep(200*time.Millisecond))
		})

		r.spawnGuest(t, "sender", macA, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			p.Sleep(50 * time.Millisecond)
			// Stage the two fragments by hand, publishing and notifying
			// after each, a millisecond apart.
			push := func(data []byte, more bool) {
				page := vm.Dom.Pool.Get()
				page.PutBytes(0, data)
				gref := vm.Dom.Grants.Grant(page, true)
				n.txFront.PushRequest(func(s *cstruct.View) {
					netback.EncodeTxReq(s, uint32(gref), 0, uint16(len(data)), 999, more, 0)
				})
				n.flushTx()
			}
			push(frame(macB, macA, ""), true)
			p.Sleep(time.Millisecond)
			push([]byte("second wakeup"), false)
			return vm.Main(p, vm.S.Sleep(100*time.Millisecond))
		})
	})
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "second wakeup" {
		t.Fatalf("received %q, want one frame carrying %q", got, "second wakeup")
	}
}

// TestMultiFragmentFramesShareOneID: a burst of three-fragment frames, more
// than the TX ring holds, so some wait in the queue and reuse the ids of
// completed frames. Every frame arrives whole and in order, and once the
// last fragment response of each frame is in, every grant has ended and
// every page is back in the pool.
func TestMultiFragmentFramesShareOneID(t *testing.T) {
	const frames = 40
	r := newRig()
	var got []string
	r.k.Spawn("setup", func(tp *sim.Proc) {
		dom0 := r.h.Create(tp, hypervisor.Config{Name: "dom0", Memory: 128 << 20})
		r.spawnGuest(t, "receiver", macB, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			n.SetReceiver(func(v *cstruct.View, _ uint64) {
				got = append(got, v.String(14, v.Len()-14))
				v.Release()
			})
			return vm.Main(p, vm.S.Sleep(300*time.Millisecond))
		})
		r.spawnGuest(t, "sender", macA, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			p.Sleep(50 * time.Millisecond)
			granted := vm.Dom.Grants.Active()
			for i := 0; i < frames; i++ {
				hdr, a, b := vm.Dom.Pool.Get(), vm.Dom.Pool.Get(), vm.Dom.Pool.Get()
				hdr.PutBytes(0, frame(macB, macA, ""))
				a.PutBytes(0, []byte(fmt.Sprintf("frame %02d ", i)))
				b.PutBytes(0, []byte("tail"))
				n.Send(hdr.Sub(0, 14), a.Sub(0, 9), b.Sub(0, 4))
				hdr.Release()
				a.Release()
				b.Release()
			}
			vm.Main(p, vm.S.Sleep(100*time.Millisecond))
			if a := vm.Dom.Grants.Active(); a != granted {
				t.Errorf("%d grants active after the burst, want %d", a, granted)
			}
			if vm.Dom.Pool.InUse != 2+rxSlots {
				t.Errorf("pool InUse = %d after the burst, want %d", vm.Dom.Pool.InUse, 2+rxSlots)
			}
			return 0
		})
	})
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != frames {
		t.Fatalf("received %d frames, want %d", len(got), frames)
	}
	for i, g := range got {
		if want := fmt.Sprintf("frame %02d tail", i); g != want {
			t.Errorf("frame %d reads %q, want %q", i, g, want)
		}
	}
}

func TestTxCompletionsReleasePagesToPool(t *testing.T) {
	r := newRig()
	r.k.Spawn("setup", func(tp *sim.Proc) {
		dom0 := r.h.Create(tp, hypervisor.Config{Name: "dom0", Memory: 128 << 20})
		r.spawnGuest(t, "receiver", macB, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			n.SetReceiver(func(v *cstruct.View, _ uint64) { v.Release() })
			return vm.Main(p, vm.S.Sleep(900*time.Millisecond))
		})
		r.spawnGuest(t, "sender", macA, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			p.Sleep(50 * time.Millisecond)
			for i := 0; i < 200; i++ {
				page := vm.Dom.Pool.Get()
				payload := frame(macB, macA, "xxxxxxxxxxxxxxxx")
				page.PutBytes(0, payload)
				n.Send(page.Sub(0, len(payload)))
				page.Release()
				main := vm.S.Sleep(time.Millisecond)
				vm.Main(p, main)
			}
			vm.Main(p, vm.S.Sleep(200*time.Millisecond))
			// All TX pages must have been recycled: in-use pages are
			// just the ring pages and posted RX buffers.
			if vm.Dom.Pool.InUse > 2+rxSlots {
				t.Errorf("pool InUse = %d; TX pages leaked", vm.Dom.Pool.InUse)
			}
			if vm.Dom.Pool.Allocated > 2+2*rxSlots+8 {
				t.Errorf("pool Allocated = %d for 200 sends; recycling ineffective", vm.Dom.Pool.Allocated)
			}
			return 0
		})
	})
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRxDropWhenNoBuffersPosted(t *testing.T) {
	// A raw endpoint floods a guest whose vCPU is busy elsewhere, so it
	// cannot repost; drops are counted rather than wedging the system.
	const flood = 1000
	r := newRig()
	received := 0
	r.k.Spawn("setup", func(tp *sim.Proc) {
		dom0 := r.h.Create(tp, hypervisor.Config{Name: "dom0", Memory: 128 << 20})
		r.spawnGuest(t, "receiver", macB, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			n.SetReceiver(func(v *cstruct.View, _ uint64) {
				received++
				v.Release()
			})
			p.Use(vm.Dom.VCPU, 200*time.Millisecond)
			return vm.Main(p, vm.S.Sleep(300*time.Millisecond))
		})
		r.k.Spawn("flooder", func(p *sim.Proc) {
			p.Sleep(60 * time.Millisecond)
			// Inject the frames in a burst straight onto the bridge.
			for i := 0; i < flood; i++ {
				r.bridge.TransmitBytes(macA, frame(macB, macA, "flood"))
			}
		})
	})
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	// The guest posted its buffers at attach and reposts none until its
	// vCPU frees, so all but those drop — each one counted, each frame
	// either received or dropped.
	drops := r.k.Metrics().Snapshot().Sum("bridge_rx_no_buffer_total")
	if drops == 0 || received == 0 || int(drops)+received != flood {
		t.Errorf("bridge_rx_no_buffer_total = %d with %d frames received, want both > 0 and %d in all", drops, received, flood)
	}
}

func TestTxBurstBeyondRingDepthQueuesAndDrains(t *testing.T) {
	// A burst larger than the 32-slot TX ring must queue in the driver
	// and drain as completions free slots — no frame may be lost.
	r := newRig()
	const burst = 100
	received := 0
	r.k.Spawn("setup", func(tp *sim.Proc) {
		dom0 := r.h.Create(tp, hypervisor.Config{Name: "dom0", Memory: 128 << 20})
		r.spawnGuest(t, "receiver", macB, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			n.SetReceiver(func(v *cstruct.View, _ uint64) {
				received++
				v.Release()
			})
			return vm.Main(p, vm.S.Sleep(5*time.Second))
		})
		r.spawnGuest(t, "sender", macA, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			p.Sleep(50 * time.Millisecond)
			for i := 0; i < burst; i++ {
				page := vm.Dom.Pool.Get()
				payload := frame(macB, macA, fmt.Sprintf("burst-%03d", i))
				page.PutBytes(0, payload)
				n.Send(page.Sub(0, len(payload)))
				page.Release()
			}
			if n.mxTxQueued.Value() == 0 {
				t.Error("burst of 100 never used the driver queue (ring is 32 slots)")
			}
			return vm.Main(p, vm.S.Sleep(2*time.Second))
		})
	})
	if _, err := r.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if received != burst {
		t.Fatalf("received %d/%d burst frames", received, burst)
	}
}

func TestBurstSharesNotifications(t *testing.T) {
	// A same-instant burst of frames must cross the device path on a
	// handful of event-channel notifications, not one per frame (§3.4.1:
	// the guest pays per wakeup, so batching is the fast path's win).
	r := newRig()
	const burst = 16
	received := 0
	r.k.Spawn("setup", func(tp *sim.Proc) {
		dom0 := r.h.Create(tp, hypervisor.Config{Name: "dom0", Memory: 128 << 20})
		r.spawnGuest(t, "receiver", macB, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			n.SetReceiver(func(v *cstruct.View, _ uint64) {
				received++
				v.Release()
			})
			return vm.Main(p, vm.S.Sleep(2*time.Second))
		})
		r.spawnGuest(t, "sender", macA, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			p.Sleep(50 * time.Millisecond)
			frames := make([]*cstruct.View, burst)
			for i := range frames {
				page := vm.Dom.Pool.Get()
				payload := frame(macB, macA, fmt.Sprintf("batch-%02d", i))
				page.PutBytes(0, payload)
				frames[i] = page.Sub(0, len(payload))
				page.Release()
			}
			n.SendFrames(frames, nil)
			return vm.Main(p, vm.S.Sleep(1*time.Second))
		})
	})
	if _, err := r.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if received != burst {
		t.Fatalf("received %d/%d frames", received, burst)
	}
	m := r.k.Metrics()
	// The whole TX batch crosses on one backend wakeup: one drain of all
	// 16 requests, one ack publish, at most a couple of notifications.
	tx := m.Counter("bridge_notifications_total", obs.L("dir", "tx")).Value()
	if tx > 2 {
		t.Errorf("acking %d frames took %d TX notifications, want <= 2", burst, tx)
	}
	batches := m.Histogram("ring_batch_size", []float64{1, 2, 4, 8, 16, 32}, obs.L("ring", "tx"))
	if n := batches.Count(); n == 0 || n > 2 {
		t.Errorf("%d tx requests drained on %d backend wakeups, want 1 or 2", burst, n)
	}
	// RX deliveries are spaced by link serialisation, so the receiver may
	// legitimately see up to one event per frame — but never more.
	rx := m.Counter("bridge_notifications_total", obs.L("dir", "rx")).Value()
	if rx > burst {
		t.Errorf("delivering %d frames took %d RX notifications", burst, rx)
	}
}

// TestRevokedRxGrantSlotComesBack: a guest that revokes the grant of a
// buffer it posted gets the slot answered with an error, so the frame that
// lands there is dropped and counted, the buffer is re-posted, and every
// later frame is delivered.
func TestRevokedRxGrantSlotComesBack(t *testing.T) {
	r := newRig()
	const frames = 2 * rxSlots
	got := 0
	var rx *Netif
	var rxVM *pvboot.VM
	var revoked grant.Ref
	granted := 0 // the receiver's grants before the revocation: ring pages and posted buffers
	r.k.Spawn("setup", func(tp *sim.Proc) {
		dom0 := r.h.Create(tp, hypervisor.Config{Name: "dom0", Memory: 128 << 20})
		r.spawnGuest(t, "receiver", macB, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			rx, rxVM, granted = n, vm, vm.Dom.Grants.Active()
			for _, post := range n.rxPosted {
				if post.page != nil {
					revoked = post.gref
					break
				}
			}
			if err := vm.Dom.Grants.End(revoked); err != nil {
				t.Errorf("revoke: %v", err)
			}
			n.SetReceiver(func(v *cstruct.View, _ uint64) {
				got++
				v.Release()
			})
			return vm.Main(p, vm.S.Sleep(500*time.Millisecond))
		})
		r.spawnGuest(t, "sender", macA, dom0, func(vm *pvboot.VM, n *Netif, p *sim.Proc) int {
			p.Sleep(50 * time.Millisecond)
			for i := 0; i < frames; i++ {
				payload := frame(macB, macA, fmt.Sprintf("frame %d", i))
				page := vm.Dom.Pool.Get()
				page.PutBytes(0, payload)
				n.Send(page.Sub(0, len(payload)))
				page.Release()
				p.Sleep(time.Millisecond)
			}
			return vm.Main(p, vm.S.Sleep(100*time.Millisecond))
		})
	})
	if _, err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != frames-1 {
		t.Errorf("delivered %d of %d frames, want all but the one on the revoked slot", got, frames)
	}
	stale, posted := false, 0
	for _, post := range rx.rxPosted {
		if post.page != nil {
			posted++
			stale = stale || post.gref == revoked
		}
	}
	if stale || posted != rxSlots {
		t.Errorf("revoked grant %d still posted %v, %d posted; want it answered and %d posted",
			revoked, stale, posted, rxSlots)
	}
	if a := rxVM.Dom.Grants.Active(); a != granted {
		t.Errorf("%d grants active, want %d", a, granted)
	}
	if c := r.k.Metrics().Snapshot().Sum("bridge_rx_grant_errors_total"); c != 1 {
		t.Errorf("bridge_rx_grant_errors_total = %d, want 1", c)
	}
}
