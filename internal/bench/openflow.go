package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/conventional"
	"repro/internal/openflow"
)

// cbench parameters (§4.3): 16 emulated switches, 100 MACs each, single
// controller thread.
const (
	cbenchSwitches = 16
	cbenchMACs     = 100
	// ofTransportLatency is the per-direction loopback TCP + scheduling
	// latency that dominates the "single" (one in-flight message per
	// switch) mode.
	ofTransportLatency = 220 * time.Microsecond
)

// discardTransport counts controller replies.
type discardTransport struct{ sent int }

func (d *discardTransport) Send([]byte) { d.sent++ }

// mirageBatchThroughput runs the real Mirage learning-switch controller
// over a cbench batch stream and returns requests/s (the controller is
// CPU-bound in batch mode, so throughput is work divided by charged CPU
// time) and the charged CPU time per request.
func mirageBatchThroughput(requests int) (float64, time.Duration) {
	ctrl := openflow.NewController()
	var busy time.Duration
	ctrl.Charge = func(d time.Duration) { busy += d }

	rng := rand.New(rand.NewSource(11))
	conns := make([]*openflow.ControllerConn, cbenchSwitches)
	outs := make([]*discardTransport, cbenchSwitches)
	for i := range conns {
		outs[i] = &discardTransport{}
		conns[i] = ctrl.Attach(outs[i])
	}
	mac := func(sw, host int) [6]byte {
		return [6]byte{0, byte(sw), 0, 0, byte(host >> 8), byte(host)}
	}
	for i := 0; i < requests; i++ {
		sw := i % cbenchSwitches
		src := rng.Intn(cbenchMACs)
		dst := rng.Intn(cbenchMACs)
		frame := openflow.MakeFrame(mac(sw, dst), mac(sw, src))
		pi := openflow.EncodePacketIn(openflow.PacketIn{
			XID: uint32(i), BufferID: uint32(i), InPort: uint16(src % 48), Data: frame,
		})
		if err := conns[sw].Input(pi); err != nil {
			panic(err)
		}
	}
	if ctrl.PacketIns != requests {
		panic(fmt.Sprintf("cbench: processed %d/%d", ctrl.PacketIns, requests))
	}
	replied := 0
	for _, o := range outs {
		replied += o.sent
	}
	if replied < requests {
		panic("cbench: controller failed to respond to every packet-in")
	}
	return float64(requests) / busy.Seconds(), busy / time.Duration(requests)
}

// Fig11OpenFlow regenerates Figure 11: controller throughput under cbench
// in batch and single modes for Maestro, NOX destiny-fast, and Mirage.
// Mirage's numbers come from running the real controller; the baselines
// use the measured cost profiles.
func Fig11OpenFlow(requests int) *Result {
	r := &Result{
		ID:     "fig11",
		Title:  "OpenFlow controller throughput (cbench, 16 switches x 100 MACs)",
		XLabel: "mode (0=batch, 1=single)",
		YLabel: "krequests/s",
		Notes: []string{
			"paper: NOX fastest, Mirage between NOX and Maestro in both modes",
			"Maestro collapses in single mode (JVM wakeup overheads); NOX batch is unfair across switches",
		},
	}
	for _, pr := range conventional.OFProfiles() {
		var batch float64
		perMsg := pr.PerMsg
		if pr.Name == "mirage" {
			batch, perMsg = mirageBatchThroughput(requests)
		} else {
			batch = 1.0 / perMsg.Seconds()
		}
		rtt := perMsg + pr.SingleExtra + 2*ofTransportLatency
		single := float64(cbenchSwitches) / rtt.Seconds()
		r.Series = append(r.Series, Series{
			Name: pr.Name,
			X:    []float64{0, 1},
			Y:    []float64{batch / 1e3, single / 1e3},
		})
	}
	return r
}
