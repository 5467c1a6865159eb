package netback

import (
	"reflect"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/ethernet"
	"repro/internal/sim"
)

// upCall is one frame the bridge handed to its uplink.
type upCall struct {
	src, dst ethernet.MAC
	steer    bool
}

// TestForwardPaths drives every entry point of the bridge's one forwarding
// path into the branches no golden run reaches: misses with and without an
// uplink, broadcasts, steers, and frames the fabric carried in. Every case
// must leave no staging buffer outstanding.
func TestForwardPaths(t *testing.T) {
	a, c, d := ethernet.MAC{1}, ethernet.MAC{2}, ethernet.MAC{3}
	far, client := ethernet.MAC{9}, ethernet.MAC{8}
	runt := make([]byte, 10)
	cases := []struct {
		name    string
		uplink  bool
		send    func(b *Bridge, buf func([]byte) *bufpool.Buf)
		got     [3]int // deliveries to a, c, d
		ups     []upCall
		noRoute int
		charged int64
	}{
		{
			name:   "transmit miss goes up",
			uplink: true,
			send:   func(b *Bridge, _ func([]byte) *bufpool.Buf) { b.TransmitBytes(a, frame(far, a, 10)) },
			ups:    []upCall{{a, far, false}}, charged: 24,
		},
		{
			name:    "transmit miss without uplink",
			send:    func(b *Bridge, _ func([]byte) *bufpool.Buf) { b.TransmitBytes(a, frame(far, a, 10)) },
			noRoute: 1, charged: 24,
		},
		{
			name:   "broadcast floods locally and goes up once",
			uplink: true,
			send: func(b *Bridge, _ func([]byte) *bufpool.Buf) {
				b.TransmitBytes(a, frame(ethernet.Broadcast, a, 10))
			},
			got: [3]int{0, 1, 1}, ups: []upCall{{a, ethernet.Broadcast, false}}, charged: 24,
		},
		{
			name:   "steer hit ignores the header",
			uplink: true,
			send:   func(b *Bridge, buf func([]byte) *bufpool.Buf) { b.Steer(c, buf(frame(far, client, 10))) },
			got:    [3]int{0, 1, 0}, charged: 24,
		},
		{
			name:   "steer miss goes up",
			uplink: true,
			send:   func(b *Bridge, buf func([]byte) *bufpool.Buf) { b.Steer(far, buf(frame(a, client, 10))) },
			ups:    []upCall{{ethernet.MAC{}, far, true}}, charged: 24,
		},
		{
			name:    "steer miss without uplink is charged then dropped",
			send:    func(b *Bridge, buf func([]byte) *bufpool.Buf) { b.Steer(far, buf(frame(a, client, 10))) },
			noRoute: 1, charged: 24,
		},
		{
			name:    "inject miss never goes up",
			uplink:  true,
			send:    func(b *Bridge, buf func([]byte) *bufpool.Buf) { b.Inject(far, false, buf(frame(far, client, 10))) },
			noRoute: 1, charged: 24,
		},
		{
			name:    "inject steer miss never goes up",
			uplink:  true,
			send:    func(b *Bridge, buf func([]byte) *bufpool.Buf) { b.Inject(far, true, buf(frame(a, client, 10))) },
			noRoute: 1, charged: 24,
		},
		{
			name:   "inject broadcast stays local",
			uplink: true,
			send: func(b *Bridge, buf func([]byte) *bufpool.Buf) {
				b.Inject(ethernet.Broadcast, false, buf(frame(ethernet.Broadcast, a, 10)))
			},
			got: [3]int{0, 1, 1}, charged: 24,
		},
		{
			name:   "inject runt is dropped",
			uplink: true,
			send:   func(b *Bridge, buf func([]byte) *bufpool.Buf) { b.Inject(c, false, buf(runt)) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			b := NewBridgeNamed(k, "")
			eps := []*stubEndpoint{{mac: a}, {mac: c}, {mac: d}}
			for _, e := range eps {
				b.Attach(e, k)
			}
			var ups []upCall
			if tc.uplink {
				b.SetUplink(func(src, dst ethernet.MAC, steer bool, f *bufpool.Buf) {
					ups = append(ups, upCall{src, dst, steer})
					f.Release()
				})
			}
			tc.send(b, func(p []byte) *bufpool.Buf {
				f := b.pool.Get()
				f.Append(p)
				return f
			})
			if _, err := k.Run(); err != nil {
				t.Fatal(err)
			}
			for i, e := range eps {
				if len(e.frames) != tc.got[i] {
					t.Errorf("%v got %d frames, want %d", e.mac, len(e.frames), tc.got[i])
				}
			}
			if !reflect.DeepEqual(ups, tc.ups) {
				t.Errorf("uplink calls %v, want %v", ups, tc.ups)
			}
			if n := k.Metrics().Snapshot().Sum("bridge_no_route_total"); n != int64(tc.noRoute) {
				t.Errorf("bridge_no_route_total = %d, want %d", n, tc.noRoute)
			}
			if got := b.mxBytes.Value(); got != tc.charged {
				t.Errorf("charged %d bytes, want %d", got, tc.charged)
			}
			if n := b.pool.InUse(); n != 0 {
				t.Errorf("%d staging buffers still in use", n)
			}
		})
	}
}
