package httpd

import (
	"testing"
	"time"

	"repro/internal/lwt"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// TestIdleTimeoutReapsParkedConnection: a keep-alive client that parks
// after its request must not hold the connection open forever — the idle
// timer closes it, freeing the server for drain/scale-down decisions.
func TestIdleTimeoutReapsParkedConnection(t *testing.T) {
	k, sa, sta, srv, serverIP := twoHosts(t, func(req *Request) *Response {
		return &Response{Status: 200, Body: []byte("ok")}
	})
	srv.IdleTimeout = 500 * time.Millisecond
	srv.Latency = obs.NewRegistry().Histogram("req_us", []float64{100, 1000, 10000})

	var gotStatus int
	var respAt, eofAt sim.Time
	k.Spawn("client", func(p *sim.Proc) {
		cn := sta.Connect(serverIP, 80)
		main := lwt.Bind(cn, func(c *tcp.Conn) *lwt.Promise[struct{}] {
			done := lwt.NewPromise[struct{}](sa)
			NewClient(c).Do(&Request{Method: "GET", Path: "/"}, func(resp *Response) {
				if resp == nil {
					t.Error("no response")
				} else {
					gotStatus = resp.Status
				}
				respAt = k.Now()
				// Park: never close, never send another request; the
				// server's FIN ends the read.
				lwt.Map(c.Read(1<<10), func(b []byte) struct{} {
					if len(b) == 0 {
						eofAt = k.Now()
					}
					done.Resolve(struct{}{})
					return struct{}{}
				})
			})
			return done
		})
		if err := sa.Run(p, main); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	if _, err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if gotStatus != 200 {
		t.Fatalf("status = %d, want 200", gotStatus)
	}
	if eofAt == 0 || eofAt.Sub(respAt) < srv.IdleTimeout {
		t.Fatalf("server closed at %v, response at %v: want a close once idle for %v", eofAt, respAt, srv.IdleTimeout)
	}
	if srv.Active() != 0 {
		t.Fatalf("Active = %d after idle reap, want 0", srv.Active())
	}
	if srv.Latency.Count() == 0 {
		t.Fatal("latency histogram recorded nothing")
	}
	if srv.FirstRespAt == 0 {
		t.Fatal("FirstRespAt not stamped")
	}
}

// TestDrainFinishesInFlightRequest: Drain while a request is in flight must
// deliver that response before closing (no connection reset), and the drain
// promise resolves only once the connection is gone.
func TestDrainFinishesInFlightRequest(t *testing.T) {
	k, sa, sta, srv, serverIP := twoHosts(t, nil)
	srv.HandlerAsync = func(req *Request) *lwt.Promise[*Response] {
		pr := lwt.NewPromise[*Response](srv.S)
		k.After(1*time.Second, func() {
			pr.Resolve(&Response{Status: 200, Body: []byte("slow")})
		})
		return pr
	}

	drained := false
	k.After(200*time.Millisecond, func() {
		lwt.Map(srv.Drain(), func(struct{}) struct{} {
			drained = true
			return struct{}{}
		})
	})

	var got []*Response
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Map(session(sa, sta, serverIP, 80, []*Request{
			{Method: "GET", Path: "/slow"},
		}), func(rs []*Response) struct{} {
			got = rs
			return struct{}{}
		})
		if err := sa.Run(p, main); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	if _, err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Status != 200 || string(got[0].Body) != "slow" {
		t.Fatalf("responses = %+v, want the in-flight response delivered", got)
	}
	if !drained {
		t.Fatal("drain promise never resolved")
	}
	if srv.Active() != 0 {
		t.Fatalf("Active = %d after drain, want 0", srv.Active())
	}
}
