package fleet

import (
	"time"

	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/lwt"
	"repro/internal/sim"
)

// WebMain returns the standard web-replica main: a fixed-cost HTTP handler
// on VIP port 80, wired into the fleet's latency histogram, with the idle
// timer keeping parked keep-alive clients from pinning the replica. On the
// fleet's stop signal it closes the listener, drains in-flight requests
// and powers off cleanly.
func WebMain(handlerCost time.Duration, body []byte, idleTimeout time.Duration) func(*core.Env, *Replica) int {
	return func(env *core.Env, r *Replica) int {
		ok := &httpd.Response{Status: 200, Body: body} // read-only: every request gets it
		srv := httpd.NewServer(env.VM.S, func(*httpd.Request) *httpd.Response { return ok })
		srv.Charge = func(d time.Duration) sim.Time { return env.VM.Dom.VCPU.Reserve(d) }
		srv.RespondCost += handlerCost // the application's per-request work
		srv.IdleTimeout = idleTimeout
		srv.Latency = r.fleet.ReqLatency
		srv.MirrorLatency = r.SLOHist // per-replica copy for the SLO watchdog
		srv.TracePid = env.VM.Dom.ID
		r.Srv = srv

		l, err := env.Net.TCP.Listen(80)
		if err != nil {
			return 1
		}
		env.VM.Dom.SignalReady()
		srv.Serve(l)
		main := lwt.Bind(r.Done(env), func(struct{}) *lwt.Promise[struct{}] {
			l.Close()
			return srv.Drain()
		})
		return env.VM.Main(env.P, main)
	}
}
