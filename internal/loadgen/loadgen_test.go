package loadgen

import (
	"sort"
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/tcp"
)

var (
	mask     = ipv4.AddrFrom4(255, 255, 255, 0)
	serverIP = ipv4.AddrFrom4(10, 0, 0, 1)
	clientIP = ipv4.AddrFrom4(10, 0, 0, 2)
)

// TestLoadgen holds the generator's three contracts, one row each: a closed
// loop answers exactly N and never has more than W outstanding, a session
// reset or closed mid-response counts one failure and leaves no connection
// behind,
// and Tally's percentiles are the nearest-rank whole-µs ones the sweeps
// have always printed.
func TestLoadgen(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"closed loop W=1", func(t *testing.T) { closedLoop(t, 1, 40) }},
		{"closed loop W=16", func(t *testing.T) { closedLoop(t, 16, 100) }},
		{"session reset mid-response", func(t *testing.T) { brokenSession(t, (*tcp.Conn).Abort) }},
		{"session closed mid-response", func(t *testing.T) { brokenSession(t, (*tcp.Conn).Close) }},
		{"percentiles", percentiles},
	} {
		t.Run(tc.name, tc.run)
	}
}

// closedLoop runs n UDP echoes at window w against a server that takes
// 20 µs of vCPU per datagram, so requests queue behind one another.
func closedLoop(t *testing.T, w, n int) {
	pl := core.NewPlatform(5)
	received := 0
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "echo", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			env.Net.UDP.Bind(7, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				received++
				env.VM.Dom.VCPU.Reserve(20 * time.Microsecond)
				env.Net.SendUDP(src, sp, 7, data.Bytes())
				data.Release()
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Minute))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: serverIP, Netmask: mask}})

	var tl Tally
	outstanding, peak := 0, 0
	echo := Echo(serverIP, make([]byte, 64))
	counted := func(env *core.Env, answer func()) func(int) {
		send := echo(env, func() {
			outstanding--
			answer()
		})
		return func(i int) {
			outstanding++
			peak = max(peak, outstanding)
			send(i)
		}
	}
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "client", Roots: []string{"udp"}},
		Main:  func(env *core.Env) int { return Closed(env, w, n, counted, &tl) },
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: clientIP, Netmask: mask}})

	if _, err := pl.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		t.Fatal(err)
	}
	if len(tl.Lats) != n || received != n {
		t.Fatalf("answered %d, server saw %d; want %d and %d", len(tl.Lats), received, n, n)
	}
	if peak != w || outstanding != 0 {
		t.Fatalf("peak outstanding %d, %d left; want %d and 0", peak, outstanding, w)
	}
	if tl.Elapsed < tl.Lats[n-1] {
		t.Fatalf("elapsed %v shorter than the last round trip %v", tl.Elapsed, tl.Lats[n-1])
	}
}

// brokenSession runs a two-request session against a peer that answers the
// first request with half a response and then ends the connection with end.
func brokenSession(t *testing.T, end func(*tcp.Conn)) {
	pl := core.NewPlatform(6)
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "rst", Roots: []string{"http"}},
		Main: func(env *core.Env) int {
			l, err := env.Net.TCP.Listen(80)
			if err != nil {
				return 1
			}
			lwt.Map(l.Accept(), func(c *tcp.Conn) struct{} {
				lwt.Map(c.Read(64<<10), func([]byte) struct{} {
					c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"))
					Until(env.VM.S, env.VM.S.K.Now().Duration()+5*time.Millisecond, func() { end(c) })
					return struct{}{}
				})
				return struct{}{}
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Minute))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: serverIP, Netmask: mask}})

	var tl Tally
	var client *tcp.Stack
	ss := &Sessions{Addr: serverIP, Reqs: GETs(2)}
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "client", Roots: []string{"http"}},
		Main: func(env *core.Env) int {
			client = env.Net.TCP
			env.P.Sleep(time.Second)
			ss.Open(env, Launch{End: time.Minute, T: &tl}, func() {})
			// Stay up past the session: a guest's stack stops receiving
			// once its main thread returns.
			return env.VM.Main(env.P, env.VM.S.Sleep(30*time.Second))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: clientIP, Netmask: mask}})

	if _, err := pl.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if tl.SessFail != 1 || tl.SessOK != 0 {
		t.Fatalf("sessions ok %d fail %d; want one failure", tl.SessOK, tl.SessFail)
	}
	if len(tl.Lats) != 0 || tl.ReqsDone != 0 {
		t.Fatalf("booked %d answers (%d in window) from a half response", len(tl.Lats), tl.ReqsDone)
	}
	if n := client.Conns(); n != 0 {
		t.Fatalf("client holds %d connections after the session, want 0", n)
	}
}

// percentiles compares Pct with the sweeps' reference: latencies truncated
// to whole µs as float64, sorted, nearest rank.
func percentiles(t *testing.T) {
	ref := func(lats []time.Duration, q float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		var s []float64
		for _, d := range lats {
			s = append(s, float64(d.Microseconds()))
		}
		sort.Float64s(s)
		i := int(q*float64(len(s))+0.5) - 1
		i = min(max(i, 0), len(s)-1)
		return s[i]
	}
	table := [][]time.Duration{
		nil,
		{1500 * time.Nanosecond},
		{999 * time.Nanosecond, 1000 * time.Nanosecond, 1001 * time.Nanosecond},
		{30 * time.Millisecond, 2 * time.Millisecond, 2*time.Millisecond + 700*time.Nanosecond, 11 * time.Millisecond,
			400 * time.Microsecond, 25*time.Millisecond + 999*time.Nanosecond, 2 * time.Millisecond, 90 * time.Millisecond},
	}
	for _, lats := range table {
		tl := Tally{Lats: lats}
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
			if got, want := tl.Pct(q), ref(lats, q); got != want {
				t.Errorf("Pct(%v) of %v = %v, want %v", q, lats, got, want)
			}
		}
	}
}
