// Package loadgen is the one client guest of the experiments and examples:
// a request codec and a transport, run on a schedule, feeding one Tally.
// It stands in for the paper's clients: queryperf (§4.2), httperf (§4.4)
// and the flood ping of §4.1.3. Closed keeps W of N datagram requests
// outstanding; Sessions launches keep-alive HTTP sessions at planned
// instants, with think time. Everything runs over the guest's netstack.
//
// lwt.NewPromise charges the guest heap model, so the promises a schedule
// makes are part of its timing: each one below is documented.
package loadgen

import (
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/dns"
	"repro/internal/httpd"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Tally is what client guests observed; several may share one, since
// percentiles sort and counts sum.
type Tally struct {
	Lats     []time.Duration // per answered request: send to answer
	ReqsDone int             // requests answered inside their window
	SessOK   int             // sessions whose every request was answered
	SessFail int             // sessions that failed to connect or broke off
	Elapsed  time.Duration   // a closed loop's first send to its last answer
}

// Pct returns the q-quantile latency in whole µs (nearest rank), 0 when
// empty.
func (t *Tally) Pct(q float64) float64 {
	if len(t.Lats) == 0 {
		return 0
	}
	s := slices.Clone(t.Lats)
	slices.Sort(s)
	return float64(s[min(max(int(q*float64(len(s))+0.5)-1, 0), len(s)-1)].Microseconds())
}

// Until runs fn at the guest's virtual instant at, or now if that has
// passed (after the events already queued for now). It is every schedule's
// one timer, and makes two promises.
func Until(s *lwt.Scheduler, at time.Duration, fn func()) {
	lwt.Map(s.Sleep(at-s.K.Now().Duration()), func(struct{}) struct{} {
		fn()
		return struct{}{}
	})
}

// Transport carries a closed loop's requests from env's guest: it routes
// every answer to answer and returns the function that sends request i.
type Transport func(env *core.Env, answer func()) (send func(i int))

// udp sends request(i) from port local to dst:port; a reply answers when
// answers accepts it, or always when answers is nil.
func udp(dst ipv4.Addr, port, local uint16, request func(i int) []byte, answers func([]byte) bool) Transport {
	return func(env *core.Env, answer func()) func(int) {
		env.Net.UDP.Bind(local, func(_ ipv4.Addr, _ uint16, data *cstruct.View) {
			ok := answers == nil || answers(data.Bytes())
			data.Release()
			if ok {
				answer()
			}
		})
		return func(i int) { env.Net.SendUDP(dst, port, local, request(i)) }
	}
}

// Query is queryperf over UDP to dst:53: request i asks for the A record of
// name(i) with id i, and only a well-formed DNS response answers it.
func Query(dst ipv4.Addr, name func(i int) string) Transport {
	return udp(dst, 53, 3535, func(i int) []byte { return dns.EncodeQuery(uint16(i), name(i), dns.TypeA) },
		func(b []byte) bool {
			m, err := dns.ParseMessage(b)
			return err == nil && m.Flags&dns.FlagResponse != 0
		})
}

// Echo sends payload from port local to dst's UDP echo port, 7.
func Echo(dst ipv4.Addr, local uint16, payload []byte) Transport {
	return udp(dst, 7, local, func(int) []byte { return payload }, nil)
}

// Ping sends ICMP echo request i, with sequence number i, to dst.
func Ping(dst ipv4.Addr) Transport {
	return func(env *core.Env, answer func()) func(int) {
		env.Net.ICMP.OnReply = func(ipv4.Addr, icmp.Echo) { answer() }
		return func(i int) { env.Net.Ping(dst, 1, uint16(i), nil) }
	}
}

// Closed is a closed-loop client's main thread: it gives the server 2 s to
// boot, then keeps w of n requests outstanding on tr, booking each answer's
// round trip in t (answers match requests in send order) and t.Elapsed at
// the nth. It makes one promise, which the thread waits on.
func Closed(env *core.Env, w, n int, tr Transport, t *Tally) int {
	env.P.Sleep(2 * time.Second)
	k := env.VM.S.K
	done := lwt.NewPromise[struct{}](env.VM.S)
	start := k.Now()
	var inFlight []sim.Time // send instants, oldest first
	var send func(int)
	sent := 0
	issue := func() {
		inFlight = append(inFlight, k.Now())
		send(sent)
		sent++
	}
	send = tr(env, func() {
		t.Lats = append(t.Lats, k.Now().Sub(inFlight[0]))
		inFlight = inFlight[1:]
		if sent-len(inFlight) == n {
			t.Elapsed = k.Now().Sub(start)
			done.Resolve(struct{}{})
		} else if sent < n {
			issue()
		}
	})
	for sent < w && sent < n {
		issue()
	}
	return env.VM.Main(env.P, done)
}

// Sessions is the httperf schedule. A session is one keep-alive connection
// to Addr:80 that carries Reqs one at a time, Think apart, and Think again
// after the last answer when Linger. Answer, when set, sees each response.
type Sessions struct {
	Addr   ipv4.Addr
	Reqs   []*httpd.Request
	Think  time.Duration
	Linger bool
	Answer func(*httpd.Response)
}

// GETs is n requests for the index page.
func GETs(n int) []*httpd.Request {
	get := &httpd.Request{Method: "GET", Path: "/"}
	reqs := make([]*httpd.Request, n)
	for i := range reqs {
		reqs[i] = get
	}
	return reqs
}

// Launch is one planned session.
type Launch struct {
	At   time.Duration // when it opens, after the plan starts
	End  time.Duration // answers after this instant miss ReqsDone's window
	T    *Tally        // where it is booked
	Span uint64        // nonzero samples the session for causal tracing
}

// Plan is a session client's main thread: it arms every launch at once and
// waits until every session has ended, on a promise it makes first.
func (ss *Sessions) Plan(env *core.Env, plan []Launch) int {
	all := lwt.NewPromise[struct{}](env.VM.S)
	pending := len(plan) + 1 // the sessions, and arming them
	done := func() {
		if pending--; pending == 0 {
			all.Resolve(struct{}{})
		}
	}
	start := env.VM.S.K.Now().Duration()
	for _, ln := range plan {
		Until(env.VM.S, start+ln.At, func() { ss.Open(env, ln, done) })
	}
	done()
	return env.VM.Main(env.P, all)
}

// Open runs ln's session now, booking it in ln.T, and calls done once it
// has ended; it makes no promise beyond its think times. A sampled
// session's trace id rides the connection as descriptor metadata, and the
// client emits the flow events that bracket the cross-domain arc.
func (ss *Sessions) Open(env *core.Env, ln Launch, done func()) {
	s, tr, pid := env.VM.S, env.VM.S.K.Trace(), env.VM.Dom.ID
	traced := ln.Span != 0 && tr.Enabled()
	if traced {
		tr.FlowStart(obs.Time(s.K.Now()), "trace", "client-session", pid, 0, ln.Span, obs.U64("trace_id", ln.Span))
	}
	opened := s.K.Now()
	env.Net.TCP.NextSpan = ln.Span
	var sent sim.Time
	httpd.Session(env.Net.TCP, ss.Addr, 80, func(i int) *httpd.Request {
		if i == len(ss.Reqs) {
			return nil
		}
		sent = s.K.Now()
		return ss.Reqs[i]
	}, func(i int, resp *httpd.Response, next func()) {
		now := s.K.Now()
		ln.T.Lats = append(ln.T.Lats, now.Sub(sent))
		if now.Duration() <= ln.End {
			ln.T.ReqsDone++
		}
		if ss.Answer != nil {
			ss.Answer(resp)
		}
		if ss.Think == 0 || (i+1 == len(ss.Reqs) && !ss.Linger) {
			next()
		} else {
			Until(s, now.Duration()+ss.Think, next)
		}
	}, func(ok bool) {
		if ok {
			ln.T.SessOK++
		} else {
			ln.T.SessFail++
		}
		if traced {
			now := s.K.Now()
			tr.SpanSlice(obs.Time(opened), obs.Time(now.Sub(opened)), "client", "session", pid, 0, obs.NewRootSpan(ln.Span))
			tr.FlowEnd(obs.Time(now), "trace", "client-session", pid, 0, ln.Span, obs.U64("trace_id", ln.Span))
		}
		done()
	})
}
