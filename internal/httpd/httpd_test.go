package httpd

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// twoStacks wires two TCP stacks, a (10.0.0.1) and b (10.0.0.2), over an
// in-memory pipe. Each segment is encoded into a page of the receiver's pool
// on arrival and parsed back, as a frame off the wire is, so a read is lent
// a receive page that the next arrival may reuse once it is returned.
func twoStacks() (k *sim.Kernel, sa *lwt.Scheduler, sta *tcp.Stack, sb *lwt.Scheduler, stb *tcp.Stack) {
	k = sim.NewKernel(9)
	mk := func(name string, ip ipv4.Addr) (*lwt.Scheduler, *tcp.Stack, *sim.Signal) {
		s := lwt.NewScheduler(k)
		sig := k.NewSignal(name + "-rx")
		st := tcp.NewStack(s, ip, tcp.DefaultParams())
		s.OnSignal(sig, func() {})
		return s, st, sig
	}
	ipA, ipB := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	sa, sta, sigA := mk("client", ipA)
	sb, stb, sigB := mk("server", ipB)
	pipe := func(from *tcp.Stack, to *tcp.Stack, sig *sim.Signal) {
		pool := cstruct.NewPool()
		from.Output = func(dst ipv4.Addr, seg tcp.Segment) {
			k.After(200*time.Microsecond, func() {
				page := pool.Get()
				body := page.Sub(0, seg.WireLen())
				page.Release()
				tcp.Encode(body, from.LocalIP, dst, seg)
				in, err := tcp.Parse(from.LocalIP, dst, body)
				if err != nil {
					panic(err)
				}
				to.Input(from.LocalIP, in)
				sig.Set()
			})
		}
	}
	pipe(sta, stb, sigB)
	pipe(stb, sta, sigA)
	return k, sa, sta, sb, stb
}

// session runs reqs over one Session and resolves with the responses, or
// fails if the session did not answer them all.
func session(s *lwt.Scheduler, st *tcp.Stack, addr ipv4.Addr, port uint16, reqs []*Request) *lwt.Promise[[]*Response] {
	out := lwt.NewPromise[[]*Response](s)
	var rs []*Response
	Session(st, addr, port, func(i int) *Request {
		if i == len(reqs) {
			return nil
		}
		return reqs[i]
	}, func(_ int, resp *Response, next func()) {
		rs = append(rs, resp)
		next()
	}, func(ok bool) {
		if !ok {
			out.Fail(fmt.Errorf("httpd: session aborted after %d responses", len(rs)))
			return
		}
		out.Resolve(rs)
	})
	return out
}

// twoHosts is twoStacks with the server running on b.
func twoHosts(t *testing.T, handler Handler) (*sim.Kernel, *lwt.Scheduler, *tcp.Stack, *Server, ipv4.Addr) {
	t.Helper()
	k, sa, sta, sb, stb := twoStacks()
	srv := NewServer(sb, handler)
	k.SpawnDaemon("server", func(p *sim.Proc) {
		l, err := stb.Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		sb.Run(p, srv.Serve(l))
	})
	return k, sa, sta, srv, stb.LocalIP
}

func TestGetRequestRoundTrip(t *testing.T) {
	k, sa, sta, _, serverIP := twoHosts(t, func(req *Request) *Response {
		if req.Method != "GET" || req.Path != "/hello" {
			return &Response{Status: 404}
		}
		return &Response{Status: 200, Body: []byte("hi there")}
	})
	var got *Response
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Map(session(sa, sta, serverIP, 80, []*Request{
			{Method: "GET", Path: "/hello"},
		}), func(rs []*Response) struct{} {
			got = rs[0]
			return struct{}{}
		})
		if err := sa.Run(p, main); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	if _, err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Status != 200 || string(got.Body) != "hi there" {
		t.Fatalf("response = %+v", got)
	}
}

func TestKeepAliveSessionMultipleRequests(t *testing.T) {
	k, sa, sta, srv, serverIP := twoHosts(t, func(req *Request) *Response {
		return &Response{Status: 200, Body: []byte("resp:" + req.Path)}
	})
	var got []*Response
	k.Spawn("client", func(p *sim.Proc) {
		var reqs []*Request
		for i := 0; i < 10; i++ {
			reqs = append(reqs, &Request{Method: "GET", Path: fmt.Sprintf("/r%d", i)})
		}
		main := lwt.Map(session(sa, sta, serverIP, 80, reqs), func(rs []*Response) struct{} {
			got = rs
			return struct{}{}
		})
		if err := sa.Run(p, main); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	if _, err := k.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("responses = %d, want 10", len(got))
	}
	for i, r := range got {
		if string(r.Body) != fmt.Sprintf("resp:/r%d", i) {
			t.Errorf("response %d = %q", i, r.Body)
		}
	}
	if srv.ConnsServed != 1 {
		t.Errorf("ConnsServed = %d, want 1 (keep-alive)", srv.ConnsServed)
	}
	if srv.Requests != 10 {
		t.Errorf("Requests = %d, want 10", srv.Requests)
	}
}

func TestPostBodyDelivered(t *testing.T) {
	var seenBody string
	k, sa, sta, _, serverIP := twoHosts(t, func(req *Request) *Response {
		seenBody = string(req.Body)
		return &Response{Status: 201}
	})
	k.Spawn("client", func(p *sim.Proc) {
		main := session(sa, sta, serverIP, 80, []*Request{
			{Method: "POST", Path: "/tweet", Body: []byte("hello world tweet")},
		})
		if err := sa.Run(p, main); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	if _, err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if seenBody != "hello world tweet" {
		t.Fatalf("body = %q", seenBody)
	}
}

func TestConnectionCloseHonoured(t *testing.T) {
	k, sa, sta, srv, serverIP := twoHosts(t, func(req *Request) *Response {
		return &Response{Status: 200}
	})
	k.Spawn("client", func(p *sim.Proc) {
		main := session(sa, sta, serverIP, 80, []*Request{
			{Method: "GET", Path: "/", Close: true},
		})
		sa.Run(p, main)
	})
	if _, err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if srv.Requests != 1 {
		t.Errorf("Requests = %d", srv.Requests)
	}
}

func TestParseRequestIncremental(t *testing.T) {
	full := []byte("POST /x HTTP/1.1\r\ncontent-length: 5\r\nHost: a\r\n\r\nhello")
	for cut := 0; cut < len(full); cut++ {
		req, n, err := tryParseRequest(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if req != nil {
			t.Fatalf("cut %d: complete request from partial input", cut)
		}
		_ = n
	}
	req, n, err := tryParseRequest(full)
	if err != nil || req == nil {
		t.Fatal(err)
	}
	if n != len(full) || string(req.Body) != "hello" || req.Method != "POST" || req.Path != "/x" || req.Close {
		t.Errorf("req = %+v n=%d", req, n)
	}
}

func TestParseRequestRejectsGarbage(t *testing.T) {
	if _, _, err := tryParseRequest([]byte("NOT-HTTP\r\n\r\n")); err == nil {
		t.Error("garbage request line accepted")
	}
	if _, _, err := tryParseRequest([]byte("GET / HTTP/1.1\r\ncontent-length: -5\r\n\r\n")); err == nil {
		t.Error("negative content-length accepted")
	}
}

func TestResponseEncodeParseRoundTrip(t *testing.T) {
	in := &Response{Status: 404, Body: []byte("missing")}
	out, n, err := ParseResponse(in.Encode())
	if err != nil || out == nil {
		t.Fatal(err)
	}
	if n != len(in.Encode()) || out.Status != 404 || string(out.Body) != "missing" {
		t.Errorf("round trip = %+v", out)
	}
}

func TestSessionToDeadPortFails(t *testing.T) {
	k, sa, sta, _, serverIP := twoHosts(t, func(*Request) *Response { return &Response{Status: 200} })
	var sawErr error
	k.Spawn("client", func(p *sim.Proc) {
		pr := session(sa, sta, serverIP, 81, []*Request{{Method: "GET", Path: "/"}})
		sa.Run(p, pr)
		sawErr = pr.Failed()
	})
	if _, err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sawErr == nil {
		t.Error("session to closed port did not fail")
	}
}

// TestClientReadLoop drives the shared keep-alive client against a scripted
// peer: each case's server answers the first request with the given chunks
// (one TCP write each, 5ms apart), then optionally closes. want is the
// status each successive Do must yield, 0 standing for a nil response.
func TestClientReadLoop(t *testing.T) {
	ok := string((&Response{Status: 200, Body: []byte("hello")}).Encode())
	created := string((&Response{Status: 201}).Encode())
	cases := []struct {
		name   string
		chunks []string
		close  bool
		want   []int
	}{
		{"split across reads", []string{ok[:9], ok[9:30], ok[30:]}, false, []int{200}},
		{"two responses in one read", []string{ok + created}, false, []int{200, 201}},
		{"malformed status line", []string{"HTTP/1.1 abc OK\r\n\r\n"}, false, []int{0}},
		{"peer close mid-body", []string{"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"}, true, []int{0}},
	}
	for _, tc := range cases {
		k, sa, sta, sb, stb := twoStacks()
		k.SpawnDaemon("peer", func(p *sim.Proc) {
			l, err := stb.Listen(80)
			if err != nil {
				t.Error(err)
				return
			}
			sb.Run(p, lwt.Bind(l.Accept(), func(c *tcp.Conn) *lwt.Promise[struct{}] {
				return lwt.Bind(c.Read(64<<10), func([]byte) *lwt.Promise[struct{}] {
					var send func(i int) *lwt.Promise[struct{}]
					send = func(i int) *lwt.Promise[struct{}] {
						if i == len(tc.chunks) {
							if tc.close {
								c.Close()
							}
							return lwt.NewPromise[struct{}](sb) // park
						}
						c.Write([]byte(tc.chunks[i]))
						return lwt.Bind(sb.Sleep(5*time.Millisecond), func(struct{}) *lwt.Promise[struct{}] {
							return send(i + 1)
						})
					}
					return send(0)
				})
			}))
		})
		var got []int
		k.Spawn("client", func(p *sim.Proc) {
			done := lwt.NewPromise[struct{}](sa)
			lwt.Map(sta.Connect(stb.LocalIP, 80), func(c *tcp.Conn) struct{} {
				cl := NewClient(c)
				var issue func()
				issue = func() {
					if len(got) == len(tc.want) {
						done.Resolve(struct{}{})
						return
					}
					cl.Do(&Request{Method: "GET", Path: "/"}, func(resp *Response) {
						if resp == nil {
							got = append(got, 0)
						} else {
							got = append(got, resp.Status)
						}
						issue()
					})
				}
				issue()
				return struct{}{}
			})
			if err := sa.Run(p, done); err != nil {
				t.Errorf("%s: client: %v", tc.name, err)
			}
		})
		if _, err := k.RunFor(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: statuses %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestUnframableBodiesClosed: a client that declares a body above maxBody,
// and one that sends a chunked POST, are each closed without a response and
// without a request reaching the handler — not left buffering until the peer
// closes, nor read as a second request.
func TestUnframableBodiesClosed(t *testing.T) {
	for _, tc := range []struct{ name, msg string }{
		{"2 MiB", "POST /upload HTTP/1.1\r\nContent-Length: 2097152\r\n\r\nfirst bytes"},
		// A valid chunked body whose last-chunk line, extension included,
		// also reads as a request line.
		{"chunked", "POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0;a=\"b c HTTP/1.1\"\r\n\r\n"},
	} {
		handled := 0
		k, sa, sta, srv, serverIP := twoHosts(t, func(*Request) *Response {
			handled++
			return &Response{Status: 200}
		})
		closed := false
		k.Spawn("client", func(p *sim.Proc) {
			main := lwt.Bind(sta.Connect(serverIP, 80), func(c *tcp.Conn) *lwt.Promise[struct{}] {
				c.Write([]byte(tc.msg))
				// Never closes: the first read ends at the server's FIN.
				return lwt.Map(c.Read(1<<10), func(b []byte) struct{} {
					closed = len(b) == 0
					return struct{}{}
				})
			})
			if err := sa.Run(p, main); err != nil {
				t.Errorf("%s: client: %v", tc.name, err)
			}
		})
		if _, err := k.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if handled != 0 || srv.Requests != 0 || !closed || srv.Active() != 0 {
			t.Errorf("%s: handled %d, Requests %d, closed without a response %v, Active %d; want 0, 0, true, 0",
				tc.name, handled, srv.Requests, closed, srv.Active())
		}
	}
}

// raceEnabled is set by race_test.go: race instrumentation allocates on its
// own account, so allocation counts hold only in a plain build.
var raceEnabled bool

// TestCodecAllocations holds the codecs to the objects their callers keep,
// on the benchmark's message shapes: each encoder allocates the bytes it
// returns; the request parser the request-line string and the Request; the
// response parser the Response and the body.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	req := &Request{Method: "GET", Path: "/item/0042"}
	resp := &Response{Status: 200, Body: make([]byte, 512)}
	reqBytes, respBytes := EncodeRequest(req), resp.Encode()
	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"EncodeRequest", 1, func() { EncodeRequest(req) }},
		{"Response.Encode", 1, func() { resp.Encode() }},
		{"tryParseRequest", 2, func() {
			if r, _, err := tryParseRequest(reqBytes); r == nil || err != nil {
				t.Fatal("request did not parse")
			}
		}},
		{"ParseResponse", 2, func() {
			if r, _, err := ParseResponse(respBytes); r == nil || err != nil {
				t.Fatal("response did not parse")
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocations, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHeaderCountCostsNothing: a request carrying thousands of short
// headers, its header section still under maxHeader, parses in the
// allocations of a bare GET — the headers the codec does not act on are
// skipped where they lie, not stored.
func TestHeaderCountCostsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	msg := []byte("GET /item/0042 HTTP/1.1\r\n")
	for i := 0; i < 5000; i++ {
		msg = fmt.Appendf(msg, "X-%d: v\r\n", i)
	}
	msg = append(msg, "Connection: close\r\n\r\n"...)
	if len(msg) > maxHeader {
		t.Fatalf("header section is %d bytes, above maxHeader %d", len(msg), maxHeader)
	}
	bare := EncodeRequest(&Request{Method: "GET", Path: "/item/0042"})
	parse := func(b []byte, close bool) func() {
		return func() {
			r, n, err := tryParseRequest(b)
			if r == nil || err != nil || n != len(b) || r.Path != "/item/0042" || r.Close != close {
				t.Fatalf("request did not parse: %+v, %d of %d bytes, %v", r, n, len(b), err)
			}
		}
	}
	want := testing.AllocsPerRun(100, parse(bare, false))
	if got := testing.AllocsPerRun(100, parse(msg, true)); got != want || want != 2 {
		t.Errorf("5000 headers: %v allocations, bare GET %v; want 2 for both", got, want)
	}
}
