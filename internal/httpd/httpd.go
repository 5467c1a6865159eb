// Package httpd implements an HTTP/1.1 server and client library over the
// clean-slate TCP stack (paper Table 1, §4.4): request parsing from the
// byte stream, keep-alive connections, and Content-Length bodies. Like
// everything in a unikernel it is a library linked with the application;
// the handler runs in the same address space with no userspace copy.
package httpd

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Request is a parsed HTTP request.
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string
	Body    []byte
}

// KeepAlive reports whether the connection should persist.
func (r *Request) KeepAlive() bool {
	c := strings.ToLower(r.Headers["connection"])
	if r.Proto == "HTTP/1.0" {
		return c == "keep-alive"
	}
	return c != "close"
}

// Response is an HTTP response.
type Response struct {
	Status  int
	Headers map[string]string
	Body    []byte
}

// statusText covers the statuses the appliances use.
var statusText = map[int]string{
	200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error",
}

// Encode serialises the response.
func (r *Response) Encode() []byte {
	txt := statusText[r.Status]
	if txt == "" {
		txt = "Status"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", r.Status, txt)
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(r.Body))
	for k, v := range r.Headers {
		fmt.Fprintf(&b, "%s: %s\r\n", k, v)
	}
	b.WriteString("\r\n")
	return append([]byte(b.String()), r.Body...)
}

// Handler produces a response for a request.
type Handler func(*Request) *Response

// AsyncHandler produces a response via a promise — for handlers that touch
// storage or other appliances (the §4.4 dynamic web appliance reads its
// B-tree through the block API).
type AsyncHandler func(*Request) *lwt.Promise[*Response]

// Params are the server's per-request virtual-CPU costs (calibrated for
// §4.4: the unikernel appliance becomes CPU-bound around 800 requests/s
// only because of its application logic; the HTTP layer itself is cheap).
type Params struct {
	ParseCost   time.Duration
	RespondCost time.Duration
}

// DefaultParams returns the unikernel HTTP costs.
func DefaultParams() Params {
	return Params{ParseCost: 8 * time.Microsecond, RespondCost: 10 * time.Microsecond}
}

// Server serves HTTP over TCP listeners. Exactly one of Handler or
// HandlerAsync must be set.
type Server struct {
	S            *lwt.Scheduler
	Handler      Handler
	HandlerAsync AsyncHandler
	Params       Params
	// Charge books per-request CPU cost (wired to the domain's vCPU) and
	// returns the virtual time the charged work completes; the server
	// holds each response until then, so under backlog the observed
	// latency includes queueing delay.
	Charge func(time.Duration) sim.Time
	// IdleTimeout closes keep-alive connections that sit idle between
	// requests, so a parked client cannot hold a replica "loaded" and
	// block the fleet from draining or scaling it away. Zero disables.
	IdleTimeout time.Duration
	// Latency, when set, records request latency (parse to last response
	// byte accepted by TCP) in microseconds.
	Latency *obs.Histogram
	// MirrorLatency, when set, receives the same observations as Latency —
	// a per-replica copy that lets a fleet keep one shared histogram for
	// aggregate stats and one labeled per replica for SLO tracking.
	MirrorLatency *obs.Histogram
	// TracePid attributes the server's trace events (sampled-request slices
	// and flow steps) to a domain's process row.
	TracePid int

	Requests    int
	ConnsServed int
	Errors      int
	// IdleClosed counts connections reaped by IdleTimeout.
	IdleClosed int
	// FirstRespAt is the instant the first response completed (zero until
	// then) — the fleet's boot-to-first-byte marker for summoned replicas.
	FirstRespAt sim.Time

	conns    []*servedConn
	active   int
	draining bool
	drainP   *lwt.Promise[struct{}]
}

// NewServer creates a server with the given handler.
func NewServer(s *lwt.Scheduler, h Handler) *Server {
	return &Server{S: s, Handler: h, Params: DefaultParams()}
}

func (srv *Server) charge(d time.Duration) sim.Time {
	if srv.Charge != nil && d > 0 {
		return srv.Charge(d)
	}
	return 0
}

// Active returns the number of open server-side connections.
func (srv *Server) Active() int { return srv.active }

// servedConn tracks one server-side connection and its idle-close timer.
// The timer is the reusable kernel-event pattern: one live event at most,
// a moving deadline, and a fire-time check that re-arms when the deadline
// moved later — so per-request traffic never allocates timer events.
type servedConn struct {
	srv      *Server
	c        *tcp.Conn
	busy     bool // a request is being read-completed/handled/responded
	closed   bool
	deadline sim.Time
	tickLive bool
}

// touch restarts the idle clock; called whenever the connection goes idle.
func (sc *servedConn) touch() {
	if sc.srv.IdleTimeout <= 0 || sc.closed {
		return
	}
	k := sc.srv.S.K
	sc.deadline = k.Now().Add(sc.srv.IdleTimeout)
	if !sc.tickLive {
		sc.tickLive = true
		k.At(sc.deadline, sc.tick)
	}
}

func (sc *servedConn) tick() {
	sc.tickLive = false
	if sc.closed || sc.busy {
		return // a request arrived; touch() re-arms when it finishes
	}
	k := sc.srv.S.K
	if k.Now() < sc.deadline {
		sc.tickLive = true
		k.At(sc.deadline, sc.tick)
		return
	}
	sc.srv.IdleClosed++
	sc.close()
}

// close tears the connection down exactly once.
func (sc *servedConn) close() {
	if sc.closed {
		return
	}
	sc.closed = true
	sc.c.Close()
	sc.srv.finish(sc)
}

// finish retires a connection from the server's books, resolving a pending
// drain when the last one goes.
func (srv *Server) finish(sc *servedConn) {
	srv.active--
	if srv.draining && srv.active == 0 && srv.drainP != nil && !srv.drainP.Completed() {
		srv.drainP.Resolve(struct{}{})
	}
	if len(srv.conns) > 32 && len(srv.conns) > 2*srv.active {
		live := srv.conns[:0]
		for _, o := range srv.conns {
			if !o.closed {
				live = append(live, o)
			}
		}
		for i := len(live); i < len(srv.conns); i++ {
			srv.conns[i] = nil
		}
		srv.conns = live
	}
}

// Drain stops keep-alive: idle connections close now, busy ones close after
// their in-flight response, and the promise resolves when the last
// connection is gone. Close the listener first so no new connections land.
func (srv *Server) Drain() *lwt.Promise[struct{}] {
	srv.draining = true
	if srv.drainP == nil {
		srv.drainP = lwt.NewPromise[struct{}](srv.S)
	}
	// Snapshot: close() may compact srv.conns underneath the loop.
	for _, sc := range append([]*servedConn(nil), srv.conns...) {
		if sc != nil && !sc.closed && !sc.busy {
			sc.close()
		}
	}
	if srv.active == 0 && !srv.drainP.Completed() {
		srv.drainP.Resolve(struct{}{})
	}
	return srv.drainP
}

// Serve accepts connections forever. The returned promise only fails.
func (srv *Server) Serve(l *tcp.Listener) *lwt.Promise[struct{}] {
	out := lwt.NewPromise[struct{}](srv.S)
	var acceptLoop func()
	acceptLoop = func() {
		lwt.Map(l.Accept(), func(c *tcp.Conn) struct{} {
			srv.ConnsServed++
			srv.serveConn(c)
			acceptLoop()
			return struct{}{}
		})
	}
	acceptLoop()
	return out
}

// serveConn runs the request/response loop on one connection.
func (srv *Server) serveConn(c *tcp.Conn) {
	sc := &servedConn{srv: srv, c: c}
	srv.conns = append(srv.conns, sc)
	srv.active++
	if srv.draining {
		sc.close()
		return
	}
	var buf []byte
	var next func()
	next = func() {
		sc.busy = false
		sc.touch()
		lwt.Map(srv.readRequest(c, &buf), func(req *Request) struct{} {
			if req == nil || sc.closed { // EOF, parse failure, or idle-reaped
				sc.close()
				return struct{}{}
			}
			sc.busy = true
			start := srv.S.K.Now()
			srv.Requests++
			srv.charge(srv.Params.ParseCost)
			respond := func(resp *Response) {
				if resp == nil {
					resp = &Response{Status: 500}
				}
				end := srv.charge(srv.Params.RespondCost)
				write := func() {
					lwt.Map(c.Write(resp.Encode()), func(int) struct{} {
						srv.responded(start)
						srv.traceRequest(c, start)
						if req.KeepAlive() && !srv.draining && !sc.closed {
							next()
						} else {
							sc.close()
						}
						return struct{}{}
					})
				}
				if end > srv.S.K.Now() {
					// The response leaves once the charged CPU work (and
					// any backlog ahead of it) is done.
					srv.S.K.At(end, write)
				} else {
					write()
				}
			}
			if srv.HandlerAsync != nil {
				pr := srv.HandlerAsync(req)
				lwt.Always(pr, func() {
					if pr.Failed() != nil {
						respond(&Response{Status: 500})
					} else {
						respond(pr.Value())
					}
				})
			} else {
				respond(srv.Handler(req))
			}
			return struct{}{}
		})
	}
	next()
}

// responded books per-request latency and the first-response instant.
func (srv *Server) responded(start sim.Time) {
	now := srv.S.K.Now()
	if srv.FirstRespAt == 0 {
		srv.FirstRespAt = now
	}
	if srv.Latency != nil {
		lat := float64(now.Sub(start).Microseconds())
		srv.Latency.Observe(lat)
		if srv.MirrorLatency != nil {
			srv.MirrorLatency.Observe(lat)
		}
	}
}

// traceRequest emits the server-side segment of a sampled request: a flow
// step tying this hop into the request's cross-domain arc, and a complete
// slice split into service time (the charged parse+respond CPU cost) and
// queueing delay (everything else: vCPU backlog, TCP transfer, handler I/O).
func (srv *Server) traceRequest(c *tcp.Conn, start sim.Time) {
	span := c.TraceID()
	if span == 0 {
		return
	}
	tr := srv.S.K.Trace()
	if !tr.Enabled() {
		return
	}
	now := srv.S.K.Now()
	total := now.Sub(start)
	service := srv.Params.ParseCost + srv.Params.RespondCost
	queue := total - service
	if queue < 0 {
		queue = 0
	}
	sp := obs.NewRootSpan(span).Child(spanLayerHTTPD)
	tr.FlowStep(obs.Time(start), "trace", "httpd-request", srv.TracePid, 0, span,
		obs.U64("trace_id", span))
	tr.SpanSlice(obs.Time(start), obs.Time(total), "httpd", "request", srv.TracePid, 0, sp,
		obs.Int("queue_us", int64(queue.Microseconds())),
		obs.Int("service_us", int64(service.Microseconds())))
}

// spanLayerHTTPD is the server's per-layer span-id constant (see obs.Span.Child).
const spanLayerHTTPD = 3

// readRequest accumulates bytes until a full request (headers + body) is
// available; resolves nil on EOF or malformed input.
func (srv *Server) readRequest(c *tcp.Conn, buf *[]byte) *lwt.Promise[*Request] {
	out := lwt.NewPromise[*Request](srv.S)
	var step func()
	step = func() {
		if req, n, err := tryParseRequest(*buf); err != nil {
			srv.Errors++
			out.Resolve(nil)
			return
		} else if req != nil {
			*buf = (*buf)[n:]
			out.Resolve(req)
			return
		}
		rd := c.Read(64 << 10)
		lwt.Always(rd, func() {
			if rd.Failed() != nil {
				out.Resolve(nil) // reset mid-request
				return
			}
			data := rd.Value()
			if len(data) == 0 {
				out.Resolve(nil) // EOF
				return
			}
			*buf = append(*buf, data...)
			step()
		})
	}
	step()
	return out
}

// tryParseRequest parses a complete request from b, returning (req, bytes
// consumed). It returns (nil, 0, nil) when more data is needed.
func tryParseRequest(b []byte) (*Request, int, error) {
	head := strings.Index(string(b), "\r\n\r\n")
	if head < 0 {
		if len(b) > 64<<10 {
			return nil, 0, fmt.Errorf("httpd: header section too large")
		}
		return nil, 0, nil
	}
	lines := strings.Split(string(b[:head]), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, 0, fmt.Errorf("httpd: bad request line %q", lines[0])
	}
	req := &Request{Method: parts[0], Path: parts[1], Proto: parts[2], Headers: map[string]string{}}
	for _, l := range lines[1:] {
		i := strings.IndexByte(l, ':')
		if i < 0 {
			return nil, 0, fmt.Errorf("httpd: bad header %q", l)
		}
		req.Headers[strings.ToLower(strings.TrimSpace(l[:i]))] = strings.TrimSpace(l[i+1:])
	}
	total, err := messageEnd(b, head, req.Headers["content-length"])
	if err != nil || total == 0 {
		return nil, 0, err // malformed, or need the rest of the body
	}
	req.Body = append([]byte(nil), b[head+4:total]...)
	return req, total, nil
}

// messageEnd is where a message whose header section ends at head (the
// index of its blank line) ends in b, given its Content-Length header cl
// ("" for none): 0 while b does not yet hold the whole body, and an error
// for a length that is negative or not a number. The comparison cannot
// overflow, so no length a peer sends can cut b out of bounds.
func messageEnd(b []byte, head int, cl string) (int, error) {
	start, n := head+4, 0
	if cl != "" {
		var err error
		if n, err = strconv.Atoi(cl); err != nil || n < 0 {
			return 0, fmt.Errorf("httpd: bad content-length %q", cl)
		}
	}
	if n > len(b)-start {
		return 0, nil
	}
	return start + n, nil
}

// --- Client ---

// EncodeRequest serialises a request.
func EncodeRequest(r *Request) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", r.Method, r.Path)
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(r.Body))
	for k, v := range r.Headers {
		fmt.Fprintf(&b, "%s: %s\r\n", k, v)
	}
	b.WriteString("\r\n")
	return append([]byte(b.String()), r.Body...)
}

// ParseResponse parses one complete response from b, returning the
// response and bytes consumed. (nil, 0, nil) means more data is needed —
// the incremental contract clients drive their read loops with. It mirrors
// tryParseRequest for the client side.
func ParseResponse(b []byte) (*Response, int, error) {
	head := strings.Index(string(b), "\r\n\r\n")
	if head < 0 {
		return nil, 0, nil
	}
	lines := strings.Split(string(b[:head]), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 {
		return nil, 0, fmt.Errorf("httpd: bad status line %q", lines[0])
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, 0, fmt.Errorf("httpd: bad status %q", parts[1])
	}
	resp := &Response{Status: status, Headers: map[string]string{}}
	for _, l := range lines[1:] {
		i := strings.IndexByte(l, ':')
		if i < 0 {
			continue
		}
		resp.Headers[strings.ToLower(strings.TrimSpace(l[:i]))] = strings.TrimSpace(l[i+1:])
	}
	total, err := messageEnd(b, head, resp.Headers["content-length"])
	if err != nil || total == 0 {
		return nil, 0, err
	}
	resp.Body = append([]byte(nil), b[head+4:total]...)
	return resp, total, nil
}

// Client issues requests one at a time over an established keep-alive
// connection. It is callback-style and creates no promises of its own:
// lwt.NewPromise charges the guest heap model, so a promise per request
// would shift virtual time. The caller places its think time by deciding
// when to call Do again.
type Client struct {
	c   *tcp.Conn
	buf []byte // bytes read past the last parsed response
}

// NewClient wraps an established connection; the caller still owns Close.
func NewClient(c *tcp.Conn) *Client { return &Client{c: c} }

// Do writes req and calls then with its response, or with nil when the
// write fails, the response is malformed, or the peer closes or resets
// before a whole response arrives. After nil the connection is unusable.
func (cl *Client) Do(req *Request, then func(*Response)) {
	wr := cl.c.Write(EncodeRequest(req))
	lwt.Always(wr, func() {
		if wr.Failed() != nil {
			then(nil)
			return
		}
		cl.read(then)
	})
}

// read accumulates bytes until one complete response is buffered.
func (cl *Client) read(then func(*Response)) {
	if resp, n, err := ParseResponse(cl.buf); err != nil {
		then(nil)
		return
	} else if resp != nil {
		cl.buf = cl.buf[n:]
		then(resp)
		return
	}
	rd := cl.c.Read(64 << 10)
	lwt.Always(rd, func() {
		if rd.Failed() != nil || len(rd.Value()) == 0 {
			then(nil)
			return
		}
		cl.buf = append(cl.buf, rd.Value()...)
		cl.read(then)
	})
}

// Session issues reqs sequentially over one connection and resolves with
// the responses (the httperf session shape of §4.4).
func Session(s *lwt.Scheduler, stack *tcp.Stack, addr ipv4.Addr, port uint16, reqs []*Request) *lwt.Promise[[]*Response] {
	out := lwt.NewPromise[[]*Response](s)
	cn := stack.Connect(addr, port)
	lwt.Always(cn, func() {
		if err := cn.Failed(); err != nil {
			out.Fail(err)
			return
		}
		c := cn.Value()
		cl := NewClient(c)
		var responses []*Response
		var issue func(i int)
		issue = func(i int) {
			if i == len(reqs) {
				c.Close()
				out.Resolve(responses)
				return
			}
			cl.Do(reqs[i], func(resp *Response) {
				if resp == nil {
					c.Close()
					out.Fail(fmt.Errorf("httpd: session aborted at request %d", i))
					return
				}
				responses = append(responses, resp)
				issue(i + 1)
			})
		}
		issue(0)
	})
	return out
}
