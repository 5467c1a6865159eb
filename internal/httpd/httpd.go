// Package httpd implements an HTTP/1.1 server and client library over the
// clean-slate TCP stack (paper Table 1, §4.4): request parsing from the
// byte stream, keep-alive connections, and Content-Length bodies. Like
// everything in a unikernel it is a library linked with the application;
// the handler runs in the same address space with no userspace copy. The
// parsers act on Content-Length, Transfer-Encoding (refused) and Connection
// (Request.Close), and skip every other header where it lies.
package httpd

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Request is a parsed HTTP request.
type Request struct {
	Method string
	Path   string
	// Close ends the connection after the response: Connection: close on
	// HTTP/1.1, no Connection: keep-alive on HTTP/1.0.
	Close bool
	Body  []byte
}

// KeepAlive reports whether the connection should persist.
func (r *Request) KeepAlive() bool { return !r.Close }

// Response is an HTTP response.
type Response struct {
	Status int
	Body   []byte
}

// statusText covers the statuses the appliances use.
var statusText = map[int]string{
	200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error",
}

// Encode serialises the response into one allocation.
func (r *Response) Encode() []byte {
	txt := statusText[r.Status]
	if txt == "" {
		txt = "Status"
	}
	b := make([]byte, 0, len("HTTP/1.1 ")+maxIntLen+1+len(txt)+2+encodedLen(false, r.Body))
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(r.Status), 10)
	b = append(b, ' ')
	b = append(b, txt...)
	b = append(b, "\r\n"...)
	return appendMessage(b, false, r.Body)
}

// maxIntLen is the longest decimal int, sign included.
const maxIntLen = 20

const connClose = "Connection: close\r\n"

// encodedLen bounds what appendMessage adds.
func encodedLen(closing bool, body []byte) int {
	n := len("Content-Length: \r\n\r\n") + maxIntLen + len(body)
	if closing {
		n += len(connClose)
	}
	return n
}

// appendMessage appends everything after the request or status line: the
// Content-Length header, Connection: close if closing, the blank line and
// the body.
func appendMessage(b []byte, closing bool, body []byte) []byte {
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n"...)
	if closing {
		b = append(b, connClose...)
	}
	b = append(b, "\r\n"...)
	return append(b, body...)
}

// Handler produces a response for a request.
type Handler func(*Request) *Response

// AsyncHandler produces a response via a promise — for handlers that touch
// storage or other appliances (the §4.4 dynamic web appliance reads its
// B-tree through the block API).
type AsyncHandler func(*Request) *lwt.Promise[*Response]

// The server's per-request virtual-CPU costs (calibrated for §4.4: the
// unikernel appliance becomes CPU-bound around 800 requests/s only because
// of its application logic; the HTTP layer itself is cheap).
const (
	parseCost   = 8 * time.Microsecond  // request parse
	respondCost = 10 * time.Microsecond // response construction, before any application work
)

// Server serves HTTP over TCP listeners. Exactly one of Handler or
// HandlerAsync must be set.
type Server struct {
	S            *lwt.Scheduler
	Handler      Handler
	HandlerAsync AsyncHandler
	// RespondCost is the per-response virtual-CPU cost: the HTTP layer's,
	// plus whatever application work the embedder adds.
	RespondCost time.Duration
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
	return &Server{S: s, Handler: h, RespondCost: respondCost}
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
//
// It also holds the request loop's state, one request at a time: the bytes
// read past the last request, the request being served and its start, the
// promises in flight, and the loop's continuations, bound once per
// connection so a request allocates none of its own.
type servedConn struct {
	srv      *Server
	c        *tcp.Conn
	busy     bool // a request is being read-completed/handled/responded
	closed   bool
	deadline sim.Time
	tickLive bool

	buf    []byte
	out    *lwt.Promise[*Request] // the next request, nil on EOF or malformed input
	rd     *lwt.Promise[[]byte]
	req    *Request
	start  sim.Time
	answer *lwt.Promise[*Response] // HandlerAsync's
	resp   *Response

	onRequest func(*Request) struct{}
	onRead    func()
	onHandled func()
	onWritten func(int) struct{}
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
		k.AtArg(sc.deadline, tickEvent, sc, 0)
	}
}

// tickEvent is the idle timer's kernel event; its argument is the
// *servedConn.
func tickEvent(conn any, _ uint64) {
	sc := conn.(*servedConn)
	sc.tickLive = false
	if sc.closed || sc.busy {
		return // a request arrived; touch() re-arms when it finishes
	}
	k := sc.srv.S.K
	if k.Now() < sc.deadline {
		sc.tickLive = true
		k.AtArg(sc.deadline, tickEvent, sc, 0)
		return
	}
	sc.close()
}

// close tears the connection down exactly once.
func (sc *servedConn) close() {
	if sc.closed {
		return
	}
	sc.closed = true
	sc.c.Close()
	sc.srv.finish()
}

// finish retires a connection from the server's books, resolving a pending
// drain when the last one goes.
func (srv *Server) finish() {
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
	sc.onRequest, sc.onRead, sc.onWritten = sc.request, sc.read, sc.written
	if srv.HandlerAsync != nil {
		sc.onHandled = sc.handled
	}
	sc.next()
}

// next waits for the connection's next request.
func (sc *servedConn) next() {
	sc.busy = false
	sc.touch()
	lwt.Map(sc.readRequest(), sc.onRequest)
}

// request serves one request: it charges the parse and hands the request to
// the handler.
func (sc *servedConn) request(req *Request) struct{} {
	if req == nil || sc.closed { // EOF, parse failure, or idle-reaped
		sc.close()
		return struct{}{}
	}
	srv := sc.srv
	sc.busy = true
	sc.req, sc.start = req, srv.S.K.Now()
	srv.Requests++
	srv.charge(parseCost)
	if srv.HandlerAsync != nil {
		sc.answer = srv.HandlerAsync(req)
		lwt.Always(sc.answer, sc.onHandled)
	} else {
		sc.respond(srv.Handler(req))
	}
	return struct{}{}
}

// handled takes HandlerAsync's answer, a 500 if it failed.
func (sc *servedConn) handled() {
	pr := sc.answer
	sc.answer = nil
	if pr.Failed() != nil {
		sc.respond(&Response{Status: 500})
	} else {
		sc.respond(pr.Value())
	}
}

// respond charges the response and writes it once the charged CPU work (and
// any backlog ahead of it) is done.
func (sc *servedConn) respond(resp *Response) {
	if resp == nil {
		resp = &Response{Status: 500}
	}
	sc.resp = resp
	k := sc.srv.S.K
	if end := sc.srv.charge(sc.srv.RespondCost); end > k.Now() {
		k.AtArg(end, writeEvent, sc, 0)
	} else {
		sc.write()
	}
}

// writeEvent is respond's deferred write; its argument is the *servedConn.
func writeEvent(conn any, _ uint64) { conn.(*servedConn).write() }

func (sc *servedConn) write() {
	resp := sc.resp
	sc.resp = nil
	lwt.Map(sc.c.Write(resp.Encode()), sc.onWritten)
}

// written books the finished request and keeps the connection alive or
// closes it.
func (sc *servedConn) written(int) struct{} {
	srv := sc.srv
	srv.responded(sc.start)
	srv.traceRequest(sc.c, sc.start)
	req := sc.req
	sc.req = nil
	if req.KeepAlive() && !srv.draining && !sc.closed {
		sc.next()
	} else {
		sc.close()
	}
	return struct{}{}
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
	service := parseCost + srv.RespondCost
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
func (sc *servedConn) readRequest() *lwt.Promise[*Request] {
	sc.out = lwt.NewPromise[*Request](sc.srv.S)
	sc.parse(sc.buf)
	return sc.out
}

// parse resolves sc.out from b, or reads more. b is the buffered bytes, or
// the bytes a Read just lent when nothing was buffered: those are valid only
// until the next Read, so whatever parse leaves unparsed it copies into
// sc.buf, the connection's own buffer, reused from request to request. A
// parsed Request shares no bytes with b.
func (sc *servedConn) parse(b []byte) {
	req, n, err := tryParseRequest(b)
	switch {
	case err != nil:
		sc.out.Resolve(nil)
	case req != nil:
		sc.buf = append(sc.buf[:0], b[n:]...)
		sc.out.Resolve(req)
	default:
		sc.buf = append(sc.buf[:0], b...)
		sc.rd = sc.c.Read(64 << 10)
		lwt.Always(sc.rd, sc.onRead)
	}
}

// read takes a completed Read: parsed in place when nothing is buffered,
// appended to the buffer otherwise.
func (sc *servedConn) read() {
	rd := sc.rd
	sc.rd = nil
	if rd.Failed() != nil {
		sc.out.Resolve(nil) // reset mid-request
		return
	}
	data := rd.Value()
	if len(data) == 0 {
		sc.out.Resolve(nil) // EOF
		return
	}
	if len(sc.buf) > 0 {
		sc.buf = append(sc.buf, data...)
		data = sc.buf
	}
	sc.parse(data)
}

// A message may make its reader buffer at most a header section of
// maxHeader bytes and a declared body of maxBody: past either the message is
// refused, not awaited.
const (
	maxHeader = 64 << 10
	maxBody   = 1 << 20
)

var crlf, crlfcrlf = []byte("\r\n"), []byte("\r\n\r\n")

// headEnd returns where the blank line that ends b's header section starts,
// or -1 while b holds no blank line yet. Past maxHeader bytes with none the
// message is refused: requests and responses share this one bound.
func headEnd(b []byte) (int, error) {
	head := bytes.Index(b, crlfcrlf)
	if head < 0 && len(b) > maxHeader {
		return -1, fmt.Errorf("httpd: header section too large")
	}
	return head, nil
}

// tryParseRequest parses a complete request from b, returning (req, bytes
// consumed). It returns (nil, 0, nil) when more data is needed. Only the
// request line becomes a string; method and path are substrings of it.
func tryParseRequest(b []byte) (*Request, int, error) {
	head, err := headEnd(b)
	if head < 0 {
		return nil, 0, err
	}
	start, fields, _ := bytes.Cut(b[:head], crlf)
	line := string(start)
	method, tail, ok1 := strings.Cut(line, " ")
	path, proto, ok2 := strings.Cut(tail, " ")
	if !ok1 || !ok2 || !strings.HasPrefix(proto, "HTTP/") {
		return nil, 0, fmt.Errorf("httpd: bad request line %q", line)
	}
	total, conn, err := frame(b, head, fields, true)
	if err != nil || total == 0 {
		return nil, 0, err // malformed, or need the rest of the body
	}
	closing := lowerIs(conn, "close") || proto == "HTTP/1.0" && !lowerIs(conn, "keep-alive")
	return &Request{Method: method, Path: path, Close: closing, Body: append([]byte(nil), b[head+4:total]...)}, total, nil
}

// frame scans, in place, the header lines (fields) of a message whose header
// section ends at head in b, and returns where the message ends (0 while b
// lacks some of the body) and the last Connection value. strict refuses a
// line with no colon. Only Content-Length bodies are framed: a
// Transfer-Encoding, two lengths that differ (RFC 9112 §6.3), or a length
// that is negative, not a number or above maxBody, is an error. The
// comparison cannot overflow, so no length can cut b out of bounds.
func frame(b []byte, head int, fields []byte, strict bool) (total int, conn []byte, err error) {
	var length []byte
	hasLength := false
	for len(fields) > 0 {
		var l []byte
		l, fields, _ = bytes.Cut(fields, crlf)
		i := bytes.IndexByte(l, ':')
		if i < 0 {
			if strict {
				return 0, nil, fmt.Errorf("httpd: bad header %q", l)
			}
			continue
		}
		name, value := bytes.TrimSpace(l[:i]), bytes.TrimSpace(l[i+1:])
		switch {
		case lowerIs(name, "content-length"):
			if hasLength && !bytes.Equal(length, value) {
				return 0, nil, fmt.Errorf("httpd: content-length %q and %q differ", length, value)
			}
			length, hasLength = value, true
		case lowerIs(name, "transfer-encoding"):
			return 0, nil, fmt.Errorf("httpd: transfer-encoding %q not supported", value)
		case lowerIs(name, "connection"):
			conn = value
		}
	}
	n := 0
	if len(length) > 0 {
		// string(length) does not escape Atoi, so it is not allocated.
		if n, err = strconv.Atoi(string(length)); err != nil || n < 0 || n > maxBody {
			return 0, nil, fmt.Errorf("httpd: bad content-length %q", length)
		}
	}
	if n > len(b)-head-4 {
		return 0, nil, nil
	}
	return head + 4 + n, conn, nil
}

// lowerIs reports whether strings.ToLower(string(b)) == s for an ASCII
// lower-case s (so U+0130 matches i, U+212A k), without building the string.
func lowerIs(b []byte, s string) bool {
	for _, c := range s {
		r, n := utf8.DecodeRune(b)
		if unicode.ToLower(r) != c {
			return false
		}
		b = b[n:]
	}
	return len(b) == 0
}

// --- Client ---

// EncodeRequest serialises a request into one allocation.
func EncodeRequest(r *Request) []byte {
	b := make([]byte, 0, len(r.Method)+1+len(r.Path)+len(" HTTP/1.1\r\n")+encodedLen(r.Close, r.Body))
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Path...)
	b = append(b, " HTTP/1.1\r\n"...)
	return appendMessage(b, r.Close, r.Body)
}

// ParseResponse parses one complete response from b, returning the
// response and bytes consumed. (nil, 0, nil) means more data is needed —
// the incremental contract clients drive their read loops with. It mirrors
// tryParseRequest for the client side, with the same maxHeader and maxBody
// refusals, and reads the status from the bytes.
func ParseResponse(b []byte) (*Response, int, error) {
	head, err := headEnd(b)
	if head < 0 {
		return nil, 0, err
	}
	line, fields, _ := bytes.Cut(b[:head], crlf)
	_, tail, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return nil, 0, fmt.Errorf("httpd: bad status line %q", line)
	}
	code, _, _ := bytes.Cut(tail, []byte(" "))
	status, err := strconv.Atoi(string(code))
	if err != nil {
		return nil, 0, fmt.Errorf("httpd: bad status %q", code)
	}
	total, _, err := frame(b, head, fields, false)
	if err != nil || total == 0 {
		return nil, 0, err
	}
	return &Response{Status: status, Body: append([]byte(nil), b[head+4:total]...)}, total, nil
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
		cl.read(cl.buf, then)
	})
}

// read calls then with the response in b (the buffered bytes, or a fresh
// Read's), or reads more. As in servedConn.parse, b may be bytes a Read
// lent, so whatever is left unparsed is copied into cl.buf, which the client
// reuses.
func (cl *Client) read(b []byte, then func(*Response)) {
	resp, n, err := ParseResponse(b)
	switch {
	case err != nil:
		then(nil)
	case resp != nil:
		cl.buf = append(cl.buf[:0], b[n:]...)
		then(resp)
	default:
		cl.buf = append(cl.buf[:0], b...)
		rd := cl.c.Read(64 << 10)
		lwt.Always(rd, func() {
			if rd.Failed() != nil || len(rd.Value()) == 0 {
				then(nil)
				return
			}
			data := rd.Value()
			if len(cl.buf) > 0 {
				cl.buf = append(cl.buf, data...)
				data = cl.buf
			}
			cl.read(data, then)
		})
	}
}

// Session runs one keep-alive session (the httperf session of §4.4) on st
// to addr:port. Once connected it issues req(0), req(1), … one at a time
// until req returns nil, and hands each response to answered with next,
// which issues the following request: the caller places its think time by
// choosing when to call it. done runs once, after the connection is closed
// or has failed, with whether every request was answered. Like Client it
// creates no promise of its own.
func Session(st *tcp.Stack, addr ipv4.Addr, port uint16, req func(i int) *Request,
	answered func(i int, resp *Response, next func()), done func(ok bool)) {
	cn := st.Connect(addr, port)
	lwt.Always(cn, func() {
		if cn.Failed() != nil {
			done(false)
			return
		}
		c := cn.Value()
		cl := NewClient(c)
		var issue func(i int)
		issue = func(i int) {
			r := req(i)
			if r == nil {
				c.Close()
				done(true)
				return
			}
			cl.Do(r, func(resp *Response) {
				if resp == nil {
					c.Close()
					done(false)
					return
				}
				answered(i, resp, func() { issue(i + 1) })
			})
		}
		issue(0)
	})
}
