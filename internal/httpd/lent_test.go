package httpd

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/lwt"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// writeSteps writes parts to c 5 ms apart, so each arrives in its own
// segment and is taken by its own Read.
func writeSteps(s *lwt.Scheduler, c *tcp.Conn, parts [][]byte) *lwt.Promise[struct{}] {
	var step func(i int) *lwt.Promise[struct{}]
	step = func(i int) *lwt.Promise[struct{}] {
		if i == len(parts) {
			return lwt.Return(s, struct{}{})
		}
		c.Write(parts[i])
		return lwt.Bind(s.Sleep(5*time.Millisecond), func(struct{}) *lwt.Promise[struct{}] { return step(i + 1) })
	}
	return step(0)
}

// arrivals is one way to cut two encoded messages into what the peer sends.
type arrivals struct {
	name  string
	parts [][]byte
}

// splits cuts two encoded messages three ways: the first split across two
// reads, both in one read, and the first with the head of the second in one
// read. The cut falls inside the header section.
func splits(one, two []byte) []arrivals {
	const cut = 20
	cat := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }
	return []arrivals{
		{"split", [][]byte{one[:cut], one[cut:], two}},
		{"pipelined", [][]byte{cat(one, two)}},
		{"pipelined and split", [][]byte{cat(one, two[:cut]), two[cut:]}},
	}
}

// TestServerKeepsNoLentBytes: the server parses requests split across reads,
// pipelined in one read, or both, intact — and every parsed request still
// reads the same after the connection's later reads have returned the page
// it came in to the pool and later segments have been received into it.
// It fails if the server buffers a lent slice across a Read or a parsed
// Request aliases one.
func TestServerKeepsNoLentBytes(t *testing.T) {
	want := []*Request{
		{Method: "POST", Path: "/one", Body: []byte("body of the first request")},
		{Method: "PUT", Path: "/two", Body: []byte("the second body")},
	}
	for _, tc := range splits(EncodeRequest(want[0]), EncodeRequest(want[1])) {
		name, parts := tc.name, tc.parts
		var got []*Request
		k, sa, sta, _, serverIP := twoHosts(t, func(req *Request) *Response {
			got = append(got, req)
			return &Response{Status: 200}
		})
		k.Spawn("client", func(p *sim.Proc) {
			sa.Run(p, lwt.Bind(sta.Connect(serverIP, 80), func(c *tcp.Conn) *lwt.Promise[struct{}] {
				return lwt.Bind(writeSteps(sa, c, parts), func(struct{}) *lwt.Promise[struct{}] {
					return lwt.Map(sa.Sleep(50*time.Millisecond), func(struct{}) struct{} { c.Close(); return struct{}{} })
				})
			}))
		})
		if _, err := k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%s: the server parsed %d requests, want %d", name, len(got), len(want))
			continue
		}
		for i, r := range got {
			w := want[i]
			if r.Method != w.Method || r.Path != w.Path || r.Close || !bytes.Equal(r.Body, w.Body) {
				t.Errorf("%s: request %d reads %s %s close=%v body=%q after the run, want %s %s close=false body=%q",
					name, i, r.Method, r.Path, r.Close, r.Body, w.Method, w.Path, w.Body)
			}
		}
	}
}

// TestClientKeepsNoLentBytes is TestServerKeepsNoLentBytes for the client:
// responses split across reads, pipelined, or both, parse intact, and each
// Response.Body is unchanged after the connection's later reads.
func TestClientKeepsNoLentBytes(t *testing.T) {
	want := []*Response{
		{Status: 200, Body: []byte("body of the first response")},
		{Status: 201, Body: []byte("the second body")},
	}
	for _, tc := range splits(want[0].Encode(), want[1].Encode()) {
		name, parts := tc.name, tc.parts
		k, sa, sta, sb, stb := twoStacks()
		k.SpawnDaemon("peer", func(p *sim.Proc) {
			l, err := stb.Listen(80)
			if err != nil {
				t.Error(err)
				return
			}
			sb.Run(p, lwt.Bind(l.Accept(), func(c *tcp.Conn) *lwt.Promise[struct{}] {
				writeSteps(sb, c, parts)
				return lwt.NewPromise[struct{}](sb) // park
			}))
		})
		var got []*Response
		k.Spawn("client", func(p *sim.Proc) {
			sa.Run(p, lwt.Map(session(sa, sta, stb.LocalIP, 80, []*Request{
				{Method: "GET", Path: "/one"}, {Method: "GET", Path: "/two"},
			}), func(rs []*Response) struct{} { got = rs; return struct{}{} }))
		})
		if _, err := k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%s: the client parsed %d responses, want %d", name, len(got), len(want))
			continue
		}
		for i, r := range got {
			if r.Status != want[i].Status || !bytes.Equal(r.Body, want[i].Body) {
				t.Errorf("%s: response %d reads %d %q after the run, want %d %q", name, i, r.Status, r.Body, want[i].Status, want[i].Body)
			}
		}
	}
}
