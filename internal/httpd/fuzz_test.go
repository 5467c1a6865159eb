package httpd

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// hostileLengths are messages whose head or body no buffer should hold or no
// parser here can frame: each once cut the buffer out of bounds, left the
// reader buffering until the peer closed, read a body as the next request,
// or framed the body by whichever of two differing lengths came last.
var hostileLengths = []struct {
	name     string
	response bool // parse with ParseResponse, else tryParseRequest
	msg      string
	wantErr  bool // malformed; else "need more data"
}{
	{"request/max-int64", false, "GET / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n", true},
	{"request/not-a-number", false, "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", true},
	{"request/max-body", false, "POST / HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n", false},
	{"request/chunked", false, "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", true},
	{"response/negative", true, "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n", true},
	{"response/max-int64", true, "HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\n", true},
	{"response/not-a-number", true, "HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n", true},
	{"request/two-lengths", false, "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde", true},
	{"response/two-lengths", true, "HTTP/1.1 200 OK\r\nContent-Length: 5\r\ncontent-length: 0\r\n\r\nhello", true},
	{"response/endless-header", true, "HTTP/1.1 200 OK\r\n" + strings.Repeat("X-Pad: y\r\n", maxHeader/10), true},
}

// TestHostileContentLength: a negative or unparsable length, one above
// maxBody, two that differ, a Transfer-Encoding, and a header section past
// maxHeader with no blank line are errors; a length up to maxBody beyond the
// buffered bytes asks for more data; none panics.
func TestHostileContentLength(t *testing.T) {
	for _, tc := range hostileLengths {
		t.Run(tc.name, func(t *testing.T) {
			var parsed bool
			var n int
			var err error
			if tc.response {
				var resp *Response
				resp, n, err = ParseResponse([]byte(tc.msg))
				parsed = resp != nil
			} else {
				var req *Request
				req, n, err = tryParseRequest([]byte(tc.msg))
				parsed = req != nil
			}
			if parsed || n != 0 || (err != nil) != tc.wantErr {
				t.Errorf("parsed=%v n=%d err=%v; want nothing parsed, n=0, error=%v", parsed, n, err, tc.wantErr)
			}
		})
	}
}

func fuzzSeeds(f *testing.F) {
	for _, tc := range hostileLengths {
		f.Add([]byte(tc.msg))
	}
	f.Add(EncodeRequest(&Request{Method: "POST", Path: "/x", Close: true, Body: []byte("hello")}))
	f.Add((&Response{Status: 404, Body: []byte("missing")}).Encode())
	f.Add([]byte("GET /a b HTTP/1.1\r\ncontent-LENGTH:  3 \r\nHost: x\r\nhost: y\r\n\r\nabcdef"))
	f.Add([]byte("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\nContent-Length: 1\r\ncontent-length: 1\r\n\r\na"))
	// strings.ToLower maps U+212A to k and U+0130 to i, so the reference
	// reads these as keep-alive and Transfer-Encoding.
	f.Add([]byte("GET / HTTP/1.0\r\nConnection: \u212aeep-al\u0130ve\r\n\r\n"))
	f.Add([]byte("POST / HTTP/1.1\r\nTransfer-Encod\u0130ng: x\r\n\r\n"))
}

// sameParse fails t unless a parser's result matches the reference's —
// every field, the bytes consumed and whether it erred —
// or the parser refused a message the reference framed and refusedFraming
// says why.
func sameParse(t *testing.T, b []byte, got any, n int, err error, want any, wantN int, wantErr error) {
	t.Helper()
	if err != nil && wantErr == nil && refusedFraming(b) {
		return
	}
	if (err != nil) != (wantErr != nil) || n != wantN || !reflect.DeepEqual(got, want) {
		t.Fatalf("parse of %q = %+v, %d, %v; reference %+v, %d, %v", b, got, n, err, want, wantN, wantErr)
	}
}

// refusedFraming reports whether b is a message only the reference would
// frame or await: a header section past maxHeader with no blank line (the
// reference response parser has no bound), or one that declares a
// Transfer-Encoding, two Content-Length values that differ, or a
// Content-Length above maxBody.
func refusedFraming(b []byte) bool {
	head := strings.Index(string(b), "\r\n\r\n")
	if head < 0 {
		return len(b) > maxHeader
	}
	h := map[string]string{}
	for _, l := range strings.Split(string(b[:head]), "\r\n")[1:] {
		if i := strings.IndexByte(l, ':'); i >= 0 {
			k, v := strings.ToLower(strings.TrimSpace(l[:i])), strings.TrimSpace(l[i+1:])
			if old, ok := h[k]; ok && k == "content-length" && old != v {
				return true
			}
			h[k] = v
		}
	}
	if _, ok := h["transfer-encoding"]; ok {
		return true
	}
	n, err := strconv.Atoi(h["content-length"])
	return err == nil && n > maxBody
}

// FuzzParseRequest: the request parser matches the reference, never panics,
// consumes no more than it was given, and what it accepts EncodeRequest
// writes back as the same method, path, Close and body.
func FuzzParseRequest(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		req, n, err := tryParseRequest(b)
		want, wantN, wantErr := refTryParseRequest(b)
		sameParse(t, b, req, n, err, want, wantN, wantErr)
		if err != nil || req == nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		enc := EncodeRequest(req)
		back, m, err := tryParseRequest(enc)
		if err != nil || back == nil || m != len(enc) {
			t.Fatalf("re-encoded request does not parse whole (%d of %d bytes): %v\n%q", m, len(enc), err, enc)
		}
		if back.Method != req.Method || back.Path != req.Path || back.Close != req.Close || !bytes.Equal(back.Body, req.Body) {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, back)
		}
	})
}

// FuzzParseResponse: the response parser matches the reference, never
// panics, consumes no more than it was given, and what it accepts
// Response.Encode writes back as the same status and body.
func FuzzParseResponse(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, n, err := ParseResponse(b)
		want, wantN, wantErr := refParseResponse(b)
		sameParse(t, b, resp, n, err, want, wantN, wantErr)
		if err != nil || resp == nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		enc := resp.Encode()
		back, m, err := ParseResponse(enc)
		if err != nil || back == nil || m != len(enc) {
			t.Fatalf("re-encoded response does not parse whole (%d of %d bytes): %v\n%q", m, len(enc), err, enc)
		}
		if back.Status != resp.Status || !bytes.Equal(back.Body, resp.Body) {
			t.Fatalf("round trip changed the response: %+v -> %+v", resp, back)
		}
	})
}

// FuzzEncode: both encoders write the reference's bytes for any method,
// path, status, body and Close.
func FuzzEncode(f *testing.F) {
	f.Add("GET", "/item/0042", 200, make([]byte, 512), false)
	f.Add("POST", "/x", 404, []byte("hello"), true)
	f.Add("", "", -7, []byte(nil), false)
	f.Fuzz(func(t *testing.T, method, path string, status int, body []byte, close bool) {
		req := &Request{Method: method, Path: path, Close: close, Body: body}
		if got, want := EncodeRequest(req), refEncodeRequest(req); !bytes.Equal(got, want) {
			t.Fatalf("EncodeRequest = %q, reference %q", got, want)
		}
		resp := &Response{Status: status, Body: body}
		if got, want := resp.Encode(), refEncodeResponse(resp); !bytes.Equal(got, want) {
			t.Fatalf("Encode = %q, reference %q", got, want)
		}
	})
}
