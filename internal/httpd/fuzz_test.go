package httpd

import (
	"bytes"
	"testing"
)

// hostileLengths are messages whose Content-Length no buffer can hold or no
// body can match: each once cut the buffer out of bounds.
var hostileLengths = []struct {
	name     string
	response bool // parse with ParseResponse, else tryParseRequest
	msg      string
	wantErr  bool // malformed; else "need more data"
}{
	{"request/max-int64", false, "GET / HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n", false},
	{"request/not-a-number", false, "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", true},
	{"response/negative", true, "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n", true},
	{"response/max-int64", true, "HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\n", false},
	{"response/not-a-number", true, "HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n", true},
}

// TestHostileContentLength: a negative or unparsable length is an error, and
// one beyond the buffered bytes asks for more data; neither panics.
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
	f.Add(EncodeRequest(&Request{Method: "POST", Path: "/x", Headers: map[string]string{"Host": "a"}, Body: []byte("hello")}))
	f.Add((&Response{Status: 404, Headers: map[string]string{"X-Test": "1"}, Body: []byte("missing")}).Encode())
}

// FuzzParseRequest: the request parser never panics, consumes no more than
// it was given, and what it accepts EncodeRequest writes back as the same
// method, path and body.
func FuzzParseRequest(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		req, n, err := tryParseRequest(b)
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
		if back.Method != req.Method || back.Path != req.Path || !bytes.Equal(back.Body, req.Body) {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, back)
		}
	})
}

// FuzzParseResponse: the response parser never panics, consumes no more than
// it was given, and what it accepts Response.Encode writes back as the same
// status and body.
func FuzzParseResponse(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, n, err := ParseResponse(b)
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
