package httpd

import (
	"fmt"
	"strconv"
	"strings"
)

// The reference codecs: the fmt/strings.Split implementations the copy-free
// ones replaced, kept unchanged but for their names and for the headers
// they parse into a local map, of which Request keeps only Close. The fuzz
// targets hold tryParseRequest, ParseResponse, EncodeRequest and
// Response.Encode to them.

func refTryParseRequest(b []byte) (*Request, int, error) {
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
	req := &Request{Method: parts[0], Path: parts[1]}
	h := map[string]string{}
	for _, l := range lines[1:] {
		i := strings.IndexByte(l, ':')
		if i < 0 {
			return nil, 0, fmt.Errorf("httpd: bad header %q", l)
		}
		h[strings.ToLower(strings.TrimSpace(l[:i]))] = strings.TrimSpace(l[i+1:])
	}
	c := strings.ToLower(h["connection"])
	if parts[2] == "HTTP/1.0" {
		req.Close = c != "keep-alive"
	} else {
		req.Close = c == "close"
	}
	total, err := refMessageEnd(b, head, h["content-length"])
	if err != nil || total == 0 {
		return nil, 0, err // malformed, or need the rest of the body
	}
	req.Body = append([]byte(nil), b[head+4:total]...)
	return req, total, nil
}

func refMessageEnd(b []byte, head int, cl string) (int, error) {
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

func refEncodeRequest(r *Request) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", r.Method, r.Path)
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(r.Body))
	if r.Close {
		b.WriteString("Connection: close\r\n")
	}
	b.WriteString("\r\n")
	return append([]byte(b.String()), r.Body...)
}

func refParseResponse(b []byte) (*Response, int, error) {
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
	resp := &Response{Status: status}
	h := map[string]string{}
	for _, l := range lines[1:] {
		i := strings.IndexByte(l, ':')
		if i < 0 {
			continue
		}
		h[strings.ToLower(strings.TrimSpace(l[:i]))] = strings.TrimSpace(l[i+1:])
	}
	total, err := refMessageEnd(b, head, h["content-length"])
	if err != nil || total == 0 {
		return nil, 0, err
	}
	resp.Body = append([]byte(nil), b[head+4:total]...)
	return resp, total, nil
}

func refEncodeResponse(r *Response) []byte {
	txt := statusText[r.Status]
	if txt == "" {
		txt = "Status"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", r.Status, txt)
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(r.Body))
	b.WriteString("\r\n")
	return append([]byte(b.String()), r.Body...)
}
