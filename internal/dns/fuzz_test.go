package dns

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fuzzSeeds is the unit tests' corpus: every hostile datagram, plus
// well-formed queries and responses of each shape the codec knows.
func fuzzSeeds(f *testing.F) {
	for _, q := range hostileQueries() {
		f.Add(q)
	}
	f.Add(EncodeQuery(1, "host-1.example.org", TypeA))
	f.Add(EncodeQuery(2, "HOST-2.Example.Org.", TypeA))
	f.Add(EncodeQuery(3, "nope.example.org", TypeTXT))
	f.Add(EncodeQuery(4, "", TypeNS))
	f.Add(benchResponse(f))
	// Two questions, the second compressed against the first.
	f.Add(query(2, 0, 0, 0, append(question(wireName("host-1", "example", "org")), 3, 'w', 'w', 'w', 0xC0, 19, 0, 1, 0, 1)...))
	// A question with an EDNS-style additional record behind it.
	f.Add(query(1, 0, 0, 1, append(question(wireName("host-3", "example", "org")), 0, 0, 41, 16, 0, 0, 0, 0, 0, 0, 0)...))
	f.Add(mustEncode(f, Message{
		ID: 5, Flags: FlagResponse,
		Questions: []Question{{Name: "alias.example.org", Type: TypeA, Class: ClassIN}},
		Answers: []RR{
			{Name: "alias.example.org", Type: TypeCNAME, Class: ClassIN, TTL: 60, Data: "www.example.org"},
			{Name: "www.example.org", Type: TypeA, Class: ClassIN, TTL: 60, Data: "10.0.0.80"},
			{Name: "www.example.org", Type: TypeTXT, Class: ClassIN, TTL: 60, Data: "hello world"},
		},
	}, NewTreeCompressor()))
}

// reencodable reports whether the encoder can reproduce m. The text form of
// a name cannot say that a label holds a dot, so such a name is the parser's
// to accept but re-encodes as different labels — possibly an empty one, or
// more than the decoder's hop bound lets a compressed name have.
func reencodable(m Message) bool {
	ok := func(name string) bool {
		if name == "" {
			return true
		}
		labels := strings.Split(name, ".")
		for _, l := range labels {
			if l == "" {
				return false
			}
		}
		return len(labels) <= 32
	}
	for _, q := range m.Questions {
		if !ok(q.Name) {
			return false
		}
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if !ok(rr.Name) || ((rr.Type == TypeNS || rr.Type == TypeCNAME) && !ok(rr.Data)) {
				return false
			}
		}
	}
	return true
}

// FuzzParseMessage: the decoder never panics, and whatever it accepts the
// encoder writes back as a message that decodes to the same value, under
// every compression strategy.
func FuzzParseMessage(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := ParseMessage(b)
		if err != nil || !reencodable(m) {
			return
		}
		for _, comp := range []Compressor{nil, NewHashCompressor(), NewTreeCompressor()} {
			enc, err := EncodeMessage(m, comp)
			if err != nil {
				t.Fatalf("parsed message does not encode: %v\n%+v", err, m)
			}
			back, err := ParseMessage(enc)
			if err != nil {
				t.Fatalf("re-encoded message does not parse: %v\n%+v\n%x", err, m, enc)
			}
			if !reflect.DeepEqual(m, back) {
				t.Fatalf("round trip changed the message:\n%+v\n%+v", m, back)
			}
		}
	})
}

// FuzzHandle holds the server's memoised path against the parsed path: for
// arbitrary query bytes, interleaved with good queries over a two-entry memo
// so that hits, misses and recency all matter, both return the same bytes
// and cost and leave the same counters behind.
func FuzzHandle(f *testing.F) {
	fuzzSeeds(f)
	zone := SyntheticZone("example.org", 8)
	zone.Add(RR{Name: "bad.example.org", Type: TypeA, Data: "1.2.3"})
	f.Add(EncodeQuery(6, "bad.example.org", TypeA))
	f.Fuzz(func(t *testing.T, b []byte) {
		server := func() *Server {
			s := NewServer(zone, true)
			s.Memo = NewMemo(2)
			return s
		}
		fast, ref := server(), server()
		for step, q := range [][]byte{
			EncodeQuery(1, "host-1.example.org", TypeA), b, b,
			EncodeQuery(2, "host-2.example.org", TypeA), b,
			EncodeQuery(3, "host-1.example.org", TypeA),
		} {
			resp, cost := fast.Handle(q)
			wantResp, wantCost := ref.parsed(q)
			if !bytes.Equal(resp, wantResp) || (resp == nil) != (wantResp == nil) || cost != wantCost {
				t.Fatalf("step %d: Handle = %x, %v; parsed = %x, %v", step, resp, cost, wantResp, wantCost)
			}
			if memoStats(fast) != memoStats(ref) {
				t.Fatalf("step %d: memo differs: Handle %+v, parsed %+v", step, memoStats(fast), memoStats(ref))
			}
		}
	})
}

func memoStats(s *Server) [3]int {
	return [3]int{s.Memo.Hits, s.Memo.Misses, s.Memo.Len()}
}
