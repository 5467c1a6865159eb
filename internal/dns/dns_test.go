package dns

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// mustEncode is EncodeMessage for messages that must encode.
func mustEncode(t testing.TB, m Message, comp Compressor) []byte {
	t.Helper()
	b, err := EncodeMessage(m, comp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMessageRoundTripUncompressed(t *testing.T) {
	in := Message{
		ID:        0x1234,
		Flags:     FlagResponse | FlagAuthoritative,
		Questions: []Question{{Name: "www.example.org", Type: TypeA, Class: ClassIN}},
		Answers:   []RR{{Name: "www.example.org", Type: TypeA, Class: ClassIN, TTL: 300, Data: "10.1.2.3"}},
		Authority: []RR{{Name: "example.org", Type: TypeNS, Class: ClassIN, TTL: 300, Data: "ns0.example.org"}},
	}
	out, err := ParseMessage(mustEncode(t, in, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Flags != in.Flags {
		t.Errorf("header mismatch: %+v", out)
	}
	if len(out.Answers) != 1 || out.Answers[0].Data != "10.1.2.3" {
		t.Errorf("answers = %+v", out.Answers)
	}
	if out.Authority[0].Data != "ns0.example.org" {
		t.Errorf("authority = %+v", out.Authority)
	}
}

func TestCompressionShrinksAndStaysParseable(t *testing.T) {
	m := Message{
		ID:        7,
		Flags:     FlagResponse,
		Questions: []Question{{Name: "a.very.long.subdomain.example.org", Type: TypeA, Class: ClassIN}},
	}
	for i := 0; i < 10; i++ {
		m.Answers = append(m.Answers, RR{
			Name: "a.very.long.subdomain.example.org", Type: TypeA, Class: ClassIN,
			TTL: 60, Data: fmt.Sprintf("10.0.0.%d", i),
		})
	}
	plain := mustEncode(t, m, nil)
	hash := mustEncode(t, m, NewHashCompressor())
	tree := mustEncode(t, m, NewTreeCompressor())
	if len(hash) >= len(plain) {
		t.Errorf("hash compression did not shrink: %d vs %d", len(hash), len(plain))
	}
	if len(tree) != len(hash) {
		t.Errorf("strategies disagree on size: tree=%d hash=%d", len(tree), len(hash))
	}
	for _, enc := range [][]byte{hash, tree} {
		out, err := ParseMessage(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Answers) != 10 || out.Answers[9].Name != "a.very.long.subdomain.example.org" {
			t.Errorf("compressed message lost answers: %+v", out.Answers)
		}
	}
}

// TestEncodedMessagesHoldNoSpareCapacity: an encoded message is exactly its
// length, in one allocation, so the memo's answers and a load generator's
// pre-encoded queries each pin their own bytes, not a 512-byte buffer.
func TestEncodedMessagesHoldNoSpareCapacity(t *testing.T) {
	resp := mustEncode(t, Message{
		ID:        1,
		Flags:     FlagResponse | FlagAuthoritative,
		Questions: []Question{{Name: "host-1.example.org", Type: TypeA, Class: ClassIN}},
		Answers:   []RR{{Name: "host-1.example.org", Type: TypeA, Class: ClassIN, TTL: 300, Data: "10.0.0.1"}},
	}, NewTreeCompressor())
	q := EncodeQuery(1, "host-1.example.org", TypeA)
	for name, b := range map[string][]byte{"EncodeMessage": resp, "EncodeQuery": q} {
		if cap(b) != len(b) {
			t.Errorf("%s: len %d, cap %d, want equal", name, len(b), cap(b))
		}
	}
	if n := testing.AllocsPerRun(100, func() { EncodeQuery(1, "host-1.example.org", TypeA) }); n != 1 {
		t.Errorf("EncodeQuery: %v allocations, want 1", n)
	}
}

func TestCompressionPointerLoopRejected(t *testing.T) {
	// 12-byte header + a name that points at itself.
	b := make([]byte, 16)
	b[4], b[5] = 0, 1 // one question
	b[12] = 0xC0
	b[13] = 12 // pointer to itself
	if _, err := ParseMessage(b); err == nil {
		t.Error("self-referential compression pointer accepted")
	}
}

func TestZoneParseBindFormat(t *testing.T) {
	z, err := ParseZone(`
$ORIGIN example.org.
$TTL 600
@       IN SOA ns0.example.org. hostmaster.example.org. 1 2 3 4 5
@       IN NS  ns0
ns0     IN A   10.0.0.53
www 300 IN A   10.0.0.80
alias   IN CNAME www.example.org.
txt     IN TXT "hello world"
`)
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin != "example.org" {
		t.Errorf("origin = %q", z.Origin)
	}
	if rr := z.Lookup("www.example.org", TypeA); len(rr) != 1 || rr[0].Data != "10.0.0.80" || rr[0].TTL != 300 {
		t.Errorf("www lookup = %+v", rr)
	}
	if rr := z.Lookup("ns0.example.org", TypeA); len(rr) != 1 {
		t.Errorf("relative name not qualified: %+v", rr)
	}
	if rr := z.Lookup("alias.example.org", TypeCNAME); len(rr) != 1 || rr[0].Data != "www.example.org" {
		t.Errorf("cname = %+v", rr)
	}
	if rr := z.Lookup("txt.example.org", TypeTXT); len(rr) != 1 || rr[0].Data != "hello world" {
		t.Errorf("txt = %+v", rr)
	}
	if rr := z.Lookup("example.org", TypeNS); len(rr) != 1 || rr[0].TTL != 600 {
		t.Errorf("NS with default TTL = %+v", rr)
	}
}

func TestZoneParseErrors(t *testing.T) {
	for _, bad := range []string{
		"$TTL abc",
		"www IN FROB data",
		"www IN",
	} {
		if _, err := ParseZone(bad); err == nil {
			t.Errorf("ParseZone(%q) succeeded", bad)
		}
	}
}

func TestServerAnswersQuery(t *testing.T) {
	z := SyntheticZone("example.org", 100)
	s := NewServer(z, false)
	q := EncodeQuery(42, "host-17.example.org", TypeA)
	resp, cost := s.Handle(q)
	if cost <= 0 {
		t.Error("no cost accrued")
	}
	m, err := ParseMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 42 {
		t.Errorf("response ID = %d, want 42", m.ID)
	}
	if m.Flags&FlagResponse == 0 || m.Flags&FlagAuthoritative == 0 {
		t.Errorf("flags = %#x", m.Flags)
	}
	if len(m.Answers) != 1 || m.Answers[0].Data != "10.0.0.17" {
		t.Errorf("answers = %+v", m.Answers)
	}
	if len(m.Authority) == 0 || len(m.Additional) == 0 {
		t.Error("missing authority/additional sections")
	}
}

func TestServerNameError(t *testing.T) {
	s := NewServer(SyntheticZone("example.org", 10), false)
	resp, _ := s.Handle(EncodeQuery(1, "nope.example.org", TypeA))
	m, err := ParseMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Flags&0xF != RcodeNameError {
		t.Errorf("rcode = %d, want NXDOMAIN", m.Flags&0xF)
	}
}

func TestServerCNAMEChase(t *testing.T) {
	z := NewZone("example.org")
	z.Add(RR{Name: "www.example.org", Type: TypeA, Data: "10.0.0.80"})
	z.Add(RR{Name: "alias.example.org", Type: TypeCNAME, Data: "www.example.org"})
	s := NewServer(z, false)
	resp, _ := s.Handle(EncodeQuery(1, "alias.example.org", TypeA))
	m, _ := ParseMessage(resp)
	if len(m.Answers) != 2 {
		t.Fatalf("answers = %+v, want CNAME + A", m.Answers)
	}
	if m.Answers[0].Type != TypeCNAME || m.Answers[1].Data != "10.0.0.80" {
		t.Errorf("chase failed: %+v", m.Answers)
	}
}

func TestMemoizationReducesCostAndPatchesID(t *testing.T) {
	s := NewServer(SyntheticZone("example.org", 1000), true)
	q1 := EncodeQuery(100, "host-5.example.org", TypeA)
	q2 := EncodeQuery(200, "host-5.example.org", TypeA)
	_, cold := s.Handle(q1)
	resp, warm := s.Handle(q2)
	if warm >= cold {
		t.Errorf("memo hit cost %v >= cold cost %v", warm, cold)
	}
	m, err := ParseMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 200 {
		t.Errorf("cached response ID = %d, want 200 (ID must be patched)", m.ID)
	}
	if s.Memo.Hits != 1 || s.Memo.Misses != 1 {
		t.Errorf("memo hits/misses = %d/%d", s.Memo.Hits, s.Memo.Misses)
	}
}

func TestTreeCompressorMatchesHashSemantics(t *testing.T) {
	// Property: both strategies produce byte-identical messages.
	f := func(hosts []uint8) bool {
		m := Message{ID: 1, Flags: FlagResponse}
		for _, h := range hosts {
			name := fmt.Sprintf("host-%d.sub.example.org", h%32)
			m.Answers = append(m.Answers, RR{Name: name, Type: TypeA, Class: ClassIN, TTL: 60, Data: "10.0.0.1"})
		}
		return string(mustEncode(t, m, NewHashCompressor())) == string(mustEncode(t, m, NewTreeCompressor()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSizeFirstOrderingAvoidsContentComparisons(t *testing.T) {
	// With many same-suffix names of distinct lengths, most ordering
	// tests are decided by length alone; the counter just proves the
	// custom ordering is exercised.
	tc := NewTreeCompressor()
	for i := 0; i < 100; i++ {
		tc.Store(strings.Repeat("a", i+1)+".example.org", i)
	}
	if tc.Comparisons == 0 {
		t.Error("no comparisons recorded")
	}
	if _, ok := tc.Lookup("aaa.example.org"); !ok {
		t.Error("stored name not found")
	}
	if _, ok := tc.Lookup("zzz.example.org"); ok {
		t.Error("absent name found")
	}
}

// Property: any query against a synthetic zone parses, and A queries for
// present hosts return exactly their address.
func TestPropSyntheticZoneLookups(t *testing.T) {
	z := SyntheticZone("bench.local", 4096)
	s := NewServer(z, false)
	f := func(h uint16) bool {
		i := int(h) % 4096
		resp, _ := s.Handle(EncodeQuery(h, fmt.Sprintf("host-%d.bench.local", i), TypeA))
		m, err := ParseMessage(resp)
		if err != nil || len(m.Answers) != 1 {
			return false
		}
		want := fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255)
		return m.Answers[0].Data == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// wireName is a name in wire form: labels given as length-prefixed strings.
func wireName(labels ...string) []byte {
	var b []byte
	for _, l := range labels {
		b = append(b, byte(len(l)))
		b = append(b, l...)
	}
	return append(b, 0)
}

// query is a header with the given counts followed by body.
func query(qd, an, ns, ar uint16, body ...byte) []byte {
	b := []byte{0xAB, 0xCD, 0, 0, byte(qd >> 8), byte(qd), byte(an >> 8), byte(an), byte(ns >> 8), byte(ns), byte(ar >> 8), byte(ar)}
	return append(b, body...)
}

// question is name + type A + class IN.
func question(name []byte) []byte { return append(name, 0, 1, 0, 1) }

// hostileQueries are the malformed datagrams the decoder must refuse, by the
// bound each one crosses.
func hostileQueries() map[string][]byte {
	longest := strings.Repeat("a", 63)
	return map[string][]byte{
		"short header":      {0, 1, 2},
		"over-long label":   query(1, 0, 0, 0, question(append([]byte{64}, strings.Repeat("a", 64)+"\x00"...))...),
		"reserved type 01":  query(1, 0, 0, 0, question([]byte{0x40 | 3, 'w', 'w', 'w', 0})...),
		"reserved type 10":  query(1, 0, 0, 0, question([]byte{0x80 | 3, 'w', 'w', 'w', 0})...),
		"256-octet name":    query(1, 0, 0, 0, question(wireName(longest, longest, longest, longest[:62]))...),
		"pointer loop":      query(1, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1),
		"forward pointer":   query(1, 0, 0, 0, 0xC0, 16, 0, 1, 0, 1, 3, 'w', 'w', 'w', 0),
		"truncated pointer": query(1, 0, 0, 0, 3, 'w', 'w', 'w', 0xC0),
		"truncated label":   query(1, 0, 0, 0, 5, 'w', 'w'),
		"truncated name":    query(1, 0, 0, 0, 3, 'w', 'w', 'w'),
		"truncated type":    query(1, 0, 0, 0, 3, 'w', 'w', 'w', 0, 0, 1),
		"question count":    query(3, 0, 0, 0, question(wireName("www"))...),
		"record count":      query(1, 0, 0, 0xFFFF, question(wireName("www"))...),
		"no question":       query(0, 0, 0, 0),
	}
}

func TestHostileQueriesRejected(t *testing.T) {
	for name, q := range hostileQueries() {
		if m, err := ParseMessage(q); err == nil && len(m.Questions) > 0 {
			t.Errorf("%s: ParseMessage accepted it: %+v", name, m)
		}
		// Through the server, memo off and on (the memoised path must refuse
		// exactly what the parser refuses).
		for _, memoize := range []bool{false, true} {
			s := NewServer(SyntheticZone("example.org", 4), memoize)
			s.Handle(EncodeQuery(1, "host-1.example.org", TypeA))
			resp, cost := s.Handle(q)
			if resp != nil || cost != parseCost {
				t.Errorf("%s (memo %v): response %x, cost %v", name, memoize, resp, cost)
			}
		}
	}
}

func TestNameLimitsAreExact(t *testing.T) {
	longest := strings.Repeat("a", 63)
	// 255 octets on the wire — 4 length octets, 250 label octets, the root —
	// is the longest legal name; hostileQueries holds the 256-octet one.
	name := wireName(longest, longest, longest, longest[:61])
	if len(name) != maxNameLen {
		t.Fatalf("test name is %d octets", len(name))
	}
	m, err := ParseMessage(query(1, 0, 0, 0, question(name)...))
	if err != nil {
		t.Fatalf("255-octet name refused: %v", err)
	}
	if got := m.Questions[0].Name; len(got) != maxNameLen-2 || got != strings.Join([]string{longest, longest, longest, longest[:61]}, ".") {
		t.Errorf("255-octet name parsed as %d characters: %q", len(got), got)
	}
	// Compression must not smuggle a longer name in: a 63-octet label in
	// front of a pointer to the 255-octet name.
	b := query(1, 1, 0, 0, question(name)...)
	b = append(b, 63)
	b = append(b, longest...)
	b = append(b, 0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 0, 0, 4, 1, 2, 3, 4)
	if _, err := ParseMessage(b); err == nil {
		t.Error("a compressed name expanding past 255 octets was accepted")
	}
}

func TestCaseFoldingIsASCIIOnly(t *testing.T) {
	// RFC 4343: only A–Z fold; every other octet, valid UTF-8 or not, is kept.
	label := "Ex\xc3\x80M\xffple"
	m, err := ParseMessage(query(1, 0, 0, 0, question(wireName("WWW", label))...))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Questions[0].Name, "www.ex\xc3\x80m\xffple"; got != want {
		t.Errorf("name = %q, want %q", got, want)
	}
	out, err := ParseMessage(mustEncode(t, m, nil))
	if err != nil || out.Questions[0].Name != m.Questions[0].Name {
		t.Errorf("re-encoded name = %q (%v)", out.Questions[0].Name, err)
	}
}

func TestARecordRoundTripsEveryOctet(t *testing.T) {
	for pos := 0; pos < 4; pos++ {
		for v := 0; v < 256; v++ {
			o := [4]byte{10, 20, 30, 40}
			o[pos] = byte(v)
			text := formatA(o)
			if want := fmt.Sprintf("%d.%d.%d.%d", o[0], o[1], o[2], o[3]); text != want {
				t.Fatalf("formatA(%v) = %q, want %q", o, text, want)
			}
			if back, ok := parseA(text); !ok || back != o {
				t.Fatalf("parseA(%q) = %v, %v", text, back, ok)
			}
			m := Message{Answers: []RR{{Name: "a.example.org", Type: TypeA, Class: ClassIN, TTL: 1, Data: text}}}
			out, err := ParseMessage(mustEncode(t, m, nil))
			if err != nil || out.Answers[0].Data != text {
				t.Fatalf("A %q came back as %+v (%v)", text, out.Answers, err)
			}
		}
	}
}

func TestMalformedARecordIsAnErrorNotAnAnswer(t *testing.T) {
	for _, bad := range []string{"", "1.2.3", "1.2.3.", "1.2.3.4.5", "1.2.3.256", "1..2.3", "01.2.3.4", "1.2.3.04", "+1.2.3.4", " 1.2.3.4", "1.2.3.4 ", "a.b.c.d", "1,2,3,4", "1.2.3.-4", "1.2.3.4\n"} {
		if o, ok := parseA(bad); ok {
			t.Errorf("parseA(%q) accepted as %v", bad, o)
		}
		m := Message{Answers: []RR{{Name: "a.example.org", Type: TypeA, Class: ClassIN, Data: bad}}}
		if b, err := EncodeMessage(m, nil); err == nil {
			t.Errorf("EncodeMessage of A %q succeeded: %x", bad, b)
		}
	}
	// Served: the query gets no reply, first computed and then from the
	// memo, instead of answering 1.2.3.0.
	z := NewZone("example.org")
	z.Add(RR{Name: "bad.example.org", Type: TypeA, Data: "1.2.3"})
	z.Add(RR{Name: "good.example.org", Type: TypeA, Data: "1.2.3.4"})
	for _, memoize := range []bool{false, true} {
		s := NewServer(z, memoize)
		for i := 1; i <= 2; i++ {
			if resp, _ := s.Handle(EncodeQuery(7, "bad.example.org", TypeA)); resp != nil {
				t.Errorf("memo %v: malformed A record served as %x (query %d)", memoize, resp, i)
			}
		}
		if resp, _ := s.Handle(EncodeQuery(8, "good.example.org", TypeA)); resp == nil {
			t.Errorf("memo %v: good record got no reply", memoize)
		}
	}
}

func TestCountsCannotReserveMoreThanTheDatagramHolds(t *testing.T) {
	// 65535 records promised by a 33-octet datagram: refused before the
	// parser sizes anything by that count.
	q := query(1, 0xFFFF, 0xFFFF, 0xFFFF, question(wireName("www", "example", "org"))...)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseMessage(q); err == nil {
			t.Fatal("accepted")
		}
	}); n > 2 { // the error value
		t.Errorf("refusing inflated counts allocated %v times", n)
	}
}

// benchResponse is the response the dns_udp workload's client parses: one
// question, one answer, the zone's NS record and its address.
func benchResponse(t testing.TB) []byte {
	z := NewZone("bench.example")
	z.Add(RR{Name: "bench.example", Type: TypeNS, Data: "ns0.bench.example"})
	z.Add(RR{Name: "ns0.bench.example", Type: TypeA, Data: "10.0.0.53"})
	z.Add(RR{Name: "host-1234.bench.example", Type: TypeA, Data: "10.0.4.210"})
	resp, _ := NewServer(z, true).Handle(EncodeQuery(9, "host-1234.bench.example", TypeA))
	m, err := ParseMessage(resp)
	if err != nil || len(m.Questions) != 1 || len(m.Answers) != 1 || len(m.Authority) != 1 || len(m.Additional) != 1 {
		t.Fatalf("bench response = %+v (%v)", m, err)
	}
	return resp
}

func TestAllocationBudgets(t *testing.T) {
	resp := benchResponse(t)
	// Two slices (questions, one array for the three record sections) and
	// seven strings (four names, two addresses, one NS target).
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ParseMessage(resp); err != nil {
			t.Fatal(err)
		}
	}); n > 9 {
		t.Errorf("ParseMessage of a 1Q+1AN+1NS+1AR response: %v allocations, budget 9", n)
	}

	s := NewServer(SyntheticZone("example.org", 100), true)
	q := EncodeQuery(3, "Host-42.Example.ORG", TypeA)
	s.Handle(q)
	if n := testing.AllocsPerRun(200, func() {
		if resp, _ := s.Handle(q); resp == nil {
			t.Fatal("no response")
		}
	}); n > 1 {
		t.Errorf("memo-hit Handle: %v allocations, budget 1 (the response copy)", n)
	}
}
