package dns

import (
	"strconv"
	"time"
)

// The server's per-query virtual-CPU costs, calibrated against Figure 10
// (Mirage no-memo ≈ 40 kq/s; with memoization 75–80 kq/s). The handler also
// does the work for real; these constants translate it into simulated time.
const (
	parseCost   = 4 * time.Microsecond  // wire parse of the query
	lookupCost  = 5 * time.Microsecond  // zone lookup
	encodeCost  = 15 * time.Microsecond // response construction + label compression
	memoHitCost = 9 * time.Microsecond  // memo probe + cached response reuse
)

// Server is an authoritative DNS server over a zone.
type Server struct {
	Zone *Zone
	Memo *Memo // nil disables memoization
}

// NewServer creates a server; memoize enables the response cache.
func NewServer(z *Zone, memoize bool) *Server {
	s := &Server{Zone: z}
	if memoize {
		s.Memo = NewMemo(0)
	}
	return s
}

// Handle processes one query datagram and returns the response bytes plus
// the virtual CPU cost of producing it.
//
// A query whose answer is memoised is served from its own bytes (memoised):
// nothing is decoded into a Message. That is a host-side shortcut only — for
// any query bytes the response, the cost and the memo's Hits, Misses and
// recency order are exactly what parsing the query first (parsed) produces;
// FuzzHandle holds the two against each other.
func (s *Server) Handle(query []byte) ([]byte, time.Duration) {
	if body, ok := s.memoised(query); ok {
		return s.reply(body, query, parseCost+memoHitCost)
	}
	return s.parsed(query)
}

// memoised returns the memoised response body for a query that is exactly
// one well-formed question with its answer in the memo. It declines
// everything else, malformed queries included, so parsed stays the one place
// that reports an error or computes an answer; it touches the memo only on a
// hit.
func (s *Server) memoised(query []byte) ([]byte, bool) {
	if s.Memo == nil || len(query) < 12 ||
		be16(query, 4) != 1 || be16(query, 6)|be16(query, 8)|be16(query, 10) != 0 {
		return nil, false
	}
	// The memo key — name|type, as parsed builds it — on the stack.
	var key [maxNameLen + len("|65535")]byte
	n, off, err := gatherName((*[maxNameLen]byte)(key[:]), query, 12)
	if err != nil || off+4 > len(query) {
		return nil, false
	}
	k := append(key[:n], '|')
	k = strconv.AppendUint(k, uint64(be16(query, off)), 10)
	return s.Memo.Cached(k)
}

// parsed is Handle by way of ParseMessage: every query the memo cannot
// answer from its bytes alone.
func (s *Server) parsed(query []byte) ([]byte, time.Duration) {
	cost := parseCost
	m, err := ParseMessage(query)
	if err != nil || len(m.Questions) == 0 {
		return nil, cost
	}
	q := m.Questions[0]

	if s.Memo == nil {
		body, c := s.answer(q)
		return s.reply(body, query, cost+c)
	}
	memoKey := q.Name + "|" + strconv.Itoa(int(q.Type))
	hitsBefore := s.Memo.Hits
	body := s.Memo.Get(memoKey, func() []byte {
		resp, c := s.answer(q)
		cost += c
		return resp
	})
	if s.Memo.Hits > hitsBefore {
		cost += memoHitCost
	}
	return s.reply(body, query, cost)
}

// reply is a copy of the response body (it may be the memo's) with the
// query's transaction ID patched in. A nil body is an answer that could not
// be encoded: no reply goes out, now or on any later memo hit.
func (s *Server) reply(body, query []byte, cost time.Duration) ([]byte, time.Duration) {
	if body == nil {
		return nil, cost
	}
	out := append([]byte(nil), body...)
	out[0], out[1] = query[0], query[1]
	return out, cost
}

// answer builds the authoritative response (with zero ID; reply patches the
// real one in), nil when the zone holds a record that cannot be encoded.
func (s *Server) answer(q Question) ([]byte, time.Duration) {
	cost := lookupCost
	resp := Message{
		Flags:     FlagResponse | FlagAuthoritative,
		Questions: []Question{q},
	}
	rrs := s.Zone.Lookup(q.Name, q.Type)
	if len(rrs) == 0 {
		// CNAME chase (one level).
		if cn := s.Zone.Lookup(q.Name, TypeCNAME); len(cn) > 0 {
			resp.Answers = append(resp.Answers, cn...)
			rrs = s.Zone.Lookup(cn[0].Data, q.Type)
			cost += lookupCost
		}
	}
	resp.Answers = append(resp.Answers, rrs...)
	if len(resp.Answers) == 0 && !s.Zone.Exists(q.Name) {
		resp.Flags |= RcodeNameError
	}
	// NS records in the authority section, as BIND would return.
	if ns := s.Zone.Lookup(s.Zone.Origin, TypeNS); len(ns) > 0 {
		resp.Authority = append(resp.Authority, ns...)
		for _, n := range ns {
			resp.Additional = append(resp.Additional, s.Zone.Lookup(n.Data, TypeA)...)
		}
	}
	cost += encodeCost
	body, err := EncodeMessage(resp, NewTreeCompressor()) // size-first functional map (§4.2)
	if err != nil {
		return nil, cost
	}
	return body, cost
}

// EncodeQuery builds a query datagram for name/type.
func EncodeQuery(id uint16, name string, typ uint16) []byte {
	// Only a record's data can fail to encode, and a query carries none.
	b, _ := EncodeMessage(Message{
		ID:        id,
		Questions: []Question{{Name: name, Type: typ, Class: ClassIN}},
	}, nil)
	return b
}
