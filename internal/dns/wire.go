// Package dns implements an authoritative DNS server library (paper §4.2):
// wire-format encoding and parsing, Bind9-master-format zone files, label
// compression with two interchangeable strategies (a naive mutable
// hashtable and the size-first ordered functional map that gave a ~20%
// speedup and resists hash-collision denial of service), and optional
// memoization of responses — the 20-line change that took the Mirage DNS
// appliance from ~40 k to 75–80 k queries/s.
package dns

import (
	"fmt"
	"strconv"
	"strings"
)

// Record types.
const (
	TypeA     uint16 = 1
	TypeNS    uint16 = 2
	TypeCNAME uint16 = 5
	TypeSOA   uint16 = 6
	TypeTXT   uint16 = 16
)

// ClassIN is the Internet class.
const ClassIN uint16 = 1

// Flags in the header's second 16-bit word.
const (
	FlagResponse      uint16 = 1 << 15
	FlagAuthoritative uint16 = 1 << 10
	RcodeNameError    uint16 = 3
)

// Question is one DNS question.
type Question struct {
	Name  string // fully qualified, lower case, no trailing dot
	Type  uint16
	Class uint16
}

// RR is a resource record.
type RR struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	// Data holds the record value: an IPv4 string for A, a domain name
	// for NS/CNAME, text for TXT.
	Data string
}

// Message is a DNS message.
type Message struct {
	ID         uint16
	Flags      uint16
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Wire-format limits (RFC 1035 §2.3.4): a label is at most 63 octets — the
// two high bits of its length octet select the label type, 00 for a plain
// label and 11 for a compression pointer, 01 and 10 reserved (§4.1.4) — and a
// whole name at most 255, counting every length octet and the root label.
const (
	maxLabelLen = 63
	maxNameLen  = 255
)

// A question is at least a root name, a type and a class; a record at least
// a root name and the ten fixed octets before its rdata.
const (
	minQuestionLen = 5
	minRRLen       = 11
)

// ParseMessage decodes a wire-format message.
func ParseMessage(b []byte) (Message, error) {
	if len(b) < 12 {
		return Message{}, fmt.Errorf("dns: message too short")
	}
	var m Message
	m.ID = be16(b, 0)
	m.Flags = be16(b, 2)
	qd, an, ns, ar := int(be16(b, 4)), int(be16(b, 6)), int(be16(b, 8)), int(be16(b, 10))
	// The counts size what is reserved below, so a header that promises more
	// than the datagram could hold is refused first.
	rrs := an + ns + ar
	if 12+qd*minQuestionLen+rrs*minRRLen > len(b) {
		return Message{}, fmt.Errorf("dns: section counts exceed the message")
	}
	off := 12
	var err error
	if qd > 0 {
		m.Questions = make([]Question, qd)
	}
	for i := range m.Questions {
		q := &m.Questions[i]
		q.Name, off, err = parseName(b, off)
		if err != nil {
			return Message{}, err
		}
		if off+4 > len(b) {
			return Message{}, fmt.Errorf("dns: truncated question")
		}
		q.Type, q.Class = be16(b, off), be16(b, off+2)
		off += 4
	}
	if rrs == 0 {
		return m, nil
	}
	// One backing array for the three record sections, each capped so an
	// append to one cannot reach into the next.
	all := make([]RR, rrs)
	for i := range all {
		off, err = parseRR(b, off, &all[i])
		if err != nil {
			return Message{}, err
		}
	}
	if an > 0 {
		m.Answers = all[:an:an]
	}
	if ns > 0 {
		m.Authority = all[an : an+ns : an+ns]
	}
	if ar > 0 {
		m.Additional = all[an+ns:]
	}
	return m, nil
}

func be16(b []byte, i int) uint16 { return uint16(b[i])<<8 | uint16(b[i+1]) }

// parseName decodes a possibly-compressed domain name: lower case, labels
// joined by dots, no trailing dot. It returns the offset just past the name
// where it stood in the message.
func parseName(b []byte, off int) (string, int, error) {
	var buf [maxNameLen]byte
	n, end, err := gatherName(&buf, b, off)
	if err != nil {
		return "", 0, err
	}
	return string(buf[:n]), end, nil
}

// gatherName is parseName into a caller's buffer, so that a name costs its
// reader one allocation or none: it returns the name's length in dst. Case
// is folded as RFC 4343 defines it for DNS — the ASCII letters only, every
// other octet kept as it is.
func gatherName(dst *[maxNameLen]byte, b []byte, off int) (n, end int, err error) {
	jumped := false
	end = off
	wire := 1 // octets the name takes uncompressed: the root label so far
	for hops := 0; ; hops++ {
		if hops > 64 {
			return 0, 0, fmt.Errorf("dns: compression loop")
		}
		if off >= len(b) {
			return 0, 0, fmt.Errorf("dns: truncated name")
		}
		l := int(b[off])
		switch {
		case l == 0:
			if !jumped {
				end = off + 1
			}
			return n, end, nil
		case l&0xC0 == 0xC0:
			if off+1 >= len(b) {
				return 0, 0, fmt.Errorf("dns: truncated pointer")
			}
			ptr := (l&0x3F)<<8 | int(b[off+1])
			if !jumped {
				end = off + 2
				jumped = true
			}
			if ptr >= off {
				return 0, 0, fmt.Errorf("dns: forward pointer")
			}
			off = ptr
		case l > maxLabelLen:
			return 0, 0, fmt.Errorf("dns: reserved label type %#x", l&0xC0)
		default:
			if off+1+l > len(b) {
				return 0, 0, fmt.Errorf("dns: label overruns message")
			}
			if wire += 1 + l; wire > maxNameLen {
				return 0, 0, fmt.Errorf("dns: name longer than %d octets", maxNameLen)
			}
			if n > 0 {
				dst[n] = '.'
				n++
			}
			for _, c := range b[off+1 : off+1+l] {
				dst[n] = lowerASCII(c)
				n++
			}
			off += 1 + l
		}
	}
}

// parseRR decodes the record at off into rr and returns the offset past it.
func parseRR(b []byte, off int, rr *RR) (int, error) {
	var err error
	rr.Name, off, err = parseName(b, off)
	if err != nil {
		return 0, err
	}
	if off+10 > len(b) {
		return 0, fmt.Errorf("dns: truncated RR")
	}
	rr.Type = be16(b, off)
	rr.Class = be16(b, off+2)
	rr.TTL = uint32(be16(b, off+4))<<16 | uint32(be16(b, off+6))
	rdlen := int(be16(b, off+8))
	off += 10
	if off+rdlen > len(b) {
		return 0, fmt.Errorf("dns: rdata overruns message")
	}
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return 0, fmt.Errorf("dns: bad A rdata")
		}
		rr.Data = formatA([4]byte(b[off : off+4]))
	case TypeNS, TypeCNAME:
		rr.Data, _, err = parseName(b, off)
		if err != nil {
			return 0, err
		}
	default:
		rr.Data = string(b[off : off+rdlen])
	}
	return off + rdlen, nil
}

// formatA renders A rdata as a dotted quad.
func formatA(o [4]byte) string {
	var buf [len("255.255.255.255")]byte
	s := strconv.AppendUint(buf[:0], uint64(o[0]), 10)
	for _, v := range o[1:] {
		s = append(s, '.')
		s = strconv.AppendUint(s, uint64(v), 10)
	}
	return string(s)
}

// parseA is the inverse of formatA and accepts nothing else: four decimal
// octets 0–255 without sign, space or leading zero, three dots between them.
func parseA(s string) (o [4]byte, ok bool) {
	for i := range o {
		if i > 0 {
			if s == "" || s[0] != '.' {
				return o, false
			}
			s = s[1:]
		}
		digits, v := 0, 0
		for digits < len(s) && '0' <= s[digits] && s[digits] <= '9' {
			v = v*10 + int(s[digits]-'0')
			if digits++; v > 255 {
				return o, false
			}
		}
		if digits == 0 || (digits > 1 && s[0] == '0') {
			return o, false
		}
		o[i] = byte(v)
		s = s[digits:]
	}
	return o, s == ""
}

// EncodeMessage serialises a message using the given label-compression
// strategy (nil disables compression). It fails on a record whose Data is
// not what its type requires — an A record that is not a dotted quad —
// rather than put a made-up value on the wire. The message is built in a
// 512-byte stack buffer (the classic UDP limit) and returned in one
// allocation of exactly its length, so a kept message (the memo's answers, a
// load generator's queries) pins no spare capacity.
func EncodeMessage(m Message, comp Compressor) ([]byte, error) {
	var scratch [512]byte
	b := scratch[:12]
	put16 := func(i int, v uint16) { b[i], b[i+1] = byte(v>>8), byte(v) }
	put16(0, m.ID)
	put16(2, m.Flags)
	put16(4, uint16(len(m.Questions)))
	put16(6, uint16(len(m.Answers)))
	put16(8, uint16(len(m.Authority)))
	put16(10, uint16(len(m.Additional)))
	for _, q := range m.Questions {
		b = appendName(b, q.Name, comp)
		b = append16(b, q.Type)
		b = append16(b, q.Class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			var err error
			if b, err = appendRR(b, rr, comp); err != nil {
				return nil, err
			}
		}
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

func append16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

// lowerASCII folds one octet of a name: A–Z to a–z, anything else as it is.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// lowerName folds a name as gatherName does, so that it reads back from the
// wire exactly as it was written to it. A name already in lower case — any
// the parser returned, any in a Zone — is returned as it is.
func lowerName(s string) string {
	for i := 0; i < len(s); i++ {
		if lowerASCII(s[i]) != s[i] {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				b[j] = lowerASCII(b[j])
			}
			return string(b)
		}
	}
	return s
}

func appendName(b []byte, name string, comp Compressor) []byte {
	name = lowerName(strings.TrimSuffix(name, "."))
	for name != "" {
		if comp != nil {
			if ptr, ok := comp.Lookup(name); ok {
				return append(b, byte(0xC0|ptr>>8), byte(ptr))
			}
			if len(b) < 0x3FFF {
				comp.Store(name, len(b))
			}
		}
		i := strings.IndexByte(name, '.')
		label := name
		if i >= 0 {
			label, name = name[:i], name[i+1:]
		} else {
			name = ""
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0)
}

func appendRR(b []byte, rr RR, comp Compressor) ([]byte, error) {
	b = appendName(b, rr.Name, comp)
	b = append16(b, rr.Type)
	b = append16(b, rr.Class)
	b = append(b, byte(rr.TTL>>24), byte(rr.TTL>>16), byte(rr.TTL>>8), byte(rr.TTL))
	switch rr.Type {
	case TypeA:
		o, ok := parseA(rr.Data)
		if !ok {
			return nil, fmt.Errorf("dns: A record %q: data %q is not a dotted quad", rr.Name, rr.Data)
		}
		b = append16(b, 4)
		b = append(b, o[:]...)
	case TypeNS, TypeCNAME:
		lenAt := len(b)
		b = append16(b, 0)
		start := len(b)
		b = appendName(b, rr.Data, comp)
		rd := len(b) - start
		b[lenAt], b[lenAt+1] = byte(rd>>8), byte(rd)
	default:
		b = append16(b, uint16(len(rr.Data)))
		b = append(b, rr.Data...)
	}
	return b, nil
}
