package dns

import (
	"fmt"
	"strconv"
	"strings"
)

// Zone is an authoritative zone: records indexed by (name, type).
type Zone struct {
	Origin  string
	Default uint32 // default TTL
	records map[zoneKey][]RR
}

type zoneKey struct {
	name string
	typ  uint16
}

// NewZone returns an empty zone for origin.
func NewZone(origin string) *Zone {
	return &Zone{
		Origin:  strings.ToLower(strings.TrimSuffix(origin, ".")),
		Default: 3600,
		records: map[zoneKey][]RR{},
	}
}

// Add inserts a record.
func (z *Zone) Add(rr RR) {
	rr.Name = strings.ToLower(strings.TrimSuffix(rr.Name, "."))
	if rr.Class == 0 {
		rr.Class = ClassIN
	}
	if rr.TTL == 0 {
		rr.TTL = z.Default
	}
	k := zoneKey{rr.Name, rr.Type}
	z.records[k] = append(z.records[k], rr)
}

// Lookup returns records for (name, type); CNAMEs are not chased (the
// server layer handles that).
func (z *Zone) Lookup(name string, typ uint16) []RR {
	return z.records[zoneKey{strings.ToLower(strings.TrimSuffix(name, ".")), typ}]
}

// Exists reports whether any record exists at name.
func (z *Zone) Exists(name string) bool {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	for _, t := range []uint16{TypeA, TypeNS, TypeCNAME, TypeSOA, TypeTXT} {
		if len(z.records[zoneKey{name, t}]) > 0 {
			return true
		}
	}
	return false
}

// ParseZone reads a Bind9 master-format zone file subset: $ORIGIN, $TTL,
// and records of the form `name [ttl] IN <TYPE> <data>`. Names without a
// trailing dot are relative to the origin; "@" is the origin itself.
func ParseZone(text string) (*Zone, error) {
	z := NewZone("")
	lastName := ""
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "$ORIGIN":
			if len(fields) < 2 {
				return nil, fmt.Errorf("zone:%d: $ORIGIN needs a name", lineNo+1)
			}
			z.Origin = strings.ToLower(strings.TrimSuffix(fields[1], "."))
			continue
		case "$TTL":
			if len(fields) < 2 {
				return nil, fmt.Errorf("zone:%d: $TTL needs a value", lineNo+1)
			}
			ttl, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("zone:%d: bad $TTL: %v", lineNo+1, err)
			}
			z.Default = uint32(ttl)
			continue
		}
		// Record line. Leading whitespace means "same name as before".
		name := fields[0]
		rest := fields[1:]
		if raw[0] == ' ' || raw[0] == '\t' {
			name = lastName
			rest = fields
		}
		if name == "@" {
			name = z.Origin
		} else if !strings.HasSuffix(name, ".") && z.Origin != "" {
			name = name + "." + z.Origin
		}
		lastName = name

		var ttl uint32
		if len(rest) > 0 {
			if v, err := strconv.Atoi(rest[0]); err == nil {
				ttl = uint32(v)
				rest = rest[1:]
			}
		}
		if len(rest) > 0 && strings.EqualFold(rest[0], "IN") {
			rest = rest[1:]
		}
		if len(rest) < 2 {
			return nil, fmt.Errorf("zone:%d: incomplete record", lineNo+1)
		}
		var typ uint16
		switch strings.ToUpper(rest[0]) {
		case "A":
			typ = TypeA
		case "NS":
			typ = TypeNS
		case "CNAME":
			typ = TypeCNAME
		case "SOA":
			typ = TypeSOA
		case "TXT":
			typ = TypeTXT
		default:
			return nil, fmt.Errorf("zone:%d: unsupported type %q", lineNo+1, rest[0])
		}
		data := strings.Join(rest[1:], " ")
		data = strings.Trim(data, `"`)
		if typ == TypeNS || typ == TypeCNAME {
			if strings.HasSuffix(data, ".") {
				data = strings.TrimSuffix(data, ".")
			} else if z.Origin != "" {
				data = data + "." + z.Origin
			}
			data = strings.ToLower(data)
		}
		z.Add(RR{Name: name, Type: typ, TTL: ttl, Data: data})
	}
	return z, nil
}

// SyntheticZone builds a zone with n A records (host-0..host-n-1), the
// queryperf-style workload of Figure 10.
func SyntheticZone(origin string, n int) *Zone {
	z := NewZone(origin)
	z.Add(RR{Name: origin, Type: TypeNS, Data: "ns0." + origin})
	z.Add(RR{Name: "ns0." + origin, Type: TypeA, Data: "10.0.0.53"})
	for i := 0; i < n; i++ {
		z.Add(RR{
			Name: fmt.Sprintf("host-%d.%s", i, origin),
			Type: TypeA,
			Data: fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255),
		})
	}
	return z
}
