package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// profile.go folds a runtime/pprof CPU profile into per-layer shares with a
// small decoder of the pprof protobuf (profile.proto), so the benchmark needs
// neither `go tool pprof` nor a dependency.

// pbField is one decoded protobuf field: a varint value or a length-delimited
// payload.
type pbField struct {
	num  int
	val  uint64
	data []byte
}

var errProfile = errors.New("profile: malformed protobuf")

func pbVarint(b []byte) (uint64, []byte, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, b[i+1:], nil
		}
	}
	return 0, nil, errProfile
}

// pbEach calls fn for every field of message b.
func pbEach(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, b, err = pbVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
		case 2:
			n, rest, err := pbVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return errProfile
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
		default:
			return errProfile
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints reads a repeated integer field occurrence, packed or not.
func pbUints(f pbField, into []uint64) ([]uint64, error) {
	if f.data == nil {
		return append(into, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// cpuSample is one stack of the profile, leaf first, with its sample count.
type cpuSample struct {
	stack []string // function names, leaf first (inlined frames expanded)
	count int64
}

// parseProfile decodes a gzipped pprof CPU profile into its stacks.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id → function ids, leaf first
	funcName := map[uint64]uint64{}   // function id → string index
	var strs []string
	err = pbEach(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s sample
			if err := pbEach(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbUints(g, s.locs)
				case 2:
					s.values, err = pbUints(g, s.values)
				}
				return err
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbEach(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return pbEach(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := pbEach(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: 1}
		if len(s.values) > 0 {
			cs.count = int64(s.values[0])
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// layerOfPackage maps a package of the program to the layer whose cpu_share
// it counts towards. Packages without a metric of their own fold into the
// layer they serve.
var layerOfPackage = map[string]string{
	"sim": "sim", "lwt": "lwt", "ring": "ring", "obs": "obs",
	"hypervisor": "hypervisor", "grant": "hypervisor", "pvboot": "hypervisor", "xenstore": "hypervisor",
	"device": "hypervisor", "mem": "hypervisor", "core": "hypervisor", "build": "hypervisor",
	"bufpool": "bufpool", "cstruct": "bufpool",
	"netif": "netif", "netback": "netback",
	"netstack": "netstack", "ethernet": "netstack", "arp": "netstack", "ipv4": "netstack", "udp": "netstack", "icmp": "netstack",
	"tcp":   "tcp",
	"blkif": "blkif", "blkback": "blkback",
	"storage": "storage", "dns": "dns", "httpd": "httpd", "fleet": "fleet",
}

const internalPrefix = "repro/internal/"

// frameLayer names the layer a function belongs to: "loadgen" for the
// benchmark's own code, a layer for the program's packages, "" for the Go
// runtime and standard library.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "loadgen"
	}
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	return "other"
}

// schedFuncs are the runtime functions whose self time is goroutine hand-off
// and scheduling.
var schedFuncs = map[string]bool{}

func init() {
	for _, fn := range []string{
		"gopark", "goready", "ready", "schedule", "findRunnable", "park_m", "mcall", "gogo", "execute",
		"runqget", "runqput", "chansend", "chanrecv", "send", "recv", "sellock", "selectgo",
		"futex", "futexsleep", "futexwakeup", "notesleep", "notewakeup", "stopm", "startm", "wakep",
		"resetspinning", "lock2", "unlock2", "casgstatus", "goschedImpl", "usleep", "osyield", "procyield",
	} {
		schedFuncs["runtime."+fn] = true
	}
}

// foldProfile attributes every sample to the layer of its leaf-most frame
// that belongs to the program or the benchmark, and returns each layer's
// share of all samples as "<layer>.cpu_share". Two cuts across the layers
// are added: goruntime.sched_cpu_share (leaf frame is goroutine hand-off or
// scheduling) and goruntime.malloc_cpu_share (runtime.mallocgc on the
// stack). Samples with no program frame at all (background collection, the
// scheduler's own stacks) are "goruntime.only_cpu_share". total is the number
// of samples.
func foldProfile(samples []cpuSample) (shares map[string]float64, total int64) {
	counts := map[string]int64{}
	for _, s := range samples {
		total += s.count
		layer := "goruntime.only"
		for _, fn := range s.stack {
			if l := frameLayer(fn); l != "" {
				layer = l
				break
			}
		}
		counts[layer] += s.count
		if len(s.stack) > 0 && schedFuncs[s.stack[0]] {
			counts["goruntime.sched"] += s.count
		}
		for _, fn := range s.stack {
			if fn == "runtime.mallocgc" {
				counts["goruntime.malloc"] += s.count
				break
			}
		}
	}
	shares = map[string]float64{}
	for layer, n := range counts {
		name := layer + ".cpu_share"
		if strings.HasPrefix(layer, "goruntime.") {
			name = layer + "_cpu_share"
		}
		if total > 0 {
			shares[name] = float64(n) / float64(total)
		}
	}
	return shares, total
}
