package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
)

// Inputs are made here, from the seed alone, and handed to the guests in
// sut.go: the program under test never sees the seed, only what it produced.
// Sizes are fixed by op count (spec.go), so two builds of the program do
// identical work for one seed.

// bulkInput drives tcp_bulk: every flow cycles through a few distinct seeded
// blocks, so a lost, duplicated or reordered block changes the checksum
// sequence the sink sees. The seed shapes the bytes only: all flows start at
// the same instant, because the 4-flow transfer is chaotic in its start
// offsets (some end in retransmission time-outs, one in ten in a flow that
// stalls for virtual minutes) and a benchmark workload must repeat.
type bulkInput struct {
	flows, blocksPerFlow, blockBytes int
	blocks                           [][]byte // [flow*bulkDistinct+k]
	crc                              []uint32 // CRC-32C of each block
}

const bulkDistinct = 4

func (b *bulkInput) block(flow, i int) int { return flow*bulkDistinct + i%bulkDistinct }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func genBulk(seed int64, flows, blocksPerFlow, blockBytes int) *bulkInput {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	in := &bulkInput{flows: flows, blocksPerFlow: blocksPerFlow, blockBytes: blockBytes}
	for f := 0; f < flows; f++ {
		for k := 0; k < bulkDistinct; k++ {
			blk := make([]byte, blockBytes)
			rng.Read(blk)
			in.blocks = append(in.blocks, blk)
			in.crc = append(in.crc, crc32.Checksum(blk, castagnoli))
		}
	}
	return in
}

// dnsInput drives dns_udp: a seeded zone of A records and a seeded stream of
// query indices into it. The expected answer of a query is the address the
// harness itself put in the zone, not something read back from the server.
type dnsInput struct {
	origin  string
	names   []string
	addrs   []string
	queries []int32
}

func genDNS(seed int64, zoneEntries, queries int) *dnsInput {
	rng := rand.New(rand.NewSource(seed*7919 + 2))
	in := &dnsInput{origin: "bench.local"}
	for i := 0; i < zoneEntries; i++ {
		in.names = append(in.names, fmt.Sprintf("h%d-%05x.%s", i, rng.Intn(1<<20), in.origin))
		in.addrs = append(in.addrs, fmt.Sprintf("10.%d.%d.%d", 1+rng.Intn(250), rng.Intn(256), rng.Intn(256)))
	}
	in.queries = make([]int32, queries)
	for i := range in.queries {
		in.queries[i] = int32(rng.Intn(zoneEntries))
	}
	return in
}

// httpInput drives http_fleet and http_fleet_par (byte-for-byte the same
// input): an open-loop schedule of keep-alive sessions. Arrival gaps are
// exponential, then scaled so the schedule spans exactly sessions/rate
// seconds — the offered rate is then the same for every seed, and only the
// burstiness differs.
type httpInput struct {
	clients  int
	reqsPer  int
	rate     float64 // sessions per virtual second
	body     []byte
	sessions []httpSession
}

type httpSession struct {
	atNS   int64 // arrival offset after t0
	client int
	paths  [httpReqsPerSession]int32
}

const httpReqsPerSession = 3

func (h *httpInput) ops() int { return len(h.sessions) * h.reqsPer }

// spanNS is the length of the arrival schedule.
func (h *httpInput) spanNS() int64 { return int64(float64(len(h.sessions)) / h.rate * 1e9) }

func genHTTP(seed int64, clients, sessions int, rate float64) *httpInput {
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	in := &httpInput{clients: clients, reqsPer: httpReqsPerSession, rate: rate}
	in.body = make([]byte, 512)
	for i := range in.body {
		in.body[i] = byte('a' + rng.Intn(26))
	}
	gaps := make([]float64, sessions)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	span := float64(sessions) / rate * 1e9
	at := 0.0
	in.sessions = make([]httpSession, sessions)
	for i := range in.sessions {
		at += gaps[i] / total * span
		s := httpSession{atNS: int64(math.Round(at)), client: i % clients}
		for r := range s.paths {
			s.paths[r] = int32(rng.Intn(10000))
		}
		in.sessions[i] = s
	}
	return in
}

// kvInput drives kv_mixed: a seeded Get/Set mix over a fixed key space. A
// value is a pure function of (key, version), where version is the index of
// the Set that wrote it (-1 for the prepopulated value); the checker decodes
// both from the bytes a Get returns.
type kvInput struct {
	nkeys      int
	valueBytes int
	ops        []kvOp
}

type kvOp struct {
	read bool
	key  int32
}

func genKV(seed int64, nkeys, ops, valueBytes, readPct int) *kvInput {
	rng := rand.New(rand.NewSource(seed*7919 + 4))
	in := &kvInput{nkeys: nkeys, valueBytes: valueBytes, ops: make([]kvOp, ops)}
	for i := range in.ops {
		in.ops[i] = kvOp{read: rng.Intn(100) < readPct, key: int32(rng.Intn(nkeys))}
	}
	return in
}

func kvKey(i int32) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

// kvValue writes the value for (key, version) into dst.
func kvValue(dst []byte, key int32, version int32) {
	binary.BigEndian.PutUint32(dst[0:], uint32(key))
	binary.BigEndian.PutUint32(dst[4:], uint32(version))
	x := uint64(uint32(key))<<32 | uint64(uint32(version))
	for off := 8; off+8 <= len(dst); off += 8 {
		x = x*6364136223846793005 + 1442695040888963407
		binary.BigEndian.PutUint64(dst[off:], x)
	}
}

// kvDecode returns the (key, version) a stored value claims, and whether the
// rest of its bytes are what kvValue would have written for that pair.
func kvDecode(v []byte) (key, version int32, ok bool) {
	var want [256]byte // the B-tree's largest value
	if len(v) < 8 || len(v) > len(want) {
		return 0, 0, false
	}
	key = int32(binary.BigEndian.Uint32(v[0:]))
	version = int32(binary.BigEndian.Uint32(v[4:]))
	kvValue(want[:len(v)], key, version)
	return key, version, bytes.Equal(want[:len(v)], v)
}
