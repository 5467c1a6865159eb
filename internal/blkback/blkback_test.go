package blkback

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cstruct"
	"repro/internal/sim"
)

func TestSSDChannelParallelism(t *testing.T) {
	k := sim.NewKernel(1)
	ssd := NewSSDNamed(k, "")
	// Channels-many small requests at once complete together; one more
	// queues behind.
	var last sim.Time
	for i := 0; i < SSDChannels; i++ {
		last = ssd.Submit(4096, false)
	}
	if last != sim.Time(SSDReadLatency) {
		t.Errorf("parallel batch completes at %v, want %v", last, SSDReadLatency)
	}
	if extra := ssd.Submit(4096, false); extra != sim.Time(2*SSDReadLatency) {
		t.Errorf("queued request completes at %v, want %v", extra, 2*SSDReadLatency)
	}
}

func TestSSDBusBoundsLargeTransfers(t *testing.T) {
	k := sim.NewKernel(1)
	ssd := NewSSDNamed(k, "")
	n := 16 << 20 // 16 MiB: bus time dominates channel latency
	done := ssd.Submit(n, false)
	wantBus := time.Duration(float64(n) / SSDBusGBps)
	if d := done.Sub(0); d < wantBus {
		t.Errorf("16 MiB read finished in %v, faster than the %v bus allows", d, wantBus)
	}
}

// The one-sector forms the sector tests are written in, over the ranged
// ReadAt/WriteAt every caller uses: a read returns a copy, never a window onto
// the store; a write stores the first 512 bytes of b, zero-filled by WriteAt
// when b is shorter.
func readSector(d *SSD, sector uint64) []byte {
	buf := make([]byte, SectorSize)
	d.ReadAt(sector, buf)
	return buf
}

func readSectorInto(d *SSD, sector uint64, dst []byte) { d.ReadAt(sector, dst[:SectorSize]) }

func writeSector(d *SSD, sector uint64, b []byte) { d.WriteAt(sector, b[:min(len(b), SectorSize)]) }

func TestSectorStorageRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	ssd := NewSSDNamed(k, "")
	data := make([]byte, SectorSize)
	copy(data, "sector contents")
	writeSector(ssd, 42, data)
	got := readSector(ssd, 42)
	if string(got[:15]) != "sector contents" {
		t.Error("sector corrupted")
	}
	// Unwritten sectors read zero.
	for _, b := range readSector(ssd, 43) {
		if b != 0 {
			t.Fatal("unwritten sector not zero")
		}
	}
}

func TestWriteSectorCopiesInput(t *testing.T) {
	k := sim.NewKernel(1)
	ssd := NewSSDNamed(k, "")
	buf := make([]byte, SectorSize)
	buf[0] = 'A'
	writeSector(ssd, 1, buf)
	buf[0] = 'B'
	if readSector(ssd, 1)[0] != 'A' {
		t.Error("device aliased the caller's buffer")
	}
}

func TestReqRspSlotRoundTrip(t *testing.T) {
	s := cstruct.Make(64)
	in := Req{Write: true, Sectors: 8, Segs: 1, Gref: 1234, Sector: 0xDEADBEEF00, ID: 42}
	EncodeReq(s, in)
	if got := DecodeReq(s); got != in {
		t.Errorf("req round trip: got %+v, want %+v", got, in)
	}
	ind := Req{Write: false, Indirect: true, Sectors: MaxReqSectors, Segs: MaxSegments,
		Gref: 77, Sector: 4096, ID: 7}
	EncodeReq(s, ind)
	if got := DecodeReq(s); got != ind {
		t.Errorf("indirect req round trip: got %+v, want %+v", got, ind)
	}
	EncodeRsp(s, 42, true)
	rid, ok := DecodeRsp(s)
	if rid != 42 || !ok {
		t.Errorf("rsp round trip: %d %v", rid, ok)
	}
	EncodeRsp(s, 43, false)
	if _, ok := DecodeRsp(s); ok {
		t.Error("error status lost")
	}
}

func TestReadSectorReturnsCopy(t *testing.T) {
	k := sim.NewKernel(1)
	ssd := NewSSDNamed(k, "")
	buf := make([]byte, SectorSize)
	buf[0] = 'A'
	writeSector(ssd, 9, buf)
	got := readSector(ssd, 9)
	got[0] = 'Z'
	if readSector(ssd, 9)[0] != 'A' {
		t.Error("a sector read aliased device state; caller mutation corrupted the sector")
	}
	// The into-form overwrites every byte, including stale ones.
	dst := make([]byte, SectorSize)
	for i := range dst {
		dst[i] = 0xFF
	}
	readSectorInto(ssd, 1234, dst) // never written: must zero
	for _, b := range dst {
		if b != 0 {
			t.Fatal("reading an unwritten sector into a buffer left stale bytes")
		}
	}
}

// Property: SSD busy accounting — completion times never precede issue
// time plus minimum latency, and are monotone per channel count.
func TestPropSubmitNeverBeatsLatency(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := sim.NewKernel(2)
		ssd := NewSSDNamed(k, "")
		for _, sz := range sizes {
			n := int(sz)%65536 + 1
			done := ssd.Submit(n, sz%2 == 0)
			min := SSDReadLatency
			if sz%2 == 0 {
				min = SSDWriteLatency
			}
			if done.Sub(k.Now()) < min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sectorModel is the store's specification: a plain per-sector map, every
// sector never written reading as zeros.
type sectorModel map[uint64][SectorSize]byte

// write stores b from sector on, a final short sector zero-filled.
func (m sectorModel) write(sector uint64, b []byte) {
	for o := 0; o < len(b); o += SectorSize {
		var sec [SectorSize]byte
		copy(sec[:], b[o:])
		m[sector+uint64(o/SectorSize)] = sec
	}
}

// read returns the n bytes from sector on.
func (m sectorModel) read(sector uint64, n int) []byte {
	out := make([]byte, 0, n+SectorSize)
	for s := sector; len(out) < n; s++ {
		sec := m[s]
		out = append(out, sec[:]...)
	}
	return out[:n]
}

// matches reports the first way ssd differs from the model: a sector that
// reads differently, or a stored prefix that ends in a zero byte or
// overflows its slot.
func (m sectorModel) matches(ssd *SSD) error {
	for s, sec := range m {
		if !bytes.Equal(readSector(ssd, s), sec[:]) {
			return fmt.Errorf("sector %d differs from the model", s)
		}
	}
	for pg, sp := range ssd.pages {
		if sp.n > sp.slot {
			return fmt.Errorf("page %d stores %d bytes in a %d-byte slot", pg, sp.n, sp.slot)
		}
		if sp.n > 0 && ssd.chunks[sp.chunk][int(sp.off)+int(sp.n)-1] == 0 {
			return fmt.Errorf("page %d's %d-byte prefix ends in a zero byte", pg, sp.n)
		}
	}
	return nil
}

// zeroTailed returns n bytes whose first k are random and the rest zero.
func zeroTailed(rng *rand.Rand, n, k int) []byte {
	buf := make([]byte, n)
	rng.Read(buf[:k])
	return buf
}

// Property: the page store is indistinguishable from a plain per-sector map
// under any interleaving of single-sector writes and ranged reads and writes
// — ranges that start on and off page boundaries, sit at the far-away
// sector 2²⁶ an appliance keeps its log at or at the top of the address
// space, end in a short final sector, are all zeros, or end in zeros, so a
// page's stored prefix shrinks and grows and reads end inside and past it.
func TestPropPageStoreMatchesSectorModel(t *testing.T) {
	bases := []uint64{0, SectorsPerPage, 5*SectorsPerPage - 1, 1 << 26, 1<<26 + 3*SectorsPerPage - 5,
		1 << 40, math.MaxUint64 - 63}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ssd := NewSSDNamed(sim.NewKernel(1), "")
		model := sectorModel{}
		for i := 0; i < 300; i++ {
			sector := bases[rng.Intn(len(bases))] + uint64(rng.Intn(12))
			n := 1 + rng.Intn(3*cstruct.PageSize)
			var buf []byte
			switch rng.Intn(5) {
			case 0: // one sector, short or over-long input
				m := 1 + rng.Intn(2*SectorSize)
				buf = zeroTailed(rng, m, rng.Intn(m+1))
				writeSector(ssd, sector, buf)
				model.write(sector, buf[:min(len(buf), SectorSize)])
				continue
			case 1: // ranged write; the last sector may be short
				buf = zeroTailed(rng, n, n)
			case 2: // all zeros
				buf = make([]byte, n)
			case 3: // a random prefix, then zeros
				buf = zeroTailed(rng, n, rng.Intn(n+1))
			case 4: // ranged read over stale bytes
				buf = zeroTailed(rng, n, n)
				ssd.ReadAt(sector, buf)
				if !bytes.Equal(buf, model.read(sector, n)) {
					t.Logf("seed %d op %d: ReadAt(%d, %d bytes) differs from the model", seed, i, sector, n)
					return false
				}
				continue
			}
			ssd.WriteAt(sector, buf)
			model.write(sector, buf)
		}
		if err := model.matches(ssd); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzSSDStore decodes its input into WriteAt and ReadAt calls and holds the
// page store to the per-sector model. Each call is a six-byte header — kind,
// base, sector offset, length (LE16), the share of a write that is not zero
// (of 255) — then, for a write, up to 16 pattern bytes its non-zero part
// repeats.
func FuzzSSDStore(f *testing.F) {
	bases := []uint64{0, SectorsPerPage, 1 << 26, 1 << 40, math.MaxUint64 - 63}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0xFF, 0x0F, 40, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		0, 0, 0, 0xFF, 0x0F, 0})
	f.Add([]byte{1, 2, 5, 0x00, 0x30, 255, 0xAA, 0xBB, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		1, 2, 5, 0x00, 0x08, 10, 0xCC, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 2, 0, 0x00, 0x20, 0})
	f.Add([]byte{1, 4, 9, 0x01, 0x02, 128, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
		0, 4, 9, 0x01, 0x02, 0, 1, 4, 9, 0x01, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 4, 8, 0x00, 0x10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ssd := NewSSDNamed(sim.NewKernel(1), "")
		model := sectorModel{}
		for len(data) >= 6 {
			h := data[:6]
			data = data[6:]
			sector := bases[int(h[1])%len(bases)] + uint64(h[2]%16)
			n := 1 + int(binary.LittleEndian.Uint16(h[3:]))%(3*cstruct.PageSize)
			buf := make([]byte, n)
			if h[0]%2 == 0 {
				ssd.ReadAt(sector, buf)
				if !bytes.Equal(buf, model.read(sector, n)) {
					t.Fatalf("ReadAt(%d, %d bytes) differs from the model", sector, n)
				}
				continue
			}
			pattern := data[:min(len(data), 16)]
			data = data[len(pattern):]
			if len(pattern) > 0 {
				for i := range n * int(h[5]) / 255 {
					buf[i] = pattern[i%len(pattern)]
				}
			}
			ssd.WriteAt(sector, buf)
			model.write(sector, buf)
		}
		if err := model.matches(ssd); err != nil {
			t.Fatal(err)
		}
	})
}

// Reads of never-written ranges return zeros and store nothing.
func TestReadOnlyRunCreatesNoExtents(t *testing.T) {
	ssd := NewSSDNamed(sim.NewKernel(1), "")
	buf := make([]byte, 3*cstruct.PageSize)
	for _, sector := range []uint64{0, SectorsPerPage - 1, 1 << 26, 1 << 40} {
		for i := range buf {
			buf[i] = 0xFF
		}
		ssd.ReadAt(sector, buf)
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Fatalf("ReadAt(%d) of an unwritten range left stale bytes", sector)
		}
		readSector(ssd, sector)
		readSectorInto(ssd, sector, buf)
	}
	if len(ssd.pages) != 0 || len(ssd.chunks) != 0 {
		t.Fatalf("reading created %d index entries and %d chunks, want none", len(ssd.pages), len(ssd.chunks))
	}
}

// A page keeps its bytes up to its last non-zero one and no more; a shorter
// rewrite stays in its slot, zeros store nothing, and once a page has its
// slot rewriting it — whole, or a few sectors as a log's tail is —
// allocates nothing.
func TestSSDStoresOnlyNonZeroPrefix(t *testing.T) {
	ssd := NewSSDNamed(sim.NewKernel(1), "")
	const sector = 3 * SectorsPerPage
	page := make([]byte, cstruct.PageSize)
	ssd.WriteAt(sector, page)
	if len(ssd.pages) != 0 || len(ssd.chunks) != 0 {
		t.Fatalf("an all-zero write to an unwritten page stored %d pages, %d chunks", len(ssd.pages), len(ssd.chunks))
	}

	page[0], page[599] = 1, 2 // a 600-byte prefix with zeros inside it
	ssd.WriteAt(sector, page)
	first := ssd.pages[sector/SectorsPerPage]
	if first.n != 600 || ssd.tail != 600 {
		t.Fatalf("a page with a 600-byte prefix stores %d bytes and fills %d, want 600", first.n, ssd.tail)
	}

	clear(page)
	page[99] = 3
	ssd.WriteAt(sector, page)
	got := ssd.pages[sector/SectorsPerPage]
	if got.n != 100 || got.chunk != first.chunk || got.off != first.off || ssd.tail != 600 {
		t.Fatalf("a shorter rewrite stored %+v with the chunks filled to %d, want 100 bytes in its slot %+v",
			got, ssd.tail, first)
	}
	back := make([]byte, cstruct.PageSize)
	ssd.ReadAt(sector, back)
	if !bytes.Equal(back, page) {
		t.Fatal("a shorter rewrite reads back stale bytes past its prefix")
	}

	clear(page)
	ssd.WriteAt(sector, page)
	ssd.ReadAt(sector, back)
	if !bytes.Equal(back, page) || ssd.pages[sector/SectorsPerPage].n != 0 {
		t.Fatal("an all-zero overwrite does not read back zeros")
	}

	page[4000] = 4
	tail := page[3*SectorSize : 5*SectorSize]
	for name, write := range map[string]func(){
		"whole page": func() { ssd.WriteAt(sector, page) },
		"sub-page":   func() { ssd.WriteAt(sector+3, tail) },
	} {
		if n := testing.AllocsPerRun(100, write); n != 0 {
			t.Errorf("a steady-state %s rewrite allocates %v objects, want 0", name, n)
		}
	}
}

// BenchmarkPrefixLen is the trailing-zero scan every page write pays, on a
// page with a 600-byte prefix, kv_mixed's mean.
func BenchmarkPrefixLen(b *testing.B) {
	var page [cstruct.PageSize]byte
	page[599] = 1
	for b.Loop() {
		if prefixLen(&page) != 600 {
			b.Fatal("wrong prefix")
		}
	}
}
