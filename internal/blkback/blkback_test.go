package blkback

import (
	"bytes"
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
// the extent; a write stores the first 512 bytes of b, zero-filled by WriteAt
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

// Property: the extent store is indistinguishable from a plain per-sector
// map under any interleaving of single-sector writes and ranged reads and
// writes — ranges that cross extent boundaries, sit at the far-away sector
// 2²⁶ an appliance keeps its log at, and end in a short final sector.
func TestPropExtentStoreMatchesSectorModel(t *testing.T) {
	bases := []uint64{0, extentSectors - 3, 5*extentSectors - 1, 1 << 26, 1<<26 + extentSectors - 9}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ssd := NewSSDNamed(sim.NewKernel(1), "")
		model := map[uint64][SectorSize]byte{}
		want := func(sector uint64, n int) []byte {
			out := make([]byte, 0, n+SectorSize)
			for s := sector; len(out) < n; s++ {
				sec := model[s]
				out = append(out, sec[:]...)
			}
			return out[:n]
		}
		for i := 0; i < 200; i++ {
			sector := bases[rng.Intn(len(bases))] + uint64(rng.Intn(12))
			buf := make([]byte, 1+rng.Intn(3*cstruct.PageSize))
			switch rng.Intn(3) {
			case 0: // one sector, short or over-long input
				buf = make([]byte, 1+rng.Intn(2*SectorSize))
				rng.Read(buf)
				writeSector(ssd, sector, buf)
				var sec [SectorSize]byte
				copy(sec[:], buf)
				model[sector] = sec
			case 1: // ranged write; the last sector may be short
				rng.Read(buf)
				ssd.WriteAt(sector, buf)
				for o := 0; o < len(buf); o += SectorSize {
					var sec [SectorSize]byte
					copy(sec[:], buf[o:])
					model[sector+uint64(o/SectorSize)] = sec
				}
			case 2: // ranged read over stale bytes
				rng.Read(buf)
				ssd.ReadAt(sector, buf)
				if !bytes.Equal(buf, want(sector, len(buf))) {
					t.Logf("seed %d op %d: ReadAt(%d, %d bytes) differs from the model", seed, i, sector, len(buf))
					return false
				}
			}
		}
		for s, sec := range model {
			if !bytes.Equal(readSector(ssd, s), sec[:]) {
				t.Logf("seed %d: sector %d differs from the model at the end", seed, s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Reads of never-written ranges return zeros and create nothing.
func TestReadOnlyRunCreatesNoExtents(t *testing.T) {
	ssd := NewSSDNamed(sim.NewKernel(1), "")
	buf := make([]byte, 3*cstruct.PageSize)
	for _, sector := range []uint64{0, extentSectors - 1, 1 << 26, 1 << 40} {
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
	if n := len(ssd.extents); n != 0 {
		t.Fatalf("reading created %d extents, want 0", n)
	}
}
