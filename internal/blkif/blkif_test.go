package blkif

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/blkback"
	"repro/internal/cstruct"
	"repro/internal/hypervisor"
	"repro/internal/lwt"
	"repro/internal/pvboot"
	"repro/internal/sim"
	"repro/internal/xenstore"
)

// withGuest boots a guest with a block device over a fresh SSD and runs fn.
func withGuest(t *testing.T, fn func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int) (*sim.Kernel, *blkback.SSD) {
	t.Helper()
	return withGuestSSD(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc, _ *blkback.SSD) int {
		return fn(b, vm, p)
	})
}

// withGuestSSD is withGuest with the backing SSD visible to fn, for tests
// that seed sectors or count device operations mid-run.
func withGuestSSD(t *testing.T, fn func(b *Blkif, vm *pvboot.VM, p *sim.Proc, ssd *blkback.SSD) int) (*sim.Kernel, *blkback.SSD) {
	t.Helper()
	k := sim.NewKernel(11)
	h := hypervisor.NewHost(k, 2)
	ssd := blkback.NewSSDNamed(k, "")
	st := xenstore.New()
	k.Spawn("setup", func(tp *sim.Proc) {
		dom0 := h.Create(tp, hypervisor.Config{Name: "dom0", Memory: 128 << 20})
		h.Create(tp, hypervisor.Config{
			Name:   "guest",
			Memory: 64 << 20,
			Entry: func(d *hypervisor.Domain, p *sim.Proc) int {
				vm, err := pvboot.Boot(d, p, pvboot.Options{BinarySize: 256 << 10})
				if err != nil {
					t.Errorf("boot: %v", err)
					return 1
				}
				b, err := Attach(vm, ssd, dom0, st)
				if err != nil {
					t.Errorf("attach: %v", err)
					return 1
				}
				return fn(b, vm, p, ssd)
			},
		})
	})
	if _, err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return k, ssd
}

// ringRequests is how many requests the frontend has published on its ring:
// the req_prod index at offset 0 of the shared page. The backend books one
// device operation per ring request.
func ringRequests(b *Blkif) uint32 { return b.ringPage.LE32(0) }

// readSector returns what the device holds at sector.
func readSector(ssd *blkback.SSD, sector uint64) []byte {
	buf := make([]byte, SectorSize)
	ssd.ReadAt(sector, buf)
	return buf
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	var got []byte
	withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		main := lwt.Bind(b.Write(100, payload), func(*cstruct.View) *lwt.Promise[struct{}] {
			return lwt.Map(b.Read(100, 8), func(v *cstruct.View) struct{} {
				got = append([]byte(nil), v.Bytes()...)
				v.Release()
				return struct{}{}
			})
		})
		return vm.Main(p, main)
	})
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes, corrupted (want %d)", len(got), len(payload))
	}
}

func TestReadOfUnwrittenSectorsIsZero(t *testing.T) {
	var got []byte
	withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		main := lwt.Map(b.Read(9999, 2), func(v *cstruct.View) struct{} {
			got = append([]byte(nil), v.Bytes()...)
			v.Release()
			return struct{}{}
		})
		return vm.Main(p, main)
	})
	if len(got) != 2*SectorSize {
		t.Fatalf("read %d bytes, want %d", len(got), 2*SectorSize)
	}
	for _, c := range got {
		if c != 0 {
			t.Fatal("unwritten sector not zeroed")
		}
	}
}

func TestWriteIsDirectToDevice(t *testing.T) {
	// Resolution of a Write promise means the data is on the device —
	// there is no buffer cache to lose it (§3.5.2).
	_, ssd := withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		main := lwt.Map(b.Write(5, []byte("durable")), func(*cstruct.View) struct{} { return struct{}{} })
		return vm.Main(p, main)
	})
	if ssd.Writes != 1 {
		t.Fatalf("SSD writes = %d, want 1", ssd.Writes)
	}
	if !bytes.HasPrefix(readSector(ssd, 5), []byte("durable")) {
		t.Fatal("data not on the device after Write resolved")
	}
}

func TestParallelReadsOverlapOnChannels(t *testing.T) {
	// 32 single-page reads issued together must take far less than 32
	// serial device latencies thanks to SSD channel parallelism.
	var elapsed time.Duration
	withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		start := vm.S.K.Now()
		var ws []lwt.Waiter
		for i := 0; i < 32; i++ {
			pr := b.Read(uint64(i*8), 8)
			ws = append(ws, lwt.Map(pr, func(v *cstruct.View) struct{} {
				v.Release()
				return struct{}{}
			}))
		}
		code := vm.Main(p, lwt.Join(vm.S, ws...))
		elapsed = vm.S.K.Now().Sub(start)
		return code
	})
	serial := 32 * blkback.SSDReadLatency
	if elapsed >= serial/2 {
		t.Errorf("32 reads took %v; want well under serial %v (channels=%d)", elapsed, serial, blkback.SSDChannels)
	}
}

func TestQueueBeyondRingDepthCompletes(t *testing.T) {
	// Issue 100 requests — more than the 32-slot ring — and ensure all
	// complete via the frontend queue.
	done := 0
	withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		var ws []lwt.Waiter
		for i := 0; i < 100; i++ {
			ws = append(ws, lwt.Map(b.Read(uint64(i), 1), func(v *cstruct.View) struct{} {
				v.Release()
				done++
				return struct{}{}
			}))
		}
		return vm.Main(p, lwt.Join(vm.S, ws...))
	})
	if done != 100 {
		t.Fatalf("completed %d/100 requests", done)
	}
}

func TestBadRequestFails(t *testing.T) {
	withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		pr := b.Read(0, 9) // > one page
		if pr.Failed() == nil {
			t.Error("oversized read did not fail")
		}
		return vm.Main(p, vm.S.Sleep(time.Millisecond))
	})
}

func TestPagesRecycledAfterIO(t *testing.T) {
	var pool *cstruct.Pool
	withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		pool = vm.Dom.Pool
		var chain func(i int) *lwt.Promise[struct{}]
		chain = func(i int) *lwt.Promise[struct{}] {
			if i == 200 {
				return lwt.Return(vm.S, struct{}{})
			}
			return lwt.Bind(b.Read(uint64(i), 8), func(v *cstruct.View) *lwt.Promise[struct{}] {
				v.Release()
				return chain(i + 1)
			})
		}
		return vm.Main(p, chain(0))
	})
	if pool.Allocated > 8 {
		t.Errorf("pool allocated %d pages for 200 sequential reads; recycling broken", pool.Allocated)
	}
}

func TestAdjacentReadsMergeIntoOneDeviceOp(t *testing.T) {
	// 8 adjacent single-page reads staged in one instant merge into one
	// indirect request and one device operation.
	var got [8][]byte
	withGuestSSD(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc, ssd *blkback.SSD) int {
		for i := 0; i < 8; i++ {
			buf := make([]byte, 4096)
			for j := range buf {
				buf[j] = byte(i + j)
			}
			ssd.WriteAt(uint64(i*8), buf[:SectorSize])
			ssd.WriteAt(uint64(i*8+7), buf[4096-SectorSize:])
		}
		before := ringRequests(b)
		var ws []lwt.Waiter
		for i := 0; i < 8; i++ {
			i := i
			ws = append(ws, lwt.Map(b.Read(uint64(i*8), 8), func(v *cstruct.View) struct{} {
				got[i] = append([]byte(nil), v.Bytes()...)
				v.Release()
				return struct{}{}
			}))
		}
		code := vm.Main(p, lwt.Join(vm.S, ws...))
		if devops := ringRequests(b) - before; devops != 1 {
			t.Errorf("8 adjacent page reads cost %d device ops, want 1", devops)
		}
		if b.Merged != 7 {
			t.Errorf("Merged = %d, want 7", b.Merged)
		}
		if b.Indirect != 1 {
			t.Errorf("Indirect = %d, want 1", b.Indirect)
		}
		return code
	})
	for i := 0; i < 8; i++ {
		if len(got[i]) != 4096 {
			t.Fatalf("read %d returned %d bytes", i, len(got[i]))
		}
		if got[i][0] != byte(i) || got[i][4095] != byte(i+4095) {
			t.Errorf("read %d returned wrong data: first=%d last=%d", i, got[i][0], got[i][4095])
		}
	}
}

func TestMergedWritesLandCorrectly(t *testing.T) {
	// Adjacent writes staged together merge into one scatter-gather write
	// and every byte lands at its own sector.
	_, ssd := withGuestSSD(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc, ssd *blkback.SSD) int {
		wBefore := ssd.Writes
		var ws []lwt.Waiter
		for i := 0; i < 4; i++ {
			buf := make([]byte, 4096)
			for j := range buf {
				buf[j] = byte(10*i + 1)
			}
			ws = append(ws, b.Write(uint64(200+i*8), buf))
		}
		code := vm.Main(p, lwt.Join(vm.S, ws...))
		if devops := ssd.Writes - wBefore; devops != 1 {
			t.Errorf("4 adjacent page writes cost %d device ops, want 1", devops)
		}
		return code
	})
	for i := 0; i < 4; i++ {
		for s := 0; s < 8; s++ {
			sec := readSector(ssd, uint64(200+i*8+s))
			if sec[0] != byte(10*i+1) || sec[SectorSize-1] != byte(10*i+1) {
				t.Fatalf("write %d sector %d corrupted: got %d", i, s, sec[0])
			}
		}
	}
}

func TestBatchingOffKeepsRequestsSeparate(t *testing.T) {
	// The unbatched baseline: adjacent requests each take their own ring
	// slot and device op.
	withGuestSSD(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc, ssd *blkback.SSD) int {
		b.SetBatching(false)
		before := ringRequests(b)
		var ws []lwt.Waiter
		for i := 0; i < 8; i++ {
			ws = append(ws, lwt.Map(b.Read(uint64(i*8), 8), func(v *cstruct.View) struct{} {
				v.Release()
				return struct{}{}
			}))
		}
		code := vm.Main(p, lwt.Join(vm.S, ws...))
		if devops := ringRequests(b) - before; devops != 8 {
			t.Errorf("unbatched: 8 reads cost %d device ops, want 8", devops)
		}
		if b.Merged != 0 || b.Indirect != 0 {
			t.Errorf("unbatched path merged (%d) or went indirect (%d)", b.Merged, b.Indirect)
		}
		return code
	})
}

func TestMergeRespectsMaxReqSectors(t *testing.T) {
	// A run longer than MaxSegments pages splits at the indirect limit.
	withGuestSSD(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc, ssd *blkback.SSD) int {
		before := ringRequests(b)
		var ws []lwt.Waiter
		for i := 0; i < MaxSegments+1; i++ {
			ws = append(ws, lwt.Map(b.Read(uint64(i*SectorsPerPage), SectorsPerPage), func(v *cstruct.View) struct{} {
				v.Release()
				return struct{}{}
			}))
		}
		code := vm.Main(p, lwt.Join(vm.S, ws...))
		if devops := ringRequests(b) - before; devops != 2 {
			t.Errorf("%d-page run cost %d device ops, want 2", MaxSegments+1, devops)
		}
		return code
	})
}

func TestNoGrantLeaksAfterMergedIO(t *testing.T) {
	var active, indirect int
	withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		// The ring page grant stays active for the device's lifetime.
		base := vm.Dom.Grants.Active()
		var ws []lwt.Waiter
		// Sixteen adjacent reads, then sixteen adjacent writes: each run
		// merges into indirect requests.
		for i := 0; i < 16; i++ {
			ws = append(ws, lwt.Map(b.Read(uint64(i*8), 8), func(v *cstruct.View) struct{} {
				v.Release()
				return struct{}{}
			}))
		}
		for i := 0; i < 16; i++ {
			ws = append(ws, b.Write(uint64(512+i*8), make([]byte, 4096)))
		}
		code := vm.Main(p, lwt.Join(vm.S, ws...))
		active, indirect = vm.Dom.Grants.Active()-base, b.Indirect
		return code
	})
	if indirect == 0 {
		t.Fatal("nothing merged into an indirect request")
	}
	if active != 0 {
		t.Errorf("%d grants still active after all I/O completed", active)
	}
}

// A direct request whose grant does not map must cost the device nothing:
// no channel occupancy, no bus time, no I/O counted. One bad request per SSD
// channel is pushed raw onto the ring ahead of a good write; the write must
// complete at the instant it does with the ring to itself.
func TestBadGrefDirectRequestBooksNoDeviceTime(t *testing.T) {
	run := func(bad int) (done sim.Time, ssd *blkback.SSD) {
		_, ssd = withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
			for i := 0; i < bad; i++ {
				req := blkback.Req{Write: true, Sectors: SectorsPerPage, Segs: 1,
					Gref: 0xFFFF00 + uint32(i), Sector: uint64(1000 + 64*i), ID: uint16(60000 + i)}
				b.front.PushRequest(func(s *cstruct.View) { blkback.EncodeReq(s, req) })
			}
			if bad > 0 {
				b.scheduleFlush()
			}
			main := lwt.Map(b.Write(8, make([]byte, cstruct.PageSize)), func(*cstruct.View) struct{} {
				done = vm.S.K.Now()
				return struct{}{}
			})
			return vm.Main(p, main)
		})
		return done, ssd
	}
	alone, _ := run(0)
	behind, ssd := run(blkback.SSDChannels)
	if ssd.Writes != 1 {
		t.Errorf("device counted %d writes, want 1: bad-gref requests were booked", ssd.Writes)
	}
	if behind != alone {
		t.Errorf("write behind bad-gref requests completed at %v, alone at %v: they occupied the device", behind, alone)
	}
}

// A read whose page the guest granted read-only fails, as Xen refuses a
// writable mapping of a read-only grant: the device's bytes never reach the
// page, and the failure is counted. The raw request is pushed ahead of a good
// write, which the guest waits on.
func TestReadIntoReadOnlyGrantFails(t *testing.T) {
	var page *cstruct.View
	k, _ := withGuestSSD(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc, ssd *blkback.SSD) int {
		ssd.WriteAt(64, bytes.Repeat([]byte{0xAB}, cstruct.PageSize))
		page = vm.Dom.Pool.Get()
		clear(page.Bytes())
		req := blkback.Req{Sectors: SectorsPerPage, Segs: 1, Sector: 64, ID: 60000,
			Gref: uint32(vm.Dom.Grants.Grant(page, true))}
		b.front.PushRequest(func(s *cstruct.View) { blkback.EncodeReq(s, req) })
		b.scheduleFlush()
		return vm.Main(p, b.Write(8, make([]byte, cstruct.PageSize)))
	})
	if !bytes.Equal(page.Bytes(), make([]byte, cstruct.PageSize)) {
		t.Error("the backend wrote into a read-only grant")
	}
	if failed := k.Metrics().Snapshot().Sum("blk_failed_requests_total"); failed != 1 {
		t.Errorf("%d failed requests counted, want 1", failed)
	}
}

// A request whose sectors run past the last one a 64-bit address names fails
// whole before it books the device: its tail must not wrap onto sector 0.
// Direct: one page at the last sector. Indirect: two adjacent pages that
// merge into one request, the second crossing the end.
func TestWrappingRequestFails(t *testing.T) {
	page := bytes.Repeat([]byte{0xAB}, cstruct.PageSize)
	for _, starts := range [][]uint64{{math.MaxUint64}, {math.MaxUint64 - 11, math.MaxUint64 - 3}} {
		k, ssd := withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
			var prs []*lwt.Promise[*cstruct.View]
			for _, s := range starts {
				prs = append(prs, b.Write(s, page))
			}
			for i, pr := range prs {
				if err := vm.S.Run(p, pr); err == nil {
					t.Errorf("write at sector %d succeeded, want a device error", starts[i])
				}
			}
			if indirect := len(starts) > 1; indirect != (b.Indirect == 1) {
				t.Errorf("%d writes went indirect %d times", len(starts), b.Indirect)
			}
			return 0
		})
		if ssd.Writes != 0 {
			t.Errorf("writes at %v booked the device %d times", starts, ssd.Writes)
		}
		if failed := k.Metrics().Snapshot().Sum("blk_failed_requests_total"); failed != 1 {
			t.Errorf("writes at %v: %d failed requests counted, want the 1 ring request", starts, failed)
		}
		for s := uint64(0); s < SectorsPerPage; s++ {
			if !bytes.Equal(readSector(ssd, s), make([]byte, SectorSize)) {
				t.Errorf("writes at %v wrapped onto sector %d", starts, s)
			}
		}
	}
}

// A page ending at the last sector and one at sector 0 are adjacent only
// modulo 2⁶⁴: they stay two requests and both land.
func TestWritesAcrossTheEndDoNotMerge(t *testing.T) {
	last := bytes.Repeat([]byte{0xAB}, cstruct.PageSize)
	first := bytes.Repeat([]byte{0xCD}, cstruct.PageSize)
	_, ssd := withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		code := vm.Main(p, lwt.Join(vm.S, b.Write(math.MaxUint64-7, last), b.Write(0, first)))
		if b.Merged != 0 {
			t.Errorf("Merged = %d across the end of the device, want 0", b.Merged)
		}
		return code
	})
	if !bytes.Equal(readSector(ssd, math.MaxUint64), last[:SectorSize]) ||
		!bytes.Equal(readSector(ssd, 0), first[:SectorSize]) {
		t.Error("writes either side of the end of the device did not land")
	}
}

// A steady-state page write — staging copy, ring, grant map, device store —
// allocates no payload-sized memory: the staging buffer is recycled and the
// page already has its slot in the device store. What remains is promises,
// closures and the op records, far below the page (let alone the page plus
// eight sector slices the per-sector store cost).
func TestSteadyStatePageWriteAllocatesNoPayload(t *testing.T) {
	const n = 500
	var perWrite uint64
	withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		page := make([]byte, cstruct.PageSize)
		var write func(i int) *lwt.Promise[struct{}]
		write = func(i int) *lwt.Promise[struct{}] {
			if i == 0 {
				return lwt.Return(vm.S, struct{}{})
			}
			page[0] = byte(i)
			return lwt.Bind(b.Write(uint64(i%16)*SectorsPerPage, page), func(*cstruct.View) *lwt.Promise[struct{}] {
				return write(i - 1)
			})
		}
		if code := vm.Main(p, write(32)); code != 0 { // give the pages their slots, fill the free lists
			return code
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code := vm.Main(p, write(n))
		runtime.ReadMemStats(&after)
		perWrite = (after.TotalAlloc - before.TotalAlloc) / n
		return code
	})
	if perWrite >= 2048 {
		t.Errorf("a steady-state page write allocates %d B, want < 2 KiB", perWrite)
	}
	t.Logf("%d B per page write", perWrite)
}

// TestSteadyStatePageWriteAllocatesOnlyItsPromise: once the free lists are
// warm, a 4 KiB write taken all the way through complete — submit, unplug,
// ring, backend, device, response — allocates one object, the promise Write
// returns. The op and devop records and their slices are recycled, and every
// event on the way is a callback built once.
func TestSteadyStatePageWriteAllocatesOnlyItsPromise(t *testing.T) {
	withGuest(t, func(b *Blkif, vm *pvboot.VM, p *sim.Proc) int {
		page := make([]byte, cstruct.PageSize)
		i := 0
		write := func() {
			i++
			if err := vm.S.Run(p, b.Write(uint64(i%16)*SectorsPerPage, page)); err != nil {
				t.Error(err)
			}
		}
		for range 32 { // give the pages their slots, fill the free lists
			write()
		}
		if n := testing.AllocsPerRun(200, write); n != 1 {
			t.Errorf("a steady-state page write allocates %v objects, want 1 (its promise)", n)
		}
		return 0
	})
}
