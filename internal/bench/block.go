package bench

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/lwt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// DefaultBlockSizes are the Figure 9 x-axis block sizes in KiB.
var DefaultBlockSizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// blockQueueDepth is Figure 9's fixed queue depth, in application blocks.
const blockQueueDepth = 32

// blockPageBudget caps the data pages one point moves, so the largest
// block sizes do not dominate the sweep's runtime; points at or under the
// budget run requestsPerPoint blocks unchanged.
const blockPageBudget = 8192

// blockCacheSectors sizes the buffered mode's cache. The sweep reads each
// block once, so capacity barely matters — the plateau comes from the
// cache-management CPU, not from hit rate.
const blockCacheSectors = 16 << 10

// blockMode selects the software path above the ring for one Figure 9 line.
type blockMode struct {
	name     string
	batching bool // request merging + indirect descriptors (the fast path)
	buffered bool // interpose the conventional buffer cache
}

// Fig9BlockRead regenerates Figure 9 through the real device path: a guest
// boots with a virtual block device and streams sequential reads at queue
// depth 32, so every byte crosses the ring, the grant tables and the
// backend. "mirage" runs the fast path (merged queues + indirect
// descriptors), "mirage-unbatched" disables batching so each page costs a
// ring slot and a device op, and "linux-pv-buffered" funnels the same
// requests through the conventional buffer cache, whose serialized
// management CPU is the ~300 MB/s plateau of the paper's figure.
func Fig9BlockRead(rc core.Config, sizesKiB []int, requestsPerPoint int) *Result {
	modes := []blockMode{
		{name: "mirage", batching: true},
		{name: "mirage-unbatched"},
		{name: "linux-pv-buffered", batching: true, buffered: true},
	}
	r := &Result{
		ID:     "fig9",
		Title:  "Sequential block read throughput (queue depth 32)",
		XLabel: "block size (KiB)",
		YLabel: "MiB/s",
		Notes: []string{
			"paper: direct I/O reaches ~1.6 GB/s; the buffer cache plateaus ~300 MB/s",
			"every series runs the full guest path: ring, grants, blkback, SSD model",
		},
	}
	for _, mode := range modes {
		s := Series{Name: mode.name}
		for i, kib := range sizesKiB {
			blocks := blockPointBlocks(kib<<10, requestsPerPoint)
			mibs, appendix := blockRunMiBs(rc, mode, kib<<10, blocks)
			s.X = append(s.X, float64(kib))
			s.Y = append(s.Y, mibs)
			if i == len(sizesKiB)-1 {
				r.Metrics = append(r.Metrics, fmt.Sprintf("[%s, %d KiB]", mode.name, kib))
				r.Metrics = append(r.Metrics, appendix...)
			}
		}
		r.Series = append(r.Series, s)
	}
	return r
}

// blockPointBlocks scales a point's block count to the page budget.
func blockPointBlocks(blockBytes, requested int) int {
	pages := (blockBytes + cstruct.PageSize - 1) / cstruct.PageSize
	blocks := requested
	if blocks*pages > blockPageBudget {
		blocks = blockPageBudget / pages
	}
	if blocks < 4 {
		blocks = 4
	}
	return blocks
}

// blockRunMiBs boots a guest with a virtual block device and reads blocks
// sequential blocks of blockBytes each at queue depth blockQueueDepth,
// returning MiB/s of simulated throughput (measured from first issue to
// last completion, excluding boot). Blocks larger than a page are issued
// as page-sized requests in one burst; on the fast path those — and
// adjacent small blocks in flight together — merge into indirect
// scatter-gather ring requests.
func blockRunMiBs(rc core.Config, mode blockMode, blockBytes, blocks int) (float64, []string) {
	rn := newRun(rc, "fig9", 31)
	sectorsPerBlock := (blockBytes + storage.SectorSize - 1) / storage.SectorSize
	pagesPerBlock := (sectorsPerBlock + storage.PageSectors - 1) / storage.PageSectors

	var start, finish sim.Time
	completed := 0
	rn.pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "blkbench", Roots: []string{"btree"}},
		Main: func(env *core.Env) int {
			s := env.VM.S
			if !mode.batching {
				env.Blk.SetBatching(false)
			}
			var dev storage.Device = env.Blk
			if mode.buffered {
				dev = conventional.NewBufferedDevice(s, env.Blk, blockCacheSectors)
			}
			fin := lwt.NewPromise[struct{}](s)
			inflight, next := 0, 0
			start = s.K.Now()
			var issue func()
			issueBlock := func(bi int) {
				base := uint64(bi) * uint64(sectorsPerBlock)
				left := sectorsPerBlock
				pending := pagesPerBlock
				for off := 0; left > 0; off += storage.PageSectors {
					n := storage.PageSectors
					if n > left {
						n = left
					}
					left -= n
					rd := dev.Read(base+uint64(off), n)
					lwt.Always(rd, func() {
						if err := rd.Failed(); err != nil {
							panic(err)
						}
						if v := rd.Value(); v != nil {
							v.Release()
						}
						if pending--; pending > 0 {
							return
						}
						inflight--
						completed++
						if completed == blocks {
							finish = s.K.Now()
							fin.Resolve(struct{}{})
							return
						}
						issue()
					})
				}
			}
			issue = func() {
				for inflight < blockQueueDepth && next < blocks {
					bi := next
					next++
					inflight++
					issueBlock(bi)
				}
			}
			issue()
			return env.VM.Main(env.P, fin)
		},
	}, core.DeployOpts{Block: true})

	appendix := rn.finish(10*time.Minute, "cpu_busy", "blk_", "ring_occupancy")
	if completed != blocks {
		panic(fmt.Sprintf("fig9: %d/%d blocks completed (%s, %d B)",
			completed, blocks, mode.name, blockBytes))
	}
	secs := finish.Sub(start).Seconds()
	return float64(blocks) * float64(blockBytes) / (1 << 20) / secs, appendix
}
