package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blkif"
	"repro/internal/build"
	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/lwt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// KVSweepConfig are the kvsweep knobs, taken as given: internal/experiments
// declares their defaults and ranges and passes checked values.
type KVSweepConfig struct {
	Seed       int64
	Quick      bool
	ValueBytes int // record value size, at most the B-tree's value limit
	ReadPct    int // read share of the timed mix
	QDMax      int // deepest queue depth swept
}

const (
	// kvWALBase leaves the B-tree all sectors below 512 MiB; DurableKV caps
	// the tree there (BTree.MaxPages), far above what a sweep appends.
	kvWALBase    = 1 << 20
	kvWALSectors = 1 << 14 // 8 MiB log region
	// kvCacheSectors sizes the buffered mode's cache.
	kvCacheSectors = 16 << 10
	// kvCheckpointDirty is the WAL backlog that triggers a background
	// checkpoint during the timed phase, like a real appliance would.
	kvCheckpointDirty = 128 << 10
)

// kvOp is one precomputed workload operation.
type kvOp struct {
	read bool
	key  int
}

// kvRunStats are the observables of one (mode, queue depth) point.
type kvRunStats struct {
	kops        float64
	flushes     int
	groupedMax  int
	checkpoints int
	merged      int
	indirect    int
	appendix    []string
}

// KVSweep measures the durable KV appliance — WAL group commit, in-memory
// overlay, B-tree checkpoints — over the real guest block path at queue
// depths 1..QDMax, once with direct ring I/O and once through the
// conventional buffer cache. Direct rings let a burst's WAL flush merge
// into one indirect scatter-gather barrier; the buffer cache charges its
// serialized management CPU per chunk and un-merges the flush, so the
// curves separate as depth grows.
func KVSweep(rc core.Config, cfg KVSweepConfig) *Result {
	nkeys, ops := 384, 4096
	if cfg.Quick {
		nkeys, ops = 128, 1024
	}
	var qds []int
	if cfg.Quick {
		for _, qd := range []int{1, 8, cfg.QDMax} {
			if qd <= cfg.QDMax && (len(qds) == 0 || qd > qds[len(qds)-1]) {
				qds = append(qds, qd)
			}
		}
	} else {
		for qd := 1; qd <= cfg.QDMax; qd *= 2 {
			qds = append(qds, qd)
		}
	}

	r := &Result{
		ID:     "kvsweep",
		Title:  "Durable KV appliance throughput vs queue depth",
		XLabel: "queue depth",
		YLabel: "kops/s",
		Notes: []string{
			fmt.Sprintf("%d ops over %d keys, %d%% reads, %d B values; WAL group commit + B-tree checkpoints over the guest block ring",
				ops, nkeys, cfg.ReadPct, cfg.ValueBytes),
		},
	}
	for _, mode := range []string{"direct", "buffered"} {
		s := Series{Name: mode}
		for i, qd := range qds {
			st := kvSweepRun(rc, mode == "buffered", qd, cfg.Seed, nkeys, ops, cfg.ValueBytes, cfg.ReadPct)
			s.X = append(s.X, float64(qd))
			s.Y = append(s.Y, st.kops)
			r.Notes = append(r.Notes, fmt.Sprintf(
				"%s qd=%d: %.1f kops/s flushes=%d grouped<=%d ckpts=%d merged=%d indirect=%d",
				mode, qd, st.kops, st.flushes, st.groupedMax, st.checkpoints, st.merged, st.indirect))
			if i == len(qds)-1 {
				r.Metrics = append(r.Metrics, fmt.Sprintf("[%s, qd=%d]", mode, qd))
				r.Metrics = append(r.Metrics, st.appendix...)
			}
		}
		r.Series = append(r.Series, s)
	}
	return r
}

// kvSweepRun boots a guest with a block device, builds the durable KV on
// it, prepopulates and checkpoints nkeys keys (untimed), then drives the
// precomputed op mix closed-loop at queue depth qd and returns throughput
// measured from first issue to last completion.
func kvSweepRun(rc core.Config, buffered bool, qd int, seed int64, nkeys, opCount, valueBytes, readPct int) kvRunStats {
	rng := rand.New(rand.NewSource(seed*1000 + int64(qd)))
	ops := make([]kvOp, opCount)
	for i := range ops {
		ops[i] = kvOp{read: rng.Intn(100) < readPct, key: rng.Intn(nkeys)}
	}
	val := make([]byte, valueBytes)
	for i := range val {
		val[i] = byte(i*7 + 3)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

	rn := newRun(rc, "kvsweep", seed)
	var start, finish sim.Time
	completed, checkpoints := 0, 0
	var blk *blkif.Blkif
	var wal *storage.WAL
	rn.pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "kvappliance", Roots: []string{"kv", "btree"}},
		Main: func(env *core.Env) int {
			s := env.VM.S
			blk = env.Blk
			var dev storage.Device = env.Blk
			if buffered {
				dev = conventional.NewBufferedDevice(s, env.Blk, kvCacheSectors)
			}
			fin := lwt.NewPromise[struct{}](s)
			main := lwt.Bind(storage.CreateDurableKV(s, dev, kvWALBase, kvWALSectors),
				func(kv *storage.DurableKV) *lwt.Promise[struct{}] {
					wal = kv.W
					// Prepopulate in one burst (group commit folds it into a
					// handful of flushes) and fold it into the B-tree.
					var ws []lwt.Waiter
					for i := 0; i < nkeys; i++ {
						ws = append(ws, kv.Set(key(i), val))
					}
					setup := lwt.Bind(lwt.Join(s, ws...), func(struct{}) *lwt.Promise[struct{}] {
						return kv.Checkpoint()
					})
					return lwt.Bind(setup, func(struct{}) *lwt.Promise[struct{}] {
						start = s.K.Now()
						var lastCkpt lwt.Waiter = lwt.Return(s, struct{}{})
						ckptBusy := false
						next, inflight := 0, 0
						var issue func()
						finishOp := func(err error) {
							if err != nil {
								panic(err)
							}
							inflight--
							completed++
							if completed < opCount {
								issue()
								return
							}
							finish = s.K.Now()
							// Drain the background checkpoint and sync the log
							// before shutting the appliance down.
							cur := lastCkpt
							lwt.Always(cur, func() {
								sp := kv.W.Sync()
								lwt.Always(sp, func() {
									if err := sp.Failed(); err != nil {
										panic(err)
									}
									fin.Resolve(struct{}{})
								})
							})
						}
						maybeCheckpoint := func() {
							if ckptBusy || kv.DirtyBytes() < kvCheckpointDirty {
								return
							}
							ckptBusy = true
							checkpoints++
							cp := kv.Checkpoint()
							lastCkpt = cp
							lwt.Always(cp, func() {
								ckptBusy = false
								if err := cp.Failed(); err != nil {
									panic(err)
								}
							})
						}
						issue = func() {
							for inflight < qd && next < len(ops) {
								o := ops[next]
								next++
								inflight++
								if o.read {
									pr := kv.Get(key(o.key))
									lwt.Always(pr, func() { finishOp(pr.Failed()) })
								} else {
									pr := kv.Set(key(o.key), val)
									lwt.Always(pr, func() { finishOp(pr.Failed()) })
									maybeCheckpoint()
								}
							}
						}
						issue()
						return fin
					})
				})
			return env.VM.Main(env.P, main)
		},
	}, core.DeployOpts{Block: true})

	appendix := rn.finish(10*time.Minute, "cpu_busy", "blk_", "ring_occupancy")
	if completed != opCount {
		panic(fmt.Sprintf("kvsweep: %d/%d ops completed (buffered=%v qd=%d)",
			completed, opCount, buffered, qd))
	}
	secs := finish.Sub(start).Seconds()
	return kvRunStats{
		kops:        float64(opCount) / secs / 1000,
		flushes:     wal.Flushes,
		groupedMax:  wal.GroupedMax,
		checkpoints: checkpoints,
		merged:      blk.Merged,
		indirect:    blk.Indirect,
		appendix:    appendix,
	}
}
