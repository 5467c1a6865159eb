package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lwt"
	"repro/internal/sim"
)

const (
	testWALBase    = 4096 // sector; leaves 2 MiB for B-tree pages
	testWALSectors = 2048 // 1 MiB record region
)

func TestWALAppendRecoverRoundTrip(t *testing.T) {
	var dev *MemDevice
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev = NewMemDevice(s)
		w, done := NewWAL(s, dev, testWALBase, testWALSectors)
		return lwt.Bind(done, func(struct{}) *lwt.Promise[struct{}] {
			var ws []lwt.Waiter
			for i := 0; i < 20; i++ {
				ws = append(ws, w.Append(1, []byte(fmt.Sprintf("key%02d", i)), bytes.Repeat([]byte{byte(i)}, 100+i)))
			}
			return lwt.Map(lwt.Join(s, ws...), func(struct{}) struct{} { return struct{}{} })
		})
	})
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		d2 := NewMemDeviceFrom(s, dev.Snapshot())
		return lwt.Map(OpenWAL(s, d2, testWALBase, testWALSectors), func(rec *WALRecovery) struct{} {
			if len(rec.Records) != 20 {
				t.Fatalf("recovered %d records, want 20", len(rec.Records))
			}
			for i, r := range rec.Records {
				if r.Seq != uint64(i+1) || string(r.Key) != fmt.Sprintf("key%02d", i) || len(r.Val) != 100+i {
					t.Fatalf("record %d corrupted: seq=%d key=%q vlen=%d", i, r.Seq, r.Key, len(r.Val))
				}
			}
			return struct{}{}
		})
	})
}

func TestWALGroupCommitCoalesces(t *testing.T) {
	// 32 appends in one instant share one barrier flush; under a device
	// with latency, appends arriving mid-flush coalesce into the next one.
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := NewCrashDevice(s, NewMemDevice(s), 50*time.Microsecond)
		w, done := NewWAL(s, dev, testWALBase, testWALSectors)
		return lwt.Bind(done, func(struct{}) *lwt.Promise[struct{}] {
			var ws []lwt.Waiter
			for i := 0; i < 32; i++ {
				ws = append(ws, w.Append(1, []byte(fmt.Sprintf("k%d", i)), []byte("v")))
			}
			first := lwt.Join(s, ws...)
			// While the first flush's device writes are in flight, stage a
			// second wave: they must ride a single follow-up flush.
			second := lwt.Bind(s.Sleep(10*time.Microsecond), func(struct{}) *lwt.Promise[struct{}] {
				var ws2 []lwt.Waiter
				for i := 0; i < 16; i++ {
					ws2 = append(ws2, w.Append(1, []byte(fmt.Sprintf("m%d", i)), []byte("v")))
				}
				return lwt.Map(lwt.Join(s, ws2...), func(struct{}) struct{} { return struct{}{} })
			})
			return lwt.Map(lwt.Join(s, first, second), func(struct{}) struct{} {
				if w.Appends != 48 {
					t.Errorf("Appends = %d, want 48", w.Appends)
				}
				if w.Flushes != 2 {
					t.Errorf("Flushes = %d, want 2 (group commit broken)", w.Flushes)
				}
				if w.GroupedMax < 16 {
					t.Errorf("GroupedMax = %d, want >= 16", w.GroupedMax)
				}
				return struct{}{}
			})
		})
	})
}

func TestWALTornTailDetected(t *testing.T) {
	// Zero the device sectors holding the last records: recovery must
	// return only the intact prefix, never garbage.
	var dev *MemDevice
	var fullLen int
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev = NewMemDevice(s)
		w, done := NewWAL(s, dev, testWALBase, testWALSectors)
		return lwt.Bind(done, func(struct{}) *lwt.Promise[struct{}] {
			var ws []lwt.Waiter
			for i := 0; i < 10; i++ {
				ws = append(ws, w.Append(1, []byte(fmt.Sprintf("key%d", i)), bytes.Repeat([]byte("x"), 200)))
			}
			fullLen = w.off + len(w.staged)
			return lwt.Map(lwt.Join(s, ws...), func(struct{}) struct{} { return struct{}{} })
		})
	})
	// Tear the tail: wipe the last two sectors of the record stream.
	snap := dev.Snapshot()
	lastSector := uint64(testWALBase) + 1 + uint64((fullLen-1)/SectorSize)
	delete(snap, lastSector)
	delete(snap, lastSector-1)
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		d2 := NewMemDeviceFrom(s, snap)
		return lwt.Map(OpenWAL(s, d2, testWALBase, testWALSectors), func(rec *WALRecovery) struct{} {
			if len(rec.Records) >= 10 {
				t.Fatalf("recovered %d records from a torn log, want fewer than 10", len(rec.Records))
			}
			for i, r := range rec.Records {
				if r.Seq != uint64(i+1) || string(r.Key) != fmt.Sprintf("key%d", i) {
					t.Fatalf("surviving record %d corrupted", i)
				}
			}
			// The log must still accept appends after the torn point.
			if pr := rec.W.Append(1, []byte("after"), []byte("tear")); pr.Failed() != nil {
				t.Errorf("append after torn recovery failed: %v", pr.Failed())
			}
			return struct{}{}
		})
	})
}

func TestWALReplayIdempotent(t *testing.T) {
	// Recovering the same image twice yields byte-identical record sets,
	// and applying them twice to a map yields identical state.
	var dev *MemDevice
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev = NewMemDevice(s)
		w, done := NewWAL(s, dev, testWALBase, testWALSectors)
		return lwt.Bind(done, func(struct{}) *lwt.Promise[struct{}] {
			rng := rand.New(rand.NewSource(7))
			var ws []lwt.Waiter
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("key%d", rng.Intn(10)))
				if rng.Intn(4) == 0 {
					ws = append(ws, w.Append(2, k, nil))
				} else {
					ws = append(ws, w.Append(1, k, []byte(fmt.Sprintf("val%d", i))))
				}
			}
			return lwt.Map(lwt.Join(s, ws...), func(struct{}) struct{} { return struct{}{} })
		})
	})
	recover := func() []Record {
		var out []Record
		runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
			d2 := NewMemDeviceFrom(s, dev.Snapshot())
			return lwt.Map(OpenWAL(s, d2, testWALBase, testWALSectors), func(rec *WALRecovery) struct{} {
				out = rec.Records
				return struct{}{}
			})
		})
		return out
	}
	apply := func(recs []Record, times int) string {
		m := map[string]string{}
		for t := 0; t < times; t++ {
			for _, r := range recs {
				if r.Kind == 2 {
					delete(m, string(r.Key))
				} else {
					m[string(r.Key)] = string(r.Val)
				}
			}
		}
		return fmt.Sprint(len(m), m)
	}
	a, b := recover(), recover()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("recovered %d/%d records, want 50", len(a), len(b))
	}
	if apply(a, 1) != apply(b, 1) {
		t.Fatal("two recoveries disagree")
	}
	if apply(a, 1) != apply(a, 2) {
		t.Fatal("replaying twice changed state: replay not idempotent")
	}
}

func TestWALTruncateRestartsCleanly(t *testing.T) {
	// After truncation, stale bytes left mid-region must not resurface:
	// the sequence check rejects them.
	var dev *MemDevice
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev = NewMemDevice(s)
		w, done := NewWAL(s, dev, testWALBase, testWALSectors)
		return lwt.Bind(done, func(struct{}) *lwt.Promise[struct{}] {
			var ws []lwt.Waiter
			for i := 0; i < 8; i++ {
				ws = append(ws, w.Append(1, []byte(fmt.Sprintf("old%d", i)), []byte("stale")))
			}
			return lwt.Bind(lwt.Join(s, ws...), func(struct{}) *lwt.Promise[struct{}] {
				return lwt.Bind(w.Truncate(), func(struct{}) *lwt.Promise[struct{}] {
					if w.LiveBytes() != 0 {
						t.Errorf("LiveBytes = %d after truncate, want 0", w.LiveBytes())
					}
					// Two fresh records overwrite part of the stale stream.
					return lwt.Map(lwt.Join(s,
						w.Append(1, []byte("new0"), []byte("live")),
						w.Append(1, []byte("new1"), []byte("live")),
					), func(struct{}) struct{} { return struct{}{} })
				})
			})
		})
	})
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		d2 := NewMemDeviceFrom(s, dev.Snapshot())
		return lwt.Map(OpenWAL(s, d2, testWALBase, testWALSectors), func(rec *WALRecovery) struct{} {
			if len(rec.Records) != 2 {
				t.Fatalf("recovered %d records, want 2 (stale pre-truncate bytes resurfaced?)", len(rec.Records))
			}
			for i, r := range rec.Records {
				if string(r.Key) != fmt.Sprintf("new%d", i) {
					t.Fatalf("record %d = %q, want new%d", i, r.Key, i)
				}
			}
			return struct{}{}
		})
	})
}

// drillOps is the deterministic op sequence both crash-drill runs apply.
func drillOps(rng *rand.Rand, n int) [][3]string {
	var ops [][3]string // kind, key, val
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("user%03d", rng.Intn(40))
		switch {
		case rng.Intn(6) == 0:
			ops = append(ops, [3]string{"del", key, ""})
		default:
			ops = append(ops, [3]string{"set", key, fmt.Sprintf("profile-%d-%d", i, rng.Intn(1000))})
		}
	}
	return ops
}

// applyDrill drives the op sequence against kv with a mid-stream
// checkpoint, resolving when every op is durable.
func applyDrill(s *lwt.Scheduler, kv *DurableKV, ops [][3]string) *lwt.Promise[struct{}] {
	chain := lwt.Return(s, struct{}{})
	for i, op := range ops {
		op := op
		ckpt := i == len(ops)/2
		chain = lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
			var pr *lwt.Promise[struct{}]
			if op[0] == "del" {
				pr = kv.Delete([]byte(op[1]))
			} else {
				pr = kv.Set([]byte(op[1]), []byte(op[2]))
			}
			if !ckpt {
				return pr
			}
			return lwt.Bind(pr, func(struct{}) *lwt.Promise[struct{}] { return kv.Checkpoint() })
		})
	}
	return chain
}

// TestCrashDrillMidCheckpoint is the seeded crash-at-instant drill: run
// the appliance over a CrashDevice, kill the device at a seeded instant
// while a checkpoint's B-tree writes are in flight, recover from the torn
// image, and require the dump byte-identical to an uninterrupted run.
func TestCrashDrillMidCheckpoint(t *testing.T) {
	const latency = 40 * time.Microsecond
	// Seeded kill instant, chosen to land while the checkpoint's B-tree
	// node writes are mid-flight so the cut genuinely tears a page write.
	const killAfter = 487 * time.Microsecond
	ops := drillOps(rand.New(rand.NewSource(99)), 120)

	// Reference: uninterrupted run over the same device model.
	var wantDump []byte
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev := NewCrashDevice(s, NewMemDevice(s), latency)
		return lwt.Bind(CreateDurableKV(s, dev, testWALBase, testWALSectors), func(kv *DurableKV) *lwt.Promise[struct{}] {
			return lwt.Bind(applyDrill(s, kv, ops), func(struct{}) *lwt.Promise[struct{}] {
				return lwt.Map(kv.Dump(), func(d []byte) struct{} {
					wantDump = d
					return struct{}{}
				})
			})
		})
	})
	if len(wantDump) == 0 {
		t.Fatal("reference run produced an empty dump")
	}

	// Killed run: same ops; once all are acknowledged, start a checkpoint
	// and cut power while its B-tree writes are mid-flight.
	var img map[uint64][]byte
	var torn int
	{
		k := sim.NewKernel(5)
		s := lwt.NewScheduler(k)
		dev := NewCrashDevice(s, NewMemDevice(s), latency)
		killed := lwt.NewPromise[struct{}](s)
		k.Spawn("main", func(p *sim.Proc) {
			main := lwt.Bind(CreateDurableKV(s, dev, testWALBase, testWALSectors), func(kv *DurableKV) *lwt.Promise[struct{}] {
				return lwt.Bind(applyDrill(s, kv, ops), func(struct{}) *lwt.Promise[struct{}] {
					kv.Checkpoint() // never resolves: the kill lands first
					k.At(k.Now().Add(killAfter), func() {
						dev.Kill()
						killed.Resolve(struct{}{})
					})
					return killed
				})
			})
			if err := s.Run(p, main); err != nil {
				t.Errorf("killed run: %v", err)
			}
		})
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !killed.Completed() {
			t.Fatal("kill never fired")
		}
		img = dev.Inner.Snapshot()
		torn = dev.TornWrites
	}
	if torn == 0 {
		t.Fatal("kill instant tore no writes; the drill must cut mid-write")
	}

	// Recover from the torn image and compare dumps.
	recoverDump := func() []byte {
		var got []byte
		runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
			d2 := NewMemDeviceFrom(s, img)
			return lwt.Bind(OpenDurableKV(s, d2, testWALBase, testWALSectors), func(kv *DurableKV) *lwt.Promise[struct{}] {
				if kv.Replayed == 0 {
					t.Error("recovery replayed no WAL records")
				}
				return lwt.Map(kv.Dump(), func(d []byte) struct{} {
					got = d
					return struct{}{}
				})
			})
		})
		return got
	}
	got := recoverDump()
	if !bytes.Equal(got, wantDump) {
		t.Fatalf("recovered state differs from uninterrupted run:\n--- recovered (%d bytes)\n%s\n--- want (%d bytes)\n%s",
			len(got), got, len(wantDump), wantDump)
	}
	// Recovery itself is deterministic: a second recovery from the same
	// image is byte-identical.
	if again := recoverDump(); !bytes.Equal(again, got) {
		t.Fatal("two recoveries from the same image disagree")
	}
}

// TestCrashDrillMidFlushKeepsAckedOps kills mid-WAL-flush: every op whose
// promise resolved before the cut must survive recovery.
func TestCrashDrillMidFlushKeepsAckedOps(t *testing.T) {
	const latency = 40 * time.Microsecond
	acked := map[string]string{}
	var img map[uint64][]byte
	{
		k := sim.NewKernel(5)
		s := lwt.NewScheduler(k)
		dev := NewCrashDevice(s, NewMemDevice(s), latency)
		killed := lwt.NewPromise[struct{}](s)
		k.Spawn("main", func(p *sim.Proc) {
			main := lwt.Bind(CreateDurableKV(s, dev, testWALBase, testWALSectors), func(kv *DurableKV) *lwt.Promise[struct{}] {
				// Waves of sets 30µs apart; the kill lands mid-wave.
				for wave := 0; wave < 8; wave++ {
					wave := wave
					lwt.Always(s.Sleep(time.Duration(wave)*30*time.Microsecond), func() {
						for i := 0; i < 4; i++ {
							key := fmt.Sprintf("w%dk%d", wave, i)
							val := fmt.Sprintf("v%d", wave*10+i)
							pr := kv.Set([]byte(key), []byte(val))
							lwt.Always(pr, func() {
								if pr.Failed() == nil {
									acked[key] = val
								}
							})
						}
					})
				}
				lwt.Always(s.Sleep(155*time.Microsecond), func() {
					dev.Kill()
					killed.Resolve(struct{}{})
				})
				return killed
			})
			if err := s.Run(p, main); err != nil {
				t.Errorf("killed run: %v", err)
			}
		})
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		img = dev.Inner.Snapshot()
	}
	if len(acked) == 0 || len(acked) == 32 {
		t.Fatalf("kill landed outside the interesting window: %d/32 acked", len(acked))
	}
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		d2 := NewMemDeviceFrom(s, img)
		return lwt.Bind(OpenDurableKV(s, d2, testWALBase, testWALSectors), func(kv *DurableKV) *lwt.Promise[struct{}] {
			chain := lwt.Return(s, struct{}{})
			for key, val := range acked {
				key, val := key, val
				chain = lwt.Bind(chain, func(struct{}) *lwt.Promise[struct{}] {
					return lwt.Map(kv.Get([]byte(key)), func(v []byte) struct{} {
						if string(v) != val {
							t.Errorf("acked %s=%s lost (got %q)", key, val, v)
						}
						return struct{}{}
					})
				})
			}
			return chain
		})
	})
}

func TestDurableKVCheckpointAndReopen(t *testing.T) {
	// Checkpoint folds the overlay into the B-tree and truncates the WAL;
	// reopening serves the same data with nothing to replay.
	var dev *MemDevice
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev = NewMemDevice(s)
		return lwt.Bind(CreateDurableKV(s, dev, testWALBase, testWALSectors), func(kv *DurableKV) *lwt.Promise[struct{}] {
			var ws []lwt.Waiter
			for i := 0; i < 30; i++ {
				ws = append(ws, kv.Set([]byte(fmt.Sprintf("key%02d", i)), []byte(fmt.Sprintf("val%d", i))))
			}
			ws = append(ws, kv.Delete([]byte("key05")))
			return lwt.Bind(lwt.Join(s, ws...), func(struct{}) *lwt.Promise[struct{}] {
				return lwt.Map(kv.Checkpoint(), func(struct{}) struct{} {
					if kv.DirtyBytes() != 0 {
						t.Errorf("DirtyBytes = %d after checkpoint", kv.DirtyBytes())
					}
					return struct{}{}
				})
			})
		})
	})
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		d2 := NewMemDeviceFrom(s, dev.Snapshot())
		return lwt.Bind(OpenDurableKV(s, d2, testWALBase, testWALSectors), func(kv *DurableKV) *lwt.Promise[struct{}] {
			if kv.Replayed != 0 {
				t.Errorf("replayed %d records after a clean checkpoint, want 0", kv.Replayed)
			}
			return lwt.Bind(lwt.Map(kv.Get([]byte("key07")), func(v []byte) struct{} {
				if string(v) != "val7" {
					t.Errorf("key07 = %q, want val7", v)
				}
				return struct{}{}
			}), func(struct{}) *lwt.Promise[struct{}] {
				return lwt.Map(kv.Get([]byte("key05")), func(v []byte) struct{} {
					if v != nil {
						t.Errorf("deleted key05 resurfaced: %q", v)
					}
					return struct{}{}
				})
			})
		})
	})
}

// Two overlapping checkpoints: the second one's first tree update finds the
// first one's in flight, so the second fails with ErrUpdateInFlight and
// leaves the log and the overlay as they were; the first folds everything
// in, and the store, live and reopened, holds every key.
func TestDurableKVOverlappingCheckpointFailsCleanly(t *testing.T) {
	const n = 10
	var dev *MemDevice
	var want []byte
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		dev = NewMemDevice(s)
		return lwt.Bind(CreateDurableKV(s, dev, testWALBase, testWALSectors), func(kv *DurableKV) *lwt.Promise[struct{}] {
			var ws []lwt.Waiter
			for i := 0; i < n; i++ {
				ws = append(ws, kv.Set([]byte(fmt.Sprintf("key%02d", i)), []byte(fmt.Sprintf("val%d", i))))
			}
			return lwt.Bind(lwt.Join(s, ws...), func(struct{}) *lwt.Promise[struct{}] {
				dirty := kv.DirtyBytes()
				first, second := kv.Checkpoint(), kv.Checkpoint()
				lwt.Always(second, func() {
					if err := second.Failed(); !errors.Is(err, ErrUpdateInFlight) {
						t.Errorf("overlapping checkpoint: %v, want ErrUpdateInFlight", err)
					}
					if first.Completed() {
						t.Error("the first checkpoint completed before the overlapping one failed")
					}
					if kv.DirtyBytes() != dirty || len(kv.overlay) != n {
						t.Errorf("the failed checkpoint left %d dirty bytes and %d overlay entries, want %d and %d",
							kv.DirtyBytes(), len(kv.overlay), dirty, n)
					}
				})
				return lwt.Bind(first, func(struct{}) *lwt.Promise[struct{}] {
					if kv.DirtyBytes() != 0 || len(kv.overlay) != 0 {
						t.Errorf("after the checkpoint: %d dirty bytes, %d overlay entries, want none", kv.DirtyBytes(), len(kv.overlay))
					}
					return lwt.Map(kv.Dump(), func(d []byte) struct{} { want = d; return struct{}{} })
				})
			})
		})
	})
	if lines := bytes.Count(want, []byte("\n")); lines != n {
		t.Fatalf("the store holds %d keys after the checkpoint, want %d:\n%s", lines, n, want)
	}
	runLwt(t, func(s *lwt.Scheduler) lwt.Waiter {
		return lwt.Bind(OpenDurableKV(s, NewMemDeviceFrom(s, dev.Snapshot()), testWALBase, testWALSectors),
			func(kv *DurableKV) *lwt.Promise[struct{}] {
				return lwt.Map(kv.Dump(), func(d []byte) struct{} {
					if !bytes.Equal(d, want) {
						t.Errorf("reopened store:\n%s\nwant:\n%s", d, want)
					}
					return struct{}{}
				})
			})
	})
}
