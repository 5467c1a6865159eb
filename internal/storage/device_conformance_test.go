package storage_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/lwt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// captureAtSubmit is the Device contract the storage libraries lean on when
// they encode into one reused buffer: Write takes its own copy of the
// payload before it returns. It writes a full page and a short (one and a
// bit sectors) payload, scribbles over both buffers the moment Write
// returns, and once the writes resolve compares what medium holds with what
// the buffers held at the call.
func captureAtSubmit(t *testing.T, s *lwt.Scheduler, dev storage.Device, medium func(sector uint64) []byte) lwt.Waiter {
	t.Helper()
	type write struct {
		sector uint64
		want   []byte
	}
	var writes []write
	var pending []lwt.Waiter
	for _, w := range []struct {
		sector uint64
		n      int
	}{{64, cstruct.PageSize}, {128, storage.SectorSize + 188}} {
		buf := make([]byte, w.n)
		for i := range buf {
			buf[i] = byte(i*7 + w.n)
		}
		writes = append(writes, write{w.sector, append([]byte(nil), buf...)})
		pr := dev.Write(w.sector, buf)
		for i := range buf {
			buf[i] = 0xEE
		}
		pending = append(pending, pr)
	}
	return lwt.Map(lwt.Join(s, pending...), func(struct{}) struct{} {
		for _, w := range writes {
			var got []byte
			for sec := w.sector; len(got) < len(w.want); sec++ {
				got = append(got, medium(sec)...)
			}
			if !bytes.Equal(got[:len(w.want)], w.want) {
				t.Errorf("sector %d: the medium holds bytes written into the buffer after Write returned", w.sector)
			}
		}
		return struct{}{}
	})
}

// sectorOf reads one sector out of a MemDevice snapshot (zeros if absent).
func sectorOf(d *storage.MemDevice, sector uint64) []byte {
	if b, ok := d.Snapshot()[sector]; ok {
		return b
	}
	return make([]byte, storage.SectorSize)
}

func TestDeviceWriteCapturesPayloadAtSubmit(t *testing.T) {
	onScheduler := func(t *testing.T, fn func(s *lwt.Scheduler) lwt.Waiter) {
		k := sim.NewKernel(3)
		s := lwt.NewScheduler(k)
		k.Spawn("main", func(p *sim.Proc) {
			if err := s.Run(p, fn(s)); err != nil {
				t.Error(err)
			}
		})
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("MemDevice", func(t *testing.T) {
		onScheduler(t, func(s *lwt.Scheduler) lwt.Waiter {
			dev := storage.NewMemDevice(s)
			return captureAtSubmit(t, s, dev, func(sec uint64) []byte { return sectorOf(dev, sec) })
		})
	})
	t.Run("CrashDevice", func(t *testing.T) {
		onScheduler(t, func(s *lwt.Scheduler) lwt.Waiter {
			inner := storage.NewMemDevice(s)
			dev := storage.NewCrashDevice(s, inner, 80*time.Microsecond)
			return captureAtSubmit(t, s, dev, func(sec uint64) []byte { return sectorOf(inner, sec) })
		})
	})
	// The ring-backed devices complete from kernel context, so they run in
	// a guest on the platform, over its SSD.
	onGuest := func(t *testing.T, wrap func(env *core.Env) storage.Device) {
		pl := core.NewPlatform(3)
		pl.Deploy(core.Unikernel{
			Build: build.Config{Name: "writer", Roots: []string{"btree"}},
			Main: func(env *core.Env) int {
				return env.VM.Main(env.P, captureAtSubmit(t, env.VM.S, wrap(env), func(sec uint64) []byte {
					buf := make([]byte, storage.SectorSize)
					pl.SSD.ReadAt(sec, buf)
					return buf
				}))
			},
		}, core.DeployOpts{Block: true})
		if _, err := pl.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := pl.Check(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("Blkif", func(t *testing.T) {
		onGuest(t, func(env *core.Env) storage.Device { return env.Blk })
	})
	t.Run("BufferedDevice", func(t *testing.T) {
		onGuest(t, func(env *core.Env) storage.Device {
			return conventional.NewBufferedDevice(env.VM.S, env.Blk, 64)
		})
	})
}
