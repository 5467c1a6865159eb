package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/blkif"
	"repro/internal/build"
	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/dns"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/storage"
	"repro/internal/tcp"
)

// Wall-clock microbenchmarks for the zero-copy fast path. These measure real
// allocations and nanoseconds per operation (as opposed to the virtual-time
// figures), and feed BENCH_fastpath.json via `make bench`. Each op covers the
// full guest device path: netif TX ring -> netback bridge -> netif RX ring for
// the network three, blkif ring -> blkback -> SSD store for the block two.

// BenchmarkFastpathFramePath: one op is a full UDP echo round trip between
// two unikernel guests (two frames each way through grant-copy, rings and
// the bridge).
func BenchmarkFastpathFramePath(b *testing.B) {
	pl := core.NewPlatform(17)
	serverIP, clientIP := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	payload := make([]byte, 1024)

	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "echo", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			env.Net.UDP.Bind(7, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				env.Net.SendUDP(src, sp, 7, data.Bytes())
				data.Release()
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: serverIP, Netmask: benchMask}})

	rounds := 0
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "pinger", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			done := lwt.NewPromise[struct{}](env.VM.S)
			env.Net.UDP.Bind(9000, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				data.Release()
				rounds++
				if rounds == b.N {
					done.Resolve(struct{}{})
					return
				}
				env.Net.SendUDP(serverIP, 7, 9000, payload)
			})
			env.Net.SendUDP(serverIP, 7, 9000, payload)
			return env.VM.Main(env.P, done)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: clientIP, Netmask: benchMask}})

	b.ReportAllocs()
	b.ResetTimer()
	if _, err := pl.RunFor(time.Hour); err != nil {
		b.Fatal(err)
	}
	if rounds != b.N {
		b.Fatalf("completed %d/%d rounds", rounds, b.N)
	}
}

// BenchmarkFastpathTCPBulk: one op is a complete 256 KiB TCP transfer
// (connect, bulk send across MSS-sized segments, close) between two real TCP
// stacks over a priced wire.
func BenchmarkFastpathTCPBulk(b *testing.B) {
	l := conventional.LinuxNetProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig8Throughput(core.Config{}, l, l, 1, 256<<10)
	}
}

// BenchmarkFastpathTCPStream: one op is one 256 KiB write on a connection
// that is already established and 64 writes old, between two unikernel
// guests over the full device path — the steady state of a bulk flow, where
// the send queue refills, the receiver's queues have found their depth and
// every free list is warm. (FastpathTCPBulk's op is a connection's first and
// only write, on a platform built for it.)
func BenchmarkFastpathTCPStream(b *testing.B) {
	const block, warmup = 256 << 10, 64
	pl := core.NewPlatform(37)
	sinkIP, srcIP := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	received, written := 0, 0

	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "sink", Roots: []string{"tcp"}},
		Main: func(env *core.Env) int {
			l, err := env.Net.TCP.Listen(5001)
			if err != nil {
				return 1
			}
			lwt.Map(l.Accept(), func(c *tcp.Conn) struct{} {
				var loop func()
				loop = func() {
					rd := c.Read(block)
					lwt.Always(rd, func() {
						if rd.Failed() != nil || len(rd.Value()) == 0 {
							return
						}
						received += len(rd.Value())
						if received == (warmup+b.N)*block {
							env.VM.S.K.Stop()
						}
						loop()
					})
				}
				loop()
				return struct{}{}
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(24*time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: sinkIP, Netmask: benchMask}})

	var measure *lwt.Promise[struct{}] // resolved once the warm-up has drained
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "source", Roots: []string{"tcp"}},
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			s := env.VM.S
			measure = lwt.NewPromise[struct{}](s)
			payload := make([]byte, block)
			lwt.Map(env.Net.TCP.Connect(sinkIP, 5001), func(c *tcp.Conn) struct{} {
				var write func()
				write = func() {
					if written == warmup+b.N {
						return
					}
					written++
					next := write
					if written == warmup {
						next = func() { lwt.Always(measure, write) }
					}
					lwt.Always(c.Write(payload), next)
				}
				write()
				return struct{}{}
			})
			return env.VM.Main(env.P, s.Sleep(24*time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: srcIP, Netmask: benchMask}})

	if _, err := pl.RunFor(30 * time.Second); err != nil {
		b.Fatal(err)
	}
	if received != warmup*block {
		b.Fatalf("warm-up delivered %d of %d bytes", received, warmup*block)
	}
	pl.K.After(0, func() { measure.Resolve(struct{}{}) })
	b.SetBytes(block)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := pl.RunFor(time.Hour); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if received != (warmup+b.N)*block {
		b.Fatalf("delivered %d of %d bytes", received, (warmup+b.N)*block)
	}
	if err := pl.Check(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFastpathChecksum: one op is the Internet checksum of one TCP
// segment from its pseudo-header sum, at the two sizes a bulk flow is made of
// — a full-MSS data segment and a bare ACK padded to a minimum frame's
// worth — starting one byte off word alignment, as a payload behind a
// 14-byte Ethernet header does. This is the measurement the unrolling in
// ipv4.FinishChecksum is sized by.
func BenchmarkFastpathChecksum(b *testing.B) {
	for _, n := range []int{1460, 64} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			buf := make([]byte, n+1)[1:]
			for i := range buf {
				buf[i] = byte(i * 131)
			}
			sum := ipv4.PseudoHeaderChecksum(ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2), ipv4.ProtoTCP, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checksumSink = ipv4.FinishChecksum(sum, buf)
			}
		})
	}
}

var checksumSink uint16

// BenchmarkFastpathDNSServe: one op is a DNS query served by a unikernel DNS
// appliance over the full device path (query frame in, response frame out).
func BenchmarkFastpathDNSServe(b *testing.B) {
	pl := core.NewPlatform(23)
	serverIP, clientIP := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	zone := dns.SyntheticZone("bench.local", 512)
	srv := dns.NewServer(zone, true)

	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "dns", Roots: []string{"dns"}},
		Main: func(env *core.Env) int {
			env.Net.UDP.Bind(53, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				resp, _ := srv.Handle(data.Bytes())
				data.Release()
				if resp != nil {
					env.Net.SendUDP(src, srcPort, 53, resp)
				}
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: serverIP, Netmask: benchMask}})

	answered := 0
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "queryperf", Roots: []string{"dns"}},
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			done := lwt.NewPromise[struct{}](env.VM.S)
			ask := func(i int) {
				q := dns.EncodeQuery(uint16(i), fmt.Sprintf("host-%d.bench.local", i%512), dns.TypeA)
				env.Net.SendUDP(serverIP, 53, 3535, q)
			}
			env.Net.UDP.Bind(3535, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				data.Release()
				answered++
				if answered == b.N {
					done.Resolve(struct{}{})
					return
				}
				ask(answered)
			})
			ask(0)
			return env.VM.Main(env.P, done)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: clientIP, Netmask: benchMask}})

	b.ReportAllocs()
	b.ResetTimer()
	if _, err := pl.RunFor(time.Hour); err != nil {
		b.Fatal(err)
	}
	if answered != b.N {
		b.Fatalf("answered %d/%d queries", answered, b.N)
	}
}

// blockGuest boots one guest with a block device and runs main in it until
// the promise it returns completes.
func blockGuest(b *testing.B, seed int64, main func(env *core.Env) lwt.Waiter) {
	pl := core.NewPlatform(seed)
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "blockbench", Roots: []string{"kv", "btree"}},
		Main:  func(env *core.Env) int { return env.VM.Main(env.P, main(env)) },
	}, core.DeployOpts{Block: true})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := pl.RunFor(24 * time.Hour); err != nil {
		b.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFastpathBlockWrite: one op is one 4 KiB page written from the
// guest through blkif's staging copy, the ring and a grant map to the SSD
// model's store, awaited before the next (64 pages, overwritten in turn).
func BenchmarkFastpathBlockWrite(b *testing.B) {
	written := 0
	blockGuest(b, 29, func(env *core.Env) lwt.Waiter {
		page := make([]byte, cstruct.PageSize)
		var next func() *lwt.Promise[struct{}]
		next = func() *lwt.Promise[struct{}] {
			if written == b.N {
				return lwt.Return(env.VM.S, struct{}{})
			}
			page[0] = byte(written)
			sector := uint64(written%64) * blkif.SectorsPerPage
			return lwt.Bind(env.Blk.Write(sector, page), func(*cstruct.View) *lwt.Promise[struct{}] {
				written++
				return next()
			})
		}
		return next()
	})
	if written != b.N {
		b.Fatalf("wrote %d/%d pages", written, b.N)
	}
}

// BenchmarkFastpathKVSet: one op is one DurableKV.Set over blkif — WAL
// append under group commit in bursts of 32 over 64 keys — with a B-tree
// checkpoint folded in whenever 128 KiB of log is dirty.
func BenchmarkFastpathKVSet(b *testing.B) {
	const burst, nkeys = 32, 64
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%06d", i))
	}
	val := make([]byte, 128)
	set := 0
	blockGuest(b, 31, func(env *core.Env) lwt.Waiter {
		s := env.VM.S
		return lwt.Bind(storage.CreateDurableKV(s, env.Blk, 1<<24, kvWALSectors),
			func(kv *storage.DurableKV) *lwt.Promise[struct{}] {
				var next func() *lwt.Promise[struct{}]
				next = func() *lwt.Promise[struct{}] {
					if set == b.N {
						return kv.W.Sync()
					}
					var ws []lwt.Waiter
					for i := 0; i < burst && set < b.N; i++ {
						ws = append(ws, kv.Set(keys[set%nkeys], val))
						set++
					}
					return lwt.Bind(lwt.Join(s, ws...), func(struct{}) *lwt.Promise[struct{}] {
						if kv.DirtyBytes() < kvCheckpointDirty {
							return next()
						}
						return lwt.Bind(kv.Checkpoint(), func(struct{}) *lwt.Promise[struct{}] { return next() })
					})
				}
				return next()
			})
	})
	if set != b.N {
		b.Fatalf("issued %d/%d sets", set, b.N)
	}
}
