package bench

import (
	"fmt"
	"runtime"
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

// raceEnabled is set by race_test.go: race instrumentation allocates on its
// own account, so the budgets below hold only in a plain build.
var raceEnabled bool

// TestSteadyStateAllocations holds the fast path (§3.4.1: pooled pages,
// batched rings, no per-packet copies) to its per-op allocation budget in
// steady state. Each scenario runs once to pay the process's one-time
// initialisation, then at two lengths under GOMAXPROCS(1); the difference in
// runtime.MemStats.Mallocs over the difference in ops is the per-op cost, so
// platform set-up cancels out. Each budget is pinned within ±allocSlack: a
// change that adds an allocation fails it by path, and one that removes an
// allocation fails it too, asking for the budget to be re-pinned.
//
// A reading is the cost of ops 200 to 600 of a fresh run, and only that
// window is pinned: over it DNSServe's memo goes from cold to warm on its 512
// names and KVSet folds in a fixed number of checkpoints, so other lengths
// read differently.
func TestSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sc := range []struct {
		name   string
		budget float64
		run    func(n int) error
	}{
		{"FramePath", 0.015, framePath},
		{"DNSServe", 18.48, dnsServe},
		{"BlockWrite", 3.005, blockWrite},
		{"KVSet", 5.52, kvSet},
		{"TCPStream", 550.38, tcpStream},
		{"TCPBulk", 1562.02, tcpBulk},
	} {
		got, err := allocsPerOp(sc.run)
		if err != nil {
			t.Errorf("%s: %v", sc.name, err)
			continue
		}
		t.Logf("%s: %.3f allocs/op", sc.name, got)
		switch d := got - sc.budget; {
		case d > allocSlack:
			t.Errorf("%s: %.3f allocs/op, budget %g: the path allocates more per op than it did", sc.name, got, sc.budget)
		case d < -allocSlack:
			t.Errorf("%s: %.3f allocs/op, budget %g: the path allocates less per op; re-pin its budget", sc.name, got, sc.budget)
		}
	}
}

// allocSlack is how far a per-op reading may sit from its budget; repeated
// readings agree within 0.01.
const allocSlack = 0.05

// allocsPerOp reads run's steady-state allocations per op: a warm-up run,
// then the difference between a short and a long run.
func allocsPerOp(run func(n int) error) (float64, error) {
	const short, long = 200, 600
	if err := run(short); err != nil {
		return 0, err
	}
	a, err := mallocs(run, short)
	if err != nil {
		return 0, err
	}
	b, err := mallocs(run, long)
	if err != nil {
		return 0, err
	}
	return float64(b-a) / (long - short), nil
}

func mallocs(run func(n int) error, n int) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := run(n)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

var pairServer, pairClient = ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)

// pair boots server at pairServer and client at pairClient on one host bridge
// and runs the platform until it stops or an hour of virtual time passes.
func pair(seed int64, server, client core.Unikernel) error {
	pl := core.NewPlatform(seed)
	pl.Deploy(server, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: pairServer, Netmask: benchMask}})
	pl.Deploy(client, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: pairClient, Netmask: benchMask}})
	if _, err := pl.RunFor(time.Hour); err != nil {
		return err
	}
	return pl.Check()
}

// framePath: one op is a full UDP echo round trip between two unikernel
// guests — one frame each way through grant copy, the rings and the bridge.
func framePath(n int) error {
	payload := make([]byte, 1024)
	rounds := 0
	err := pair(17, core.Unikernel{
		Build: build.Config{Name: "echo", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			env.Net.UDP.Bind(7, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				env.Net.SendUDP(src, sp, 7, data.Bytes())
				data.Release()
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Hour))
		},
	}, core.Unikernel{
		Build: build.Config{Name: "pinger", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			done := lwt.NewPromise[struct{}](env.VM.S)
			env.Net.UDP.Bind(9000, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				data.Release()
				if rounds++; rounds == n {
					done.Resolve(struct{}{})
					return
				}
				env.Net.SendUDP(pairServer, 7, 9000, payload)
			})
			env.Net.SendUDP(pairServer, 7, 9000, payload)
			return env.VM.Main(env.P, done)
		},
	})
	if err == nil && rounds != n {
		err = fmt.Errorf("completed %d/%d rounds", rounds, n)
	}
	return err
}

// dnsServe: one op is a DNS query served by a unikernel DNS appliance over
// the full device path, query frame in and response frame out.
func dnsServe(n int) error {
	srv := dns.NewServer(dns.SyntheticZone("bench.local", 512), true)
	answered := 0
	err := pair(23, core.Unikernel{
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
	}, core.Unikernel{
		Build: build.Config{Name: "queryperf", Roots: []string{"dns"}},
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			done := lwt.NewPromise[struct{}](env.VM.S)
			ask := func(i int) {
				q := dns.EncodeQuery(uint16(i), fmt.Sprintf("host-%d.bench.local", i%512), dns.TypeA)
				env.Net.SendUDP(pairServer, 53, 3535, q)
			}
			env.Net.UDP.Bind(3535, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				data.Release()
				if answered++; answered == n {
					done.Resolve(struct{}{})
					return
				}
				ask(answered)
			})
			ask(0)
			return env.VM.Main(env.P, done)
		},
	})
	if err == nil && answered != n {
		err = fmt.Errorf("answered %d/%d queries", answered, n)
	}
	return err
}

// tcpStream: one op is one 256 KiB write on an established connection
// between two unikernel guests over the full device path — the steady state
// of a bulk flow, where the send queue refills and every free list is warm.
func tcpStream(n int) error {
	const block = 256 << 10
	received := 0
	err := pair(37, core.Unikernel{
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
						if received += len(rd.Value()); received == n*block {
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
	}, core.Unikernel{
		Build: build.Config{Name: "source", Roots: []string{"tcp"}},
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			payload := make([]byte, block)
			lwt.Map(env.Net.TCP.Connect(pairServer, 5001), func(c *tcp.Conn) struct{} {
				written := 0
				var write func()
				write = func() {
					if written < n {
						written++
						lwt.Always(c.Write(payload), write)
					}
				}
				write()
				return struct{}{}
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(24*time.Hour))
		},
	})
	if err == nil && received != n*block {
		err = fmt.Errorf("delivered %d of %d bytes", received, n*block)
	}
	return err
}

// tcpBulk: one op is a complete 256 KiB transfer — connect, bulk send across
// MSS-sized segments, close — between two TCP stacks over a priced wire,
// each on a kernel built for it.
func tcpBulk(n int) error {
	l := conventional.LinuxNetProfile()
	for i := 0; i < n; i++ {
		if mbps, _ := fig8Throughput(core.Config{}, l, l, 1, 256<<10); mbps <= 0 {
			return fmt.Errorf("transfer %d: %.0f Mb/s", i, mbps)
		}
	}
	return nil
}

// blockGuest boots one guest with a block device and runs main in it until
// the promise it returns completes.
func blockGuest(seed int64, main func(env *core.Env) lwt.Waiter) error {
	pl := core.NewPlatform(seed)
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "blockbench", Roots: []string{"kv", "btree"}},
		Main:  func(env *core.Env) int { return env.VM.Main(env.P, main(env)) },
	}, core.DeployOpts{Block: true})
	if _, err := pl.RunFor(24 * time.Hour); err != nil {
		return err
	}
	return pl.Check()
}

// blockWrite: one op is one 4 KiB page written from the guest through
// blkif's staging copy, the ring and a grant map to the SSD model's store,
// awaited before the next (64 pages, overwritten in turn).
func blockWrite(n int) error {
	written := 0
	err := blockGuest(29, func(env *core.Env) lwt.Waiter {
		page := make([]byte, cstruct.PageSize)
		var next func() *lwt.Promise[struct{}]
		next = func() *lwt.Promise[struct{}] {
			if written == n {
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
	if err == nil && written != n {
		err = fmt.Errorf("wrote %d/%d pages", written, n)
	}
	return err
}

// kvSet: one op is one DurableKV.Set over blkif — WAL append under group
// commit in bursts of 32 over 64 keys — with a B-tree checkpoint folded in
// whenever 128 KiB of log is dirty.
func kvSet(n int) error {
	const burst, nkeys = 32, 64
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%06d", i))
	}
	val := make([]byte, 128)
	set := 0
	err := blockGuest(31, func(env *core.Env) lwt.Waiter {
		s := env.VM.S
		return lwt.Bind(storage.CreateDurableKV(s, env.Blk, 1<<24, kvWALSectors),
			func(kv *storage.DurableKV) *lwt.Promise[struct{}] {
				var next func() *lwt.Promise[struct{}]
				next = func() *lwt.Promise[struct{}] {
					if set == n {
						return kv.W.Sync()
					}
					var ws []lwt.Waiter
					for i := 0; i < burst && set < n; i++ {
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
	if err == nil && set != n {
		err = fmt.Errorf("issued %d/%d sets", set, n)
	}
	return err
}
