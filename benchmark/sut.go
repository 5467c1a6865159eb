package main

// sut.go is the only file of the benchmark that imports the program under
// test. Every call the benchmark makes into repro/internal/... is in this
// file, so the exported functions used here are the benchmark's pinned API
// surface (listed in README.md): a change that alters one of their
// signatures must carry a companion change to this file.
//
// The first half builds the five workloads: each build* function makes a
// fresh core.Platform, deploys the workload's guests on it and returns a
// world the harness (run.go) drives. The second half holds the per-layer
// microbenchmarks of -layers.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/blkif"
	"repro/internal/bufpool"
	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/dns"
	"repro/internal/fleet"
	"repro/internal/grant"
	"repro/internal/httpd"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tcp"
)

var netmask = ipv4.AddrFrom4(255, 255, 255, 0)

// world is one fresh platform with a workload's guests deployed on it.
type world struct {
	pl      *core.Platform
	t0      time.Duration // virtual instant the load starts; set-up runs before it
	limit   time.Duration // virtual time the timed run may take at most
	planned int           // ops the load generators will attempt
	recs    []*recorder   // one per load-generating guest

	// extra adds the workload's own counters (state the registry does not
	// carry: WAL flush counts, blkif merge counts, per-replica requests).
	extra func(c map[string]float64)

	born  time.Time  // when the platform was made; every Deploy follows at once
	mu    sync.Mutex // boots is appended from guest context, on any shard
	boots []bootSample
}

// bootSample is one Deploy → guest Main entered span.
type bootSample struct {
	wallUS float64
	virtNS int64
}

func vnow(env *core.Env) int64 { return int64(env.VM.S.K.Now()) }

// deploy is Platform.Deploy plus the boot span.
func (w *world) deploy(u core.Unikernel, opts core.DeployOpts) {
	main := u.Main
	u.Main = func(env *core.Env) int {
		w.booted(env)
		return main(env)
	}
	w.pl.Deploy(u, opts)
}

// booted closes a guest's boot span: called first thing in its Main.
func (w *world) booted(env *core.Env) {
	b := bootSample{wallUS: float64(time.Since(w.born)) / 1e3, virtNS: vnow(env)}
	w.mu.Lock()
	w.boots = append(w.boots, b)
	w.mu.Unlock()
}

// runSetup advances the platform to just before the load starts: domain
// builds, guest boots, device handshakes and any prepopulation happen here.
func (w *world) runSetup() error {
	_, err := w.pl.RunFor(w.t0 - time.Millisecond)
	return err
}

// runTimed is the measured call: it returns when a guest stops the kernel
// (closed-loop workloads, after their last op) or the limit passes.
func (w *world) runTimed() error {
	_, err := w.pl.RunFor(w.limit)
	return err
}

func (w *world) check() error { return w.pl.Check() }

// counters flattens everything the per-layer count metrics are derived from
// into one map: the obs registry (counters by id; histograms as id#count and
// id#sum), every simulated CPU's busy and queue-wait time, per-domain vCPU
// accounting, and the workload's extras. lines is the registry rendered as
// text, for the repetition digest.
func (w *world) counters() (c map[string]float64, lines []string) {
	c = map[string]float64{}
	snap := w.pl.K.Metrics().Snapshot()
	for _, row := range snap.Rows {
		switch row.Kind {
		case "counter":
			c[row.ID] = float64(row.N)
		case "gauge":
			c[row.ID] = row.F
		case "histogram":
			c[row.ID+"#count"] = float64(row.N)
			c[row.ID+"#sum"] = row.Sum
		}
	}
	for _, cpu := range w.pl.K.CPUs() {
		c["cpu_busy_ns{cpu="+cpu.Name()+"}"] = float64(cpu.BusyTime())
		c["cpu_qwait_ns{cpu="+cpu.Name()+"}"] = float64(cpu.QueueWait())
	}
	for _, st := range w.pl.Host.DomStats() {
		if st.Name == "dom0" {
			continue
		}
		c["guest_vcpu_busy_ns"] += float64(st.VCPUBusy)
		c["guest_runq_wait_ns"] += float64(st.RunqWait)
	}
	if cl := w.pl.Cluster; cl != nil {
		c["sim_cluster_shards"] = float64(cl.Shards())
	}
	if w.extra != nil {
		w.extra(c)
	}
	return c, snap.Lines()
}

// requestPercentile reads a quantile of the registry's httpd_request_us
// histogram (server side, queueing included) over the delta since before.
func (w *world) requestPercentile(before obs.Snapshot, q float64) float64 {
	d := w.pl.K.Metrics().Snapshot().Diff(before).Filter("httpd_request_us")
	for _, row := range d.Rows {
		return obs.QuantileFromBuckets(row.Bounds, row.Buckets, row.N, q)
	}
	return 0
}

func (w *world) registry() obs.Snapshot { return w.pl.K.Metrics().Snapshot() }

// newWorld makes the platform. The platform seed is a constant: the workload
// seed shapes the inputs only.
func newWorld(t0, limit time.Duration, planned int) *world {
	return &world{pl: core.NewPlatform(1), t0: t0, limit: limit, planned: planned, born: time.Now()}
}

// setSharding selects the simulation driver for platforms built afterwards:
// 0 is the single kernel, n > 0 the n-shard cluster on OS threads.
func setSharding(shards int) {
	if shards > 0 {
		core.SetDefaultSharding(shards, true)
	} else {
		core.SetDefaultSharding(1, false)
	}
}

// ---------------------------------------------------------------- tcp_bulk

// buildBulk: a source guest streams flows×blocks 256 KiB writes to a sink
// guest over the full device path, closed loop per flow. The sink checksums
// every byte and completes an op each time a block's worth has arrived.
func buildBulk(in *bulkInput, traced bool) *world {
	bpf := in.blocksPerFlow
	ops := in.flows * bpf
	w := newWorld(2*time.Second, 10*time.Minute, ops)
	rec := newRecorder(traced, ops)
	w.recs = []*recorder{rec}
	sinkIP, srcIP := ipv4.AddrFrom4(10, 0, 0, 2), ipv4.AddrFrom4(10, 0, 0, 1)
	issuedAt := make([]int64, ops)
	flowOfPort := map[uint16]int{}
	flowsDone := 0

	sinkConn := func(env *core.Env, c *tcp.Conn) {
		flow, blk, got, sum := -1, 0, 0, uint32(0)
		var loop func()
		loop = func() {
			readAt := vnow(env)
			rd := c.Read(in.blockBytes)
			lwt.Always(rd, func() {
				if rd.Failed() != nil {
					return // reset: the flow's remaining ops never complete and count as failed
				}
				data := rd.Value()
				if len(data) == 0 {
					c.Close()
					return
				}
				if flow < 0 {
					_, port := c.RemoteAddr()
					f, ok := flowOfPort[port]
					if !ok {
						rec.bad++
						return
					}
					flow = f
				}
				now := vnow(env)
				rec.child(spanRead, flow*bpf+blk, readAt, now)
				for len(data) > 0 {
					if blk >= bpf {
						rec.bad++ // bytes past the end of the flow
						return
					}
					n := in.blockBytes - got
					if n > len(data) {
						n = len(data)
					}
					sum = crc32.Update(sum, castagnoli, data[:n])
					got += n
					data = data[n:]
					if got == in.blockBytes {
						op := flow*bpf + blk
						rec.end(op, issuedAt[op], now, sum == in.crc[in.block(flow, blk)])
						blk, got, sum = blk+1, 0, 0
						if blk == bpf {
							flowsDone++
							if flowsDone == in.flows {
								env.VM.S.K.Stop()
							}
						}
					}
				}
				loop()
			})
		}
		loop()
	}

	w.deploy(core.Unikernel{
		Build: build.Config{Name: "sink", Roots: []string{"tcp"}},
		Main: func(env *core.Env) int {
			l, err := env.Net.TCP.Listen(5001)
			if err != nil {
				return 1
			}
			var accept func()
			accept = func() {
				lwt.Map(l.Accept(), func(c *tcp.Conn) struct{} {
					sinkConn(env, c)
					accept()
					return struct{}{}
				})
			}
			accept()
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: sinkIP, Netmask: netmask}})

	w.deploy(core.Unikernel{
		Build: build.Config{Name: "source", Roots: []string{"tcp"}},
		Main: func(env *core.Env) int {
			s := env.VM.S
			for f := 0; f < in.flows; f++ {
				f := f
				lwt.Always(s.Sleep(w.t0-time.Duration(vnow(env))), func() {
					connectAt := vnow(env)
					cn := env.Net.TCP.Connect(sinkIP, 5001)
					lwt.Always(cn, func() {
						if cn.Failed() != nil {
							return
						}
						c := cn.Value()
						rec.child(spanConnect, f*bpf, connectAt, vnow(env))
						flowOfPort[c.LocalPort()] = f
						var write func(i int)
						write = func(i int) {
							if i == bpf {
								c.Close()
								return
							}
							op := f*bpf + i
							at := vnow(env)
							issuedAt[op] = at
							rec.begin(at)
							wr := c.Write(in.blocks[in.block(f, i)])
							lwt.Always(wr, func() {
								if wr.Failed() != nil {
									return
								}
								rec.child(spanWrite, op, at, vnow(env))
								write(i + 1)
							})
						}
						write(0)
					})
				})
			}
			return env.VM.Main(env.P, s.Sleep(time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: srcIP, Netmask: netmask}})
	return w
}

// ----------------------------------------------------------------- dns_udp

const dnsWindow = 16 // queries kept in flight, queryperf's default order

// buildDNS: the DNS appliance guest (zone compiled in, memoisation on and
// warmed) against a queryperf-style client guest on its own pCPU that keeps
// dnsWindow queries outstanding and checks each answer's A record.
func buildDNS(in *dnsInput, traced bool) *world {
	ops := len(in.queries)
	serverIP := ipv4.AddrFrom4(10, 0, 0, 53)

	zone := dns.NewZone(in.origin)
	zone.Add(dns.RR{Name: in.origin, Type: dns.TypeNS, Data: "ns0." + in.origin})
	zone.Add(dns.RR{Name: "ns0." + in.origin, Type: dns.TypeA, Data: "10.0.0.53"})
	wire := make([][]byte, len(in.names)) // each name's query datagram, id 0
	for i, name := range in.names {
		zone.Add(dns.RR{Name: name, Type: dns.TypeA, Data: in.addrs[i]})
		wire[i] = dns.EncodeQuery(0, name, dns.TypeA)
	}
	srv := dns.NewServer(zone, true)
	for _, q := range wire {
		srv.Handle(q) // steady state: every name memoised before the load starts
	}

	w := newWorld(2*time.Second, 10*time.Minute, ops)
	rec := newRecorder(traced, ops)
	w.recs = []*recorder{rec}

	w.deploy(core.Unikernel{
		Build:  build.Config{Name: "dns", Roots: []string{"dns"}},
		Memory: 64 << 20,
		Main: func(env *core.Env) int {
			// Handle's cost is the calibrated whole-server per-query CPU
			// cost; zero the generic per-packet charges so it is not
			// counted twice (as the paper's Figure 10 experiment does).
			env.Net.Params = netstack.Params{}
			env.Net.UDP.Bind(53, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				resp, cost := srv.Handle(append([]byte(nil), data.Bytes()...))
				data.Release()
				env.VM.Dom.VCPU.Reserve(cost)
				if resp != nil {
					env.Net.SendUDP(src, srcPort, 53, resp)
				}
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(53), IP: serverIP, Netmask: netmask}})

	w.deploy(core.Unikernel{
		Build:  build.Config{Name: "queryperf", Roots: []string{"dns"}},
		Memory: 32 << 20,
		Main: func(env *core.Env) int {
			s := env.VM.S
			// A 16-bit id names at most one query in flight (the window is
			// far smaller than 65536), so these tables are indexed by id.
			var sentAt [1 << 16]int64
			var opOf [1 << 16]int32
			for i := range opOf {
				opOf[i] = -1
			}
			sent, answered := 0, 0
			send := func() {
				op := sent
				sent++
				id := uint16(op)
				q := append([]byte(nil), wire[in.queries[op]]...)
				q[0], q[1] = byte(id>>8), byte(id)
				now := vnow(env)
				sentAt[id], opOf[id] = now, int32(op)
				rec.begin(now)
				env.Net.SendUDP(serverIP, 53, 3535, q)
			}
			env.Net.UDP.Bind(3535, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				m, err := dns.ParseMessage(data.Bytes())
				data.Release()
				if err != nil || opOf[m.ID] < 0 {
					rec.bad++
					return
				}
				op := int(opOf[m.ID])
				opOf[m.ID] = -1
				want := in.addrs[in.queries[op]]
				ok := len(m.Answers) == 1 && m.Answers[0].Type == dns.TypeA && m.Answers[0].Data == want
				now := vnow(env)
				rec.child(spanUDP, op, sentAt[m.ID], now)
				rec.end(op, sentAt[m.ID], now, ok)
				answered++
				if answered == ops {
					s.K.Stop()
					return
				}
				if sent < ops {
					send()
				}
			})
			lwt.Always(s.Sleep(w.t0-time.Duration(vnow(env))), func() {
				for i := 0; i < dnsWindow && sent < ops; i++ {
					send()
				}
			})
			return env.VM.Main(env.P, s.Sleep(time.Hour))
		},
	}, core.DeployOpts{
		Net: &netstack.Config{MAC: core.MAC(2), IP: ipv4.AddrFrom4(10, 0, 0, 2), Netmask: netmask},
		// queryperf ran on a separate load-generation host (§4.2): its own
		// pCPU, so its packet work does not steal server time.
		PCPU: 1,
	})
	return w
}

// -------------------------------------------------- http_fleet, http_fleet_par

const (
	httpReplicas    = 4
	httpHandlerCost = time.Millisecond
	httpTail        = 300 * time.Millisecond // virtual time left after the last arrival for sessions to finish
)

var httpVIP = ipv4.AddrFrom4(10, 0, 0, 100)

// buildHTTP: load-generator guests drive an open-loop schedule of keep-alive
// sessions at the fleet's VIP; the L4 balancer steers each connection to one
// of four fixed replicas. The same function serves both workloads — whether
// the platform is one kernel or a 4-shard cluster is decided by setSharding
// before it is called. Each client guest owns its recorder.
func buildHTTP(in *httpInput, traced bool) *world {
	w := newWorld(2*time.Second, time.Duration(in.spanNS())+httpTail+time.Millisecond, in.ops())
	paths := make([]string, 10000)
	for i := range paths {
		paths[i] = fmt.Sprintf("/item/%04d", i)
	}

	webMain := fleet.WebMain(httpHandlerCost, in.body, 250*time.Millisecond)
	f := fleet.New(w.pl, fleet.Spec{
		Name:   "web",
		Build:  build.WebAppliance(),
		Memory: 64 << 20,
		Main: func(env *core.Env, r *fleet.Replica) int {
			w.booted(env)
			return webMain(env, r)
		},
		VIP:           httpVIP,
		BaseIP:        ipv4.AddrFrom4(10, 0, 0, 10),
		Netmask:       netmask,
		LBIP:          ipv4.AddrFrom4(10, 0, 0, 99),
		MACBase:       0x40,
		Min:           httpReplicas,
		Max:           httpReplicas,
		Policy:        fleet.RoundRobin,
		ScaleUpConns:  1 << 20, // fixed fleet: the controller never has a reason to act
		Interval:      250 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
	})
	w.extra = func(c map[string]float64) {
		for i, r := range f.Replicas() {
			if r.Srv != nil {
				c[fmt.Sprintf("replica_requests{replica=%d}", i)] = float64(r.Srv.Requests)
			}
		}
	}

	perClient := make([][]int, in.clients)
	for i, s := range in.sessions {
		perClient[s.client] = append(perClient[s.client], i)
	}
	for c := 0; c < in.clients; c++ {
		mine := perClient[c]
		rec := newRecorder(traced, len(mine)*in.reqsPer)
		rec.late = make([]int64, 0, len(mine))
		w.recs = append(w.recs, rec)
		w.deploy(core.Unikernel{
			Build:  build.Config{Name: fmt.Sprintf("loadgen-%d", c), Roots: []string{"http"}},
			Memory: 64 << 20,
			Main: func(env *core.Env) int {
				s := env.VM.S
				var launch func(k int)
				launch = func(k int) {
					if k == len(mine) {
						return
					}
					due := int64(w.t0) + in.sessions[mine[k]].atNS
					wait := time.Duration(due - vnow(env))
					if wait < 0 {
						wait = 0
					}
					lwt.Always(s.Sleep(wait), func() {
						rec.late = append(rec.late, vnow(env)-due)
						httpSessionRun(env, rec, in, paths, mine[k], due)
						launch(k + 1)
					})
				}
				launch(0)
				return env.VM.Main(env.P, s.Sleep(time.Hour))
			},
		}, core.DeployOpts{
			Net: &netstack.Config{
				MAC: core.MAC(0x20 + byte(c)), IP: ipv4.AddrFrom4(10, 0, 0, 200+uint8(c)), Netmask: netmask,
			},
			PCPU: -1,
		})
	}
	return w
}

// httpSessionRun runs one keep-alive session. The first request was due when
// the session was (so its latency includes the connect and any time the
// generator ran late); each later one is due when the previous response
// completed.
func httpSessionRun(env *core.Env, rec *recorder, in *httpInput, paths []string, sess int, due int64) {
	firstOp := sess * in.reqsPer
	rec.begin(due)
	connectAt := vnow(env)
	cn := env.Net.TCP.Connect(httpVIP, 80)
	lwt.Always(cn, func() {
		if cn.Failed() != nil {
			return // refused or timed out: the session's ops never complete and count as failed
		}
		c := cn.Value()
		rec.child(spanConnect, firstOp, connectAt, vnow(env))
		var buf []byte
		readResp := func(op int, then func(*httpd.Response)) {
			var step func()
			step = func() {
				resp, n, err := httpd.ParseResponse(buf)
				if err != nil {
					then(nil)
					return
				}
				if resp != nil {
					buf = buf[n:]
					then(resp)
					return
				}
				readAt := vnow(env)
				rd := c.Read(64 << 10)
				lwt.Always(rd, func() {
					if rd.Failed() != nil || len(rd.Value()) == 0 {
						then(nil)
						return
					}
					rec.child(spanRead, op, readAt, vnow(env))
					buf = append(buf, rd.Value()...)
					step()
				})
			}
			step()
		}
		var issue func(r int, due int64)
		issue = func(r int, due int64) {
			if r == in.reqsPer {
				c.Close()
				return
			}
			op := firstOp + r
			writeAt := vnow(env)
			wr := c.Write(httpd.EncodeRequest(&httpd.Request{Method: "GET", Path: paths[in.sessions[sess].paths[r]]}))
			lwt.Always(wr, func() {
				if wr.Failed() != nil {
					c.Abort()
					return
				}
				rec.child(spanWrite, op, writeAt, vnow(env))
				readResp(op, func(resp *httpd.Response) {
					if resp == nil {
						c.Abort()
						return
					}
					now := vnow(env)
					rec.end(op, due, now, resp.Status == 200 && bytes.Equal(resp.Body, in.body))
					issue(r+1, now)
				})
			})
		}
		issue(0, due)
	})
}

// ---------------------------------------------------------------- kv_mixed

const (
	kvQueueDepth = 32
	// The B-tree is append-only and grows up from sector 0; the log sits far
	// above anything a repetition's checkpoints can reach.
	kvWALBase    = 1 << 26
	kvWALSectors = 1 << 17 // 64 MiB log region: the log only rewinds when truncated while idle, so it must hold a whole repetition's records
	// kvCheckpointDirty is the WAL backlog at which the appliance starts a
	// background checkpoint, as a real one would.
	kvCheckpointDirty = 128 << 10
)

// buildKV: the durable-KV appliance guest over blkif → blkback → the SSD
// model. Set-up creates the store, prepopulates every key and checkpoints;
// the timed phase drives the seeded Get/Set mix closed loop at queue depth
// 32. A Get is checked against the versions the harness knows were written.
func buildKV(in *kvInput, traced bool) *world {
	ops := len(in.ops)
	w := newWorld(20*time.Second, 30*time.Minute, ops)
	rec := newRecorder(traced, ops)
	w.recs = []*recorder{rec}
	keys := make([][]byte, in.nkeys)
	for i := range keys {
		keys[i] = kvKey(int32(i))
	}
	var kv *storage.DurableKV
	var blk *blkif.Blkif
	checkpoints := 0
	w.extra = func(c map[string]float64) {
		if kv == nil {
			return
		}
		c["wal_flushes"] = float64(kv.W.Flushes)
		c["wal_grouped_max"] = float64(kv.W.GroupedMax)
		c["kv_checkpoints"] = float64(checkpoints)
		c["blkif_reads"] = float64(blk.Reads)
		c["blkif_writes"] = float64(blk.Writes)
		c["blkif_merged"] = float64(blk.Merged)
		c["blkif_indirect"] = float64(blk.Indirect)
	}

	w.deploy(core.Unikernel{
		Build: build.Config{Name: "kvappliance", Roots: []string{"kv", "btree"}},
		Main: func(env *core.Env) int {
			s := env.VM.S
			blk = env.Blk
			val := make([]byte, in.valueBytes)

			// drive is the timed phase.
			drive := func() {
				// floor[k] is the newest Set of key k known complete: a Get
				// issued now must return that version or a later one.
				floor := make([]int32, in.nkeys)
				for i := range floor {
					floor[i] = -1
				}
				next, inflight, completed := 0, 0, 0
				var lastCkpt lwt.Waiter = lwt.Return(s, struct{}{})
				ckptBusy := false
				var issue func()
				finish := func(op int, at int64, ok bool) {
					rec.end(op, at, vnow(env), ok)
					inflight--
					completed++
					if completed < ops {
						issue()
						return
					}
					// Drain the background checkpoint and sync the log, then
					// end the run.
					lwt.Always(lastCkpt, func() {
						lwt.Always(kv.W.Sync(), func() { s.K.Stop() })
					})
				}
				maybeCheckpoint := func() {
					if ckptBusy || kv.DirtyBytes() < kvCheckpointDirty {
						return
					}
					ckptBusy = true
					checkpoints++
					at := vnow(env)
					cp := kv.Checkpoint()
					lastCkpt = cp
					lwt.Always(cp, func() {
						ckptBusy = false
						if cp.Failed() != nil {
							rec.bad++
						}
						rec.child(spanKVCheckpoint, -1, at, vnow(env))
					})
				}
				issue = func() {
					for inflight < kvQueueDepth && next < ops {
						op := next
						o := in.ops[op]
						next++
						inflight++
						at := vnow(env)
						rec.begin(at)
						if o.read {
							atLeast := floor[o.key]
							pr := kv.Get(keys[o.key])
							lwt.Always(pr, func() {
								ok := pr.Failed() == nil
								if ok {
									key, ver, whole := kvDecode(pr.Value())
									ok = whole && len(pr.Value()) == in.valueBytes && key == o.key && ver >= atLeast &&
										(ver == -1 || (int(ver) < ops && !in.ops[ver].read && in.ops[ver].key == o.key))
								}
								rec.child(spanKVGet, op, at, vnow(env))
								finish(op, at, ok)
							})
						} else {
							kvValue(val, o.key, int32(op))
							pr := kv.Set(keys[o.key], val)
							lwt.Always(pr, func() {
								ok := pr.Failed() == nil
								if ok && int32(op) > floor[o.key] {
									floor[o.key] = int32(op)
								}
								rec.child(spanKVSet, op, at, vnow(env))
								finish(op, at, ok)
							})
							maybeCheckpoint()
						}
					}
				}
				issue()
			}

			never := lwt.NewPromise[struct{}](s)
			main := lwt.Bind(storage.CreateDurableKV(s, env.Blk, kvWALBase, kvWALSectors),
				func(created *storage.DurableKV) *lwt.Promise[struct{}] {
					kv = created
					// Prepopulate in bursts of the queue depth (so the WAL's
					// largest group commit is one the timed phase could also
					// produce) and fold the keys into the B-tree.
					var fill func(from int) *lwt.Promise[struct{}]
					fill = func(from int) *lwt.Promise[struct{}] {
						if from >= len(keys) {
							return lwt.Return(s, struct{}{})
						}
						var ws []lwt.Waiter
						for i := from; i < from+kvQueueDepth && i < len(keys); i++ {
							kvValue(val, int32(i), -1)
							ws = append(ws, kv.Set(keys[i], val))
						}
						return lwt.Bind(lwt.Join(s, ws...), func(struct{}) *lwt.Promise[struct{}] { return fill(from + kvQueueDepth) })
					}
					filled := lwt.Bind(fill(0), func(struct{}) *lwt.Promise[struct{}] {
						at := vnow(env)
						cp := kv.Checkpoint()
						lwt.Always(cp, func() { rec.child(spanKVCheckpoint, -1, at, vnow(env)) })
						return cp
					})
					return lwt.Bind(filled, func(struct{}) *lwt.Promise[struct{}] {
						wait := w.t0 - time.Duration(vnow(env))
						if wait < 0 {
							return lwt.FailWith[struct{}](s, fmt.Errorf("kv_mixed: set-up ran past t0 by %v", -wait))
						}
						lwt.Always(s.Sleep(wait), drive)
						return never
					})
				})
			return env.VM.Main(env.P, main)
		},
	}, core.DeployOpts{Block: true})
	return w
}

// ------------------------------------------------------- layer microbenchmarks

// Each micro* function makes n calls into one layer's exported functions, in
// isolation, and returns how long the measured part took and how many heap
// objects it allocated. micro.go batches and repeats them.

// inProc runs body inside a Proc of a fresh kernel with an lwt scheduler, and
// the kernel to completion.
func inProc(body func(k *sim.Kernel, s *lwt.Scheduler, p *sim.Proc)) {
	k := sim.NewKernel(1)
	s := lwt.NewScheduler(k)
	k.Spawn("micro", func(p *sim.Proc) { body(k, s, p) })
	if _, err := k.Run(); err != nil {
		panic(err)
	}
}

// microSimEvent: Kernel.After plus the event firing, one pending at a time.
func microSimEvent(n int) (time.Duration, uint64) {
	k := sim.NewKernel(1)
	left := n
	var fire func()
	fire = func() {
		if left--; left > 0 {
			k.After(time.Microsecond, fire)
		}
	}
	return timed(func() {
		k.After(time.Microsecond, fire)
		if _, err := k.Run(); err != nil {
			panic(err)
		}
	})
}

// microProcSwitch: two Procs ping-pong on Signals — the two-channel goroutine
// hand-off every Proc context switch pays. n switches (n/2 round trips).
func microProcSwitch(n int) (time.Duration, uint64) {
	k := sim.NewKernel(1)
	ping, pong := k.NewSignal("ping"), k.NewSignal("pong")
	rounds := n / 2
	k.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Set()
			p.Wait(pong)
		}
	})
	k.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			p.Wait(ping)
			pong.Set()
		}
	})
	return timed(func() {
		if _, err := k.Run(); err != nil {
			panic(err)
		}
	})
}

// microWheelTimer: Wheel.Schedule plus Cancel of one timer, as a TCP
// connection re-arming its retransmission timer does.
func microWheelTimer(n int) (time.Duration, uint64) {
	k := sim.NewKernel(1)
	w := k.Wheel()
	var t sim.Timer
	t.Init(1, func() {})
	return timed(func() {
		for i := 0; i < n; i++ {
			w.Schedule(&t, k.Now().Add(200*time.Millisecond))
			w.Cancel(&t)
		}
	})
}

// microLwtBind: create a promise, Bind a continuation, Resolve it and let the
// scheduler dispatch both callbacks.
func microLwtBind(n int) (d time.Duration, allocs uint64) {
	inProc(func(k *sim.Kernel, s *lwt.Scheduler, p *sim.Proc) {
		d, allocs = timed(func() {
			for i := 0; i < n; i++ {
				pr := lwt.NewPromise[int](s)
				out := lwt.Bind(pr, func(v int) *lwt.Promise[int] { return lwt.Return(s, v+1) })
				pr.Resolve(i)
				if err := s.Run(p, out); err != nil {
					panic(err)
				}
			}
		})
	})
	return d, allocs
}

// microLwtSleep: Scheduler.Sleep and the wake: a timer-heap push, a park on
// the kernel with a timeout, the event, the resume.
func microLwtSleep(n int) (d time.Duration, allocs uint64) {
	inProc(func(k *sim.Kernel, s *lwt.Scheduler, p *sim.Proc) {
		d, allocs = timed(func() {
			for i := 0; i < n; i++ {
				if err := s.Run(p, s.Sleep(time.Microsecond)); err != nil {
					panic(err)
				}
			}
		})
	})
	return d, allocs
}

// microRing: one request and its response through a shared ring page: push
// and publish the request, pop it, push and publish the response, pop it.
func microRing(n int) (time.Duration, uint64) {
	page := cstruct.Make(cstruct.PageSize)
	front, back := ring.NewFront(page), ring.NewBack(page)
	enc := func(slot *cstruct.View) { slot.PutLE32(0, 7) }
	dec := func(slot *cstruct.View) { _ = slot.LE32(0) }
	return timed(func() {
		for i := 0; i < n; i++ {
			front.PushRequest(enc)
			front.PushRequests()
			back.PopRequest(dec)
			back.PushResponse(enc)
			back.PushResponses()
			front.PopResponse(dec)
		}
	})
}

// microGrant: grant a page for the length of one use and grant-copy an
// MTU-sized frame out of it — netback's TX path per frame.
func microGrant(n int) (time.Duration, uint64) {
	t := grant.NewTable()
	page := cstruct.Make(cstruct.PageSize)
	dst := make([]byte, 1500)
	return timed(func() {
		for i := 0; i < n; i++ {
			if err := t.With(page, true, func(r grant.Ref) error { return t.CopyInto(r, 0, dst) }); err != nil {
				panic(err)
			}
		}
	})
}

// microBufpool: one frame buffer taken from the pool and released.
func microBufpool(n int) (time.Duration, uint64) {
	pool := bufpool.NewPool(2048)
	pool.Get().Release()
	return timed(func() {
		for i := 0; i < n; i++ {
			pool.Get().Release()
		}
	})
}

// microCstruct: one I/O page taken from the pool, a header-skipping sub-view
// made of it, both released.
func microCstruct(n int) (time.Duration, uint64) {
	pool := cstruct.NewPool()
	pool.Get().Release()
	return timed(func() {
		for i := 0; i < n; i++ {
			v := pool.Get()
			sub := v.Sub(42, 1024)
			sub.Release()
			v.Release()
		}
	})
}

// microNetifFrame: n frames through the full guest device path (netif TX
// ring → netback bridge → netif RX ring): n/2 UDP echo round trips of 1 KiB
// between two guests.
func microNetifFrame(n int) (time.Duration, uint64) {
	pl := core.NewPlatform(1)
	serverIP, clientIP := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	payload := make([]byte, 1024)
	rounds, done := n/2, 0
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "echo", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			env.Net.UDP.Bind(7, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				env.Net.SendUDP(src, sp, 7, data.Bytes())
				data.Release()
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: serverIP, Netmask: netmask}})
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "pinger", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			env.Net.UDP.Bind(9000, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				data.Release()
				if done++; done == rounds {
					env.VM.S.K.Stop()
					return
				}
				env.Net.SendUDP(serverIP, 7, 9000, payload)
			})
			lwt.Always(env.VM.S.Sleep(2*time.Second-time.Duration(vnow(env))), func() {
				env.Net.SendUDP(serverIP, 7, 9000, payload)
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: clientIP, Netmask: netmask}})
	if _, err := pl.RunFor(2*time.Second - time.Millisecond); err != nil {
		panic(err)
	}
	d, allocs := timed(func() {
		if _, err := pl.RunFor(time.Hour); err != nil {
			panic(err)
		}
	})
	if done != rounds {
		panic(fmt.Sprintf("micro netif: %d/%d echoes", done, rounds))
	}
	return d, allocs
}

// tcpPair is two tcp.Stacks wired Output → Input through a fixed 15 µs wire,
// each on its own scheduler and daemon Proc — tcp alone, no device path.
type tcpPair struct {
	k      *sim.Kernel
	a, b   *tcp.Stack
	sa, sb *lwt.Scheduler
}

func newTCPPair() *tcpPair {
	k := sim.NewKernel(1)
	tp := &tcpPair{k: k, sa: lwt.NewScheduler(k), sb: lwt.NewScheduler(k)}
	tp.a = tcp.NewStack(tp.sa, ipv4.AddrFrom4(10, 0, 0, 1), tcp.DefaultParams())
	tp.b = tcp.NewStack(tp.sb, ipv4.AddrFrom4(10, 0, 0, 2), tcp.DefaultParams())
	// wire delivers from's segments to to, waking to's scheduler on arrival.
	wire := func(from, to *tcp.Stack, toSched *lwt.Scheduler, name string) {
		rx := k.NewSignal(name)
		toSched.OnSignal(rx, func() {})
		from.Output = func(dst ipv4.Addr, seg tcp.Segment) {
			k.After(15*time.Microsecond, func() {
				to.Input(from.LocalIP, seg)
				rx.Set()
			})
		}
	}
	wire(tp.a, tp.b, tp.sb, "b-rx")
	wire(tp.b, tp.a, tp.sa, "a-rx")
	return tp
}

// run starts a daemon Proc that evaluates s until main completes.
func (tp *tcpPair) run(name string, s *lwt.Scheduler, main lwt.Waiter) {
	tp.k.SpawnDaemon(name, func(p *sim.Proc) { s.Run(p, main) })
}

// microTCPSegment: a bulk transfer of n MSS-sized segments between the two
// stacks: segmentisation, ACK clocking, window updates, reassembly.
func microTCPSegment(n int) (time.Duration, uint64) {
	tp := newTCPPair()
	total := n * tcp.DefaultParams().MSS
	payload := make([]byte, total)
	received := 0
	l, err := tp.b.Listen(5001)
	if err != nil {
		panic(err)
	}
	lwt.Map(l.Accept(), func(c *tcp.Conn) struct{} {
		var loop func()
		loop = func() {
			lwt.Map(c.Read(256<<10), func(data []byte) struct{} {
				received += len(data)
				if len(data) == 0 || received == total {
					tp.k.Stop()
					return struct{}{}
				}
				loop()
				return struct{}{}
			})
		}
		loop()
		return struct{}{}
	})
	tp.run("b", tp.sb, lwt.NewPromise[struct{}](tp.sb))
	tp.run("a", tp.sa, lwt.Bind(tp.a.Connect(tp.b.LocalIP, 5001), func(c *tcp.Conn) *lwt.Promise[int] {
		return lwt.Bind(c.Write(payload), func(int) *lwt.Promise[int] { return lwt.NewPromise[int](tp.sa) })
	}))
	d, allocs := timed(func() {
		if _, err := tp.k.RunFor(time.Hour); err != nil {
			panic(err)
		}
	})
	if received != total {
		panic(fmt.Sprintf("micro tcp: %d/%d bytes", received, total))
	}
	return d, allocs
}

// microTCPConnCycle: n short connections one after another: connect, one
// byte, close from both ends — the handshake, teardown and timer arm/cancel
// cost of a connection that carries almost nothing.
func microTCPConnCycle(n int) (time.Duration, uint64) {
	tp := newTCPPair()
	served := 0
	l, err := tp.b.Listen(80)
	if err != nil {
		panic(err)
	}
	var accept func()
	accept = func() {
		lwt.Map(l.Accept(), func(c *tcp.Conn) struct{} {
			var loop func()
			loop = func() {
				lwt.Map(c.Read(4096), func(data []byte) struct{} {
					if len(data) == 0 {
						c.Close()
						if served++; served == n {
							tp.k.Stop()
						}
						return struct{}{}
					}
					loop()
					return struct{}{}
				})
			}
			loop()
			accept()
			return struct{}{}
		})
	}
	accept()
	tp.run("b", tp.sb, lwt.NewPromise[struct{}](tp.sb))
	one := []byte{1}
	var cycle func(i int)
	cycle = func(i int) {
		if i == n {
			return
		}
		lwt.Map(tp.a.Connect(tp.b.LocalIP, 80), func(c *tcp.Conn) struct{} {
			lwt.Map(c.Write(one), func(int) struct{} {
				c.Close()
				cycle(i + 1)
				return struct{}{}
			})
			return struct{}{}
		})
	}
	tp.sa.Defer(func() { cycle(0) })
	tp.run("a", tp.sa, lwt.NewPromise[struct{}](tp.sa))
	d, allocs := timed(func() {
		if _, err := tp.k.RunFor(time.Hour); err != nil {
			panic(err)
		}
	})
	if served != n {
		panic(fmt.Sprintf("micro tcp: %d/%d connections", served, n))
	}
	return d, allocs
}

// microBlkif: n 4 KiB reads of scattered pages at queue depth 32 from a guest
// over blkif → blkback → the SSD model.
func microBlkif(n int) (time.Duration, uint64) {
	pl := core.NewPlatform(1)
	completed := 0
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "reader", Roots: []string{"btree"}},
		Main: func(env *core.Env) int {
			s := env.VM.S
			next := 0
			var issue func()
			issue = func() {
				if next == n {
					return
				}
				page := uint64(next*7919) % (1 << 20) // scattered, so requests do not merge
				next++
				rd := env.Blk.Read(page*blkif.SectorsPerPage, blkif.SectorsPerPage)
				lwt.Always(rd, func() {
					if rd.Failed() != nil {
						panic(rd.Failed())
					}
					rd.Value().Release()
					if completed++; completed == n {
						s.K.Stop()
						return
					}
					issue()
				})
			}
			lwt.Always(s.Sleep(time.Second-time.Duration(vnow(env))), func() {
				for i := 0; i < kvQueueDepth; i++ {
					issue()
				}
			})
			return env.VM.Main(env.P, s.Sleep(time.Hour))
		},
	}, core.DeployOpts{Block: true})
	if _, err := pl.RunFor(time.Second - time.Millisecond); err != nil {
		panic(err)
	}
	d, allocs := timed(func() {
		if _, err := pl.RunFor(time.Hour); err != nil {
			panic(err)
		}
	})
	if completed != n {
		panic(fmt.Sprintf("micro blkif: %d/%d reads", completed, n))
	}
	return d, allocs
}

// microWALAppend: n durable appends of a KV-sized record to a WAL on the
// in-memory device, one at a time (so each pays its own flush).
func microWALAppend(n int) (d time.Duration, allocs uint64) {
	inProc(func(k *sim.Kernel, s *lwt.Scheduler, p *sim.Proc) {
		w, ready := storage.NewWAL(s, storage.NewMemDevice(s), 0, n/2+64)
		if err := s.Run(p, ready); err != nil {
			panic(err)
		}
		key, val := kvKey(1), make([]byte, kvValueBytes)
		d, allocs = timed(func() {
			for i := 0; i < n; i++ {
				if err := s.Run(p, w.Append(1, key, val)); err != nil {
					panic(err)
				}
			}
		})
	})
	return d, allocs
}

// microBTree: n durable Sets of distinct keys into a fresh copy-on-write
// B-tree on the in-memory device, then n Gets of them.
func microBTree(n int) (set, get time.Duration) {
	inProc(func(k *sim.Kernel, s *lwt.Scheduler, p *sim.Proc) {
		t, ready := storage.NewBTree(s, storage.NewMemDevice(s))
		if err := s.Run(p, ready); err != nil {
			panic(err)
		}
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = kvKey(int32(i))
		}
		val := make([]byte, kvValueBytes)
		set, _ = timed(func() {
			for _, key := range keys {
				if err := s.Run(p, t.Set(key, val)); err != nil {
					panic(err)
				}
			}
		})
		get, _ = timed(func() {
			for _, key := range keys {
				if err := s.Run(p, t.Get(key)); err != nil {
					panic(err)
				}
			}
		})
	})
	return set, get
}

// microDNS: Server.Handle on a 1000-entry zone, every name already memoised
// (hit) or with memoisation off (miss: parse, lookup, compress, encode).
func microDNS(n int, memo bool) (time.Duration, uint64) {
	zone := dns.SyntheticZone("bench.local", 1000)
	srv := dns.NewServer(zone, memo)
	queries := make([][]byte, 1000)
	for i := range queries {
		queries[i] = dns.EncodeQuery(uint16(i), fmt.Sprintf("host-%d.bench.local", i), dns.TypeA)
		srv.Handle(queries[i])
	}
	return timed(func() {
		for i := 0; i < n; i++ {
			if resp, _ := srv.Handle(queries[i%len(queries)]); resp == nil {
				panic("micro dns: no response")
			}
		}
	})
}

// microHTTPParse: the client side of one request: encode it, parse the reply.
func microHTTPParse(n int) (time.Duration, uint64) {
	req := &httpd.Request{Method: "GET", Path: "/item/0042"}
	reply := (&httpd.Response{Status: 200, Body: make([]byte, 512)}).Encode()
	return timed(func() {
		for i := 0; i < n; i++ {
			if len(httpd.EncodeRequest(req)) == 0 {
				panic("micro httpd: empty request")
			}
			if resp, _, err := httpd.ParseResponse(reply); err != nil || resp == nil {
				panic("micro httpd: reply did not parse")
			}
		}
	})
}

// microObsCounter: one increment of a registry counter.
func microObsCounter(n int) (time.Duration, uint64) {
	c := obs.NewRegistry().Counter("bench_total")
	return timed(func() {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})
}
