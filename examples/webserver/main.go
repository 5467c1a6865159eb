// Dynamic web appliance example (§4.4): the paper's "Twitter-like" service
// as a unikernel — an HTTP server over the clean-slate TCP stack, storing
// tweets in the append-only copy-on-write B-tree over the block API.
// Clients POST tweets and GET the last tweets for a user, over the full
// device path.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/ipv4"
	"repro/internal/loadgen"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/storage"
)

var (
	mask     = ipv4.AddrFrom4(255, 255, 255, 0)
	serverIP = ipv4.AddrFrom4(10, 0, 0, 80)
)

// tweetStore is the appliance's storage layer: tweets per user, indexed by
// sequence number in the B-tree (durable before the POST is acknowledged).
type tweetStore struct {
	s    *lwt.Scheduler
	tree *storage.BTree
	seq  map[string]int
}

func (ts *tweetStore) key(user string, n int) []byte {
	return []byte(fmt.Sprintf("t|%s|%08d", user, n))
}

func (ts *tweetStore) post(user string, text []byte) *lwt.Promise[struct{}] {
	n := ts.seq[user]
	ts.seq[user] = n + 1
	return ts.tree.Set(ts.key(user, n), text)
}

func (ts *tweetStore) timeline(user string, max int) *lwt.Promise[[]string] {
	var out []string
	lo := []byte("t|" + user + "|")
	hi := []byte("t|" + user + "|~")
	return lwt.Map(ts.tree.Range(lo, hi, func(k, v []byte) bool {
		out = append(out, string(v))
		return true
	}), func(struct{}) []string {
		if len(out) > max {
			out = out[len(out)-max:]
		}
		return out
	})
}

func main() {
	pl := core.NewPlatform(80)

	var srv *httpd.Server
	pl.Deploy(core.Unikernel{
		Build:  build.WebAppliance(),
		Memory: 64 << 20, // paper: 32 MB footprint vs 256 MB for the Linux appliance
		Main: func(env *core.Env) int {
			ts := &tweetStore{s: env.VM.S, seq: map[string]int{}}
			tree, ready := storage.NewBTree(env.VM.S, env.Blk)
			ts.tree = tree

			srv = httpd.NewServer(env.VM.S, nil)
			srv.Charge = func(d time.Duration) sim.Time { return env.VM.Dom.VCPU.Reserve(d) }
			srv.HandlerAsync = func(req *httpd.Request) *lwt.Promise[*httpd.Response] {
				switch {
				case req.Method == "POST" && strings.HasPrefix(req.Path, "/tweet/"):
					user := strings.TrimPrefix(req.Path, "/tweet/")
					return lwt.Map(ts.post(user, req.Body), func(struct{}) *httpd.Response {
						return &httpd.Response{Status: 201}
					})
				case req.Method == "GET" && strings.HasPrefix(req.Path, "/timeline/"):
					user := strings.TrimPrefix(req.Path, "/timeline/")
					return lwt.Map(ts.timeline(user, 100), func(tweets []string) *httpd.Response {
						return &httpd.Response{Status: 200, Body: []byte(strings.Join(tweets, "\n"))}
					})
				default:
					return lwt.Return(env.VM.S, &httpd.Response{Status: 404})
				}
			}
			return env.VM.Main(env.P, lwt.Bind(ready, func(struct{}) *lwt.Promise[struct{}] {
				l, err := env.Net.TCP.Listen(80)
				if err != nil {
					return lwt.FailWith[struct{}](env.VM.S, err)
				}
				env.Console(fmt.Sprintf("web appliance up: image %d KB, B-tree on vbd", env.Image.SizeKB))
				env.VM.Dom.SignalReady()
				srv.Serve(l)
				return env.VM.S.Sleep(2 * time.Minute)
			}))
		},
	}, core.DeployOpts{
		Net:   &netstack.Config{MAC: core.MAC(80), IP: serverIP, Netmask: mask},
		Block: true,
	})

	// httperf-style client: sessions of 1 POST + GETs.
	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: "httperf", Roots: []string{"http"}},
		Memory: 32 << 20,
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			var reqs []*httpd.Request
			for i := 0; i < 5; i++ {
				reqs = append(reqs,
					&httpd.Request{Method: "POST", Path: "/tweet/anil",
						Body: []byte(fmt.Sprintf("unikernels are small & fast (%d)", i))},
					&httpd.Request{Method: "GET", Path: "/timeline/anil"},
				)
			}
			reqs = append(reqs, &httpd.Request{Method: "GET", Path: "/timeline/nobody"})
			var rs []*httpd.Response
			var t loadgen.Tally
			sess := &loadgen.Sessions{Addr: serverIP, Reqs: reqs, Answer: func(r *httpd.Response) { rs = append(rs, r) }}
			done := lwt.NewPromise[struct{}](env.VM.S)
			sess.Open(env, loadgen.Launch{T: &t}, func() { done.Resolve(struct{}{}) })
			main := lwt.Map(done, func(struct{}) struct{} {
				if t.SessOK == 0 {
					log.Fatal("httperf: session failed")
				}
				last := rs[len(rs)-2] // final timeline for anil
				fmt.Printf("final timeline (%d tweets):\n", strings.Count(string(last.Body), "\n")+1)
				for _, line := range strings.Split(string(last.Body), "\n") {
					fmt.Println("  >", line)
				}
				fmt.Printf("statuses: ")
				for _, r := range rs {
					fmt.Printf("%d ", r.Status)
				}
				fmt.Println()
				return struct{}{}
			})
			return env.VM.Main(env.P, main)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: ipv4.AddrFrom4(10, 0, 0, 2), Netmask: mask}})

	if _, err := pl.RunFor(3 * time.Minute); err != nil {
		log.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver: %d requests on %d connections; SSD writes: %d (tweets durable before 201)\n",
		srv.Requests, srv.ConnsServed, pl.SSD.Writes)
	fmt.Println("(the paper's Figure 12 sweep: go run ./cmd/repro -experiment fig12)")
}
