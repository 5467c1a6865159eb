package lwt_test

import (
	"fmt"
	"time"

	"repro/internal/lwt"
	"repro/internal/sim"
)

// Example shows the promise style a unikernel application is written in:
// straight-line composition of blocking points, evaluated by the scheduler
// on virtual time.
func Example() {
	k := sim.NewKernel(1)
	s := lwt.NewScheduler(k)
	k.Spawn("main", func(p *sim.Proc) {
		// Two concurrent sleeps: the fast one reports as it wakes, and main
		// proceeds when both have completed.
		fast := lwt.Map(s.Sleep(100*time.Millisecond), func(struct{}) string {
			return fmt.Sprintf("fast woke at t=%v", k.Now())
		})
		slow := s.Sleep(5 * time.Second)
		main := lwt.Bind(lwt.Join(s, fast, slow), func(struct{}) *lwt.Promise[string] {
			return lwt.Return(s, fmt.Sprintf("%s; both done at t=%v", fast.Value(), k.Now()))
		})
		if err := s.Run(p, main); err == nil {
			fmt.Println(main.Value())
		}
	})
	k.Run()
	// Output: fast woke at t=100ms; both done at t=5s
}
