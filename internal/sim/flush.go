package sim

// Flush is a deferred action built once: the one-publish, one-notification
// batching of §3.4.1. Each Arm queues one event; the latest Arm's event runs
// fn(owner) unless Cancel came first, and every earlier event does nothing.
// A site that gathers a burst until the end of an instant arms only when
// nothing is Pending; a site whose burst may still grow arms on every
// addition, and the last Arm does the work. Kept by value in its owner, with
// a pointer owner and a fn that captures nothing, a Flush allocates nothing
// to arm.
type Flush struct {
	fn    func(owner any)
	owner any
	// gen numbers the Arms: odd while the latest Arm is still to run, even
	// once it has fired or been cancelled.
	gen uint64
}

// Init sets what the flush runs.
func (f *Flush) Init(fn func(owner any), owner any) { f.fn, f.owner = fn, owner }

// Arm queues an event at t on k and makes it the one that runs fn.
func (f *Flush) Arm(k *Kernel, t Time) {
	f.gen += 1 + f.gen&1
	k.AtArg(t, fireFlush, f, f.gen)
}

// Pending reports whether an Arm is still to run fn.
func (f *Flush) Pending() bool { return f.gen&1 == 1 }

// Cancel keeps every queued event from running fn.
func (f *Flush) Cancel() { f.gen += f.gen & 1 }

// fireFlush is the event Arm queues, carrying the Arm's gen.
func fireFlush(flush any, gen uint64) {
	if f := flush.(*Flush); gen == f.gen {
		f.gen++
		f.fn(f.owner)
	}
}
