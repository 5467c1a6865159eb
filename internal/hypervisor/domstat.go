package hypervisor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cstruct"
	"repro/internal/obs"
)

// DomStat is one domain's resource accounting snapshot — the per-domain row
// of the virtual xentop. All values are cumulative since domain creation
// and derived purely from virtual-time state, so same-seed runs produce
// byte-identical tables.
type DomStat struct {
	ID       int
	Name     string
	State    string // "running" or the shutdown reason
	MemBytes uint64

	VCPUBusy time.Duration // total vCPU execution time (all vCPUs)
	RunqWait time.Duration // total time work waited behind earlier work

	Notifs int // event-channel notifications (sends + receives, all ports)

	PoolPages int // I/O pages currently referenced
	PoolBytes int // PoolPages × page size

	Threads int // guest lwt threads created (0 if the guest reports none)
	Wakes   int // guest timer wakeups delivered
}

// DomStats snapshots resource accounting for every domain on the host, in
// domain-ID order.
func (h *Host) DomStats() []DomStat {
	out := make([]DomStat, 0, len(h.domains))
	for _, d := range h.domains {
		st := DomStat{
			ID:       d.ID,
			Name:     d.Name,
			State:    "running",
			MemBytes: d.MemBytes,
		}
		if d.Dead {
			st.State = d.Reason.String()
		}
		st.VCPUBusy = d.VCPU.BusyTime()
		st.RunqWait = d.VCPU.QueueWait()
		for _, pt := range d.ports {
			st.Notifs += pt.Sends + pt.Receives
		}
		st.PoolPages = d.Pool.InUse
		st.PoolBytes = st.PoolPages * cstruct.PageSize
		if d.ThreadStats != nil {
			st.Threads, st.Wakes = d.ThreadStats()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PublishDomStats exports every domain's accounting as labeled gauges on m,
// so domstat rows appear next to the rest of the metric snapshot (and in
// the Prometheus exposition).
func (h *Host) PublishDomStats(m *obs.Registry) {
	for _, st := range h.DomStats() {
		dom := obs.L("dom", st.Name)
		m.Gauge("dom_mem_bytes", dom).Set(float64(st.MemBytes))
		m.Gauge("dom_vcpu_busy_seconds", dom).Set(st.VCPUBusy.Seconds())
		m.Gauge("dom_runq_wait_seconds", dom).Set(st.RunqWait.Seconds())
		m.Gauge("dom_evtchn_notifications", dom).Set(float64(st.Notifs))
		m.Gauge("dom_pool_pages", dom).Set(float64(st.PoolPages))
		m.Gauge("dom_pool_bytes", dom).Set(float64(st.PoolBytes))
		m.Gauge("dom_lwt_threads", dom).Set(float64(st.Threads))
		m.Gauge("dom_lwt_wakes", dom).Set(float64(st.Wakes))
	}
}

// FormatDomStats renders stats as an aligned table (the virtual xentop).
func FormatDomStats(stats []DomStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%3s  %-16s %-10s %9s %12s %12s %8s %6s %10s %8s %9s\n",
		"DOM", "NAME", "STATE", "MEM(MiB)", "VCPU(ms)", "RUNQ(ms)", "NOTIFS", "PAGES", "POOL(KiB)", "THREADS", "WAKES")
	for _, st := range stats {
		fmt.Fprintf(&b, "%3d  %-16s %-10s %9.1f %12.3f %12.3f %8d %6d %10d %8d %9d\n",
			st.ID, st.Name, st.State,
			float64(st.MemBytes)/(1<<20),
			float64(st.VCPUBusy)/float64(time.Millisecond),
			float64(st.RunqWait)/float64(time.Millisecond),
			st.Notifs, st.PoolPages, st.PoolBytes/1024, st.Threads, st.Wakes)
	}
	return b.String()
}
