package conventional

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/openflow"
)

// TestBootProfilesOrdering: the minimal Linux guest boots faster than the
// Debian+Apache2 one. Mirage has no profile here: its boot is a real
// appliance's, and bench's TestFig6Shape holds it under 50 ms.
func TestBootProfilesOrdering(t *testing.T) {
	mem := uint64(512 << 20)
	minimal := MinimalLinuxBoot().GuestBootTime(mem)
	apache := DebianApacheBoot().GuestBootTime(mem)
	if minimal >= apache {
		t.Errorf("boot ordering: minimal=%v apache=%v", minimal, apache)
	}
}

func TestBootGrowsWithMemory(t *testing.T) {
	p := MinimalLinuxBoot()
	if p.GuestBootTime(2048<<20) <= p.GuestBootTime(64<<20) {
		t.Error("linux boot does not grow with memory")
	}
}

func TestPVParamsCostMoreThanNative(t *testing.T) {
	n, pv := LinuxNative(), LinuxPV()
	if pv.WakeupBase <= n.WakeupBase {
		t.Error("PV wakeup not more expensive than native")
	}
	if pv.WakeupJitterMax <= n.WakeupJitterMax {
		t.Error("PV jitter not wider than native")
	}
}

func TestThreadConfigsOrdering(t *testing.T) {
	cfgs := ThreadConfigs()
	if len(cfgs) != 4 {
		t.Fatalf("got %d configs, want 4", len(cfgs))
	}
	names := []string{"linux-pv", "linux-native", "mirage-malloc", "mirage-extent"}
	for i, want := range names {
		if cfgs[i].Name != want {
			t.Errorf("config %d = %s, want %s", i, cfgs[i].Name, want)
		}
	}
	// Syscall cost strictly decreasing pv -> native -> mirage.
	if !(cfgs[0].Heap.SyscallCost > cfgs[1].Heap.SyscallCost && cfgs[1].Heap.SyscallCost > cfgs[2].Heap.SyscallCost) {
		t.Error("syscall cost ordering violated")
	}
}

func TestJitterSampleWithinBounds(t *testing.T) {
	p := LinuxPV()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		j := JitterSample(p, rng)
		if j < p.WakeupBase || j > p.WakeupBase+p.WakeupJitterMax {
			t.Fatalf("sample %v outside [%v, %v]", j, p.WakeupBase, p.WakeupBase+p.WakeupJitterMax)
		}
	}
}

func TestNetProfilesEncodeThePaperAsymmetry(t *testing.T) {
	l, m := LinuxNetProfile(), MirageNetProfile()
	if !(m.RxPerKB < l.RxPerKB) {
		t.Error("Mirage receive not cheaper (zero-copy)")
	}
	if !(m.TxPerKB > l.TxPerKB) {
		t.Error("Mirage transmit not dearer (type-safe tx)")
	}
}

func TestBufferCacheCapsThroughput(t *testing.T) {
	// Implied throughput at large blocks = 1KB / per-KB cost.
	mbps := 1.0 / bufCachePerKB.Seconds() / (1 << 10) // KB/s -> ~MB/s
	if mbps < 200 || mbps > 420 {
		t.Errorf("buffer cache implies %.0f MB/s, want ~300", mbps)
	}
	if bufferCacheCost(8192) <= bufferCacheCost(1024) {
		t.Error("cache cost not growing with size")
	}
}

func TestDNSProfilesMatchPaperRates(t *testing.T) {
	check := func(name string, cost time.Duration, loK, hiK float64) {
		qps := 1.0 / cost.Seconds() / 1e3
		if qps < loK || qps > hiK {
			t.Errorf("%s = %.0f kq/s, want [%v, %v]", name, qps, loK, hiK)
		}
	}
	check("bind", Bind9Profile().CostPerQuery(1000), 45, 65)
	check("nsd", NSDProfile().CostPerQuery(1000), 60, 80)
	check("minios", NSDMiniOSProfile(false).CostPerQuery(1000), 2, 15)
	if NSDMiniOSProfile(true).CostPerQuery(0) >= NSDMiniOSProfile(false).CostPerQuery(0) {
		t.Error("-O3 not faster than -O")
	}
	// BIND small-zone anomaly (paper fn.6).
	if Bind9Profile().CostPerQuery(100) <= Bind9Profile().CostPerQuery(1000) {
		t.Error("BIND small-zone penalty missing")
	}
}

func TestOFProfilesOrdering(t *testing.T) {
	ps := OFProfiles()
	by := map[string]OFProfile{}
	for _, p := range ps {
		by[p.Name] = p
	}
	// Mirage's per-message cost is its real controller's.
	if !(by["nox-destiny-fast"].PerMsg < openflow.PacketInCost && openflow.PacketInCost < by["maestro"].PerMsg) {
		t.Error("per-message cost ordering violated")
	}
	if by["maestro"].SingleExtra < 5*by["nox-destiny-fast"].SingleExtra {
		t.Error("Maestro single-mode penalty not dominant")
	}
}

func TestWebThroughputScaling(t *testing.T) {
	ap := ApacheStaticWeb()
	if ap.Throughput(6) >= 6*ap.Throughput(1) {
		t.Error("Apache scales perfectly; ScaleExp ineffective")
	}
	mg := MirageStaticWeb()
	if 6*mg.Throughput(1) <= ap.Throughput(6) {
		t.Error("6 unikernels do not beat 6-vCPU Apache")
	}
}

// TestScaledCorrectlyRounded proves each n^e of the scaled table correctly
// rounded, in exact arithmetic: with e = p/q, n^p must lie strictly between
// the q-th powers of the midpoints from the literal to its two neighbouring
// float64s (0.72 is 18/25).
func TestScaledCorrectlyRounded(t *testing.T) {
	ratio := map[float64][2]int64{0.72: {18, 25}, 1: {1, 1}}
	power := func(x *big.Rat, k int64) *big.Rat {
		out := big.NewRat(1, 1)
		for range k {
			out.Mul(out, x)
		}
		return out
	}
	mid := func(a, b float64) *big.Rat {
		m := new(big.Rat).SetFloat64(a)
		return m.Add(m, new(big.Rat).SetFloat64(b)).Quo(m, big.NewRat(2, 1))
	}
	for e, row := range scaled {
		pq, ok := ratio[e]
		if !ok {
			t.Errorf("exponent %v: no exact ratio to check it against", e)
			continue
		}
		for n, v := range row {
			want := power(new(big.Rat).SetInt64(int64(n)), pq[0])
			lo := power(mid(math.Nextafter(v, math.Inf(-1)), v), pq[1])
			hi := power(mid(v, math.Nextafter(v, math.Inf(1))), pq[1])
			if lo.Cmp(want) >= 0 || want.Cmp(hi) >= 0 {
				t.Errorf("%d^%v = %v is not correctly rounded", n, e, v)
			}
		}
	}
}
