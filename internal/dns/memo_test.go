package dns

import (
	"fmt"
	"testing"
)

func TestMemoComputesOnceAndCounts(t *testing.T) {
	m := NewMemo(0)
	calls := 0
	for i := 0; i < 10; i++ {
		v := m.Get("q", func() []byte { calls++; return []byte("r") })
		if string(v) != "r" {
			t.Fatal("bad memo value")
		}
	}
	if calls != 1 || m.Hits != 9 || m.Misses != 1 {
		t.Errorf("calls=%d hits=%d misses=%d, want 1/9/1", calls, m.Hits, m.Misses)
	}
}

func TestMemoCapBoundsEntries(t *testing.T) {
	m := NewMemo(3)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		m.Get(key, func() []byte { return []byte{byte(i)} })
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want cap 3", m.Len())
	}
}

func TestMemoLRUEvictionDeterministic(t *testing.T) {
	// At cap, the least-recently-used key is evicted; touching a key
	// shields it. The whole sequence is a pure function of access order.
	m := NewMemo(3)
	mk := func(k string) func() []byte { return func() []byte { return []byte(k) } }
	m.Get("a", mk("a"))
	m.Get("b", mk("b"))
	m.Get("c", mk("c"))
	m.Get("a", mk("a")) // refresh a: LRU order is now b < c < a
	m.Get("d", mk("d")) // evicts b
	if m.Len() != 3 {
		t.Fatalf("Len = %d after a fourth key, want 3", m.Len())
	}
	missesBefore := m.Misses
	m.Get("a", mk("a"))
	m.Get("c", mk("c"))
	m.Get("d", mk("d"))
	if m.Misses != missesBefore {
		t.Errorf("survivors a/c/d missed (misses %d -> %d)", missesBefore, m.Misses)
	}
	m.Get("b", mk("b")) // b was evicted: recompute, evicting a (now LRU)
	if m.Misses != missesBefore+1 {
		t.Errorf("misses=%d, want %d", m.Misses, missesBefore+1)
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
	// Determinism: replay the same access sequence on a fresh memo and
	// require identical counters.
	replay := func() (int, int, int) {
		r := NewMemo(3)
		for _, k := range []string{"a", "b", "c", "a", "d", "a", "c", "d", "b"} {
			r.Get(k, mk(k))
		}
		return r.Hits, r.Misses, r.Len()
	}
	h1, mi1, l1 := replay()
	h2, mi2, l2 := replay()
	if h1 != h2 || mi1 != mi2 || l1 != l2 {
		t.Fatalf("same access sequence diverged: %d/%d/%d vs %d/%d/%d", h1, mi1, l1, h2, mi2, l2)
	}
	if h1 != m.Hits || mi1 != m.Misses || l1 != m.Len() {
		t.Fatalf("replay (%d/%d/%d) differs from original (%d/%d/%d)", h1, mi1, l1, m.Hits, m.Misses, m.Len())
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, ok := m.Cached([]byte(k)); ok != (k != "a") {
			t.Errorf("%q cached = %v; want only a evicted", k, ok)
		}
	}
}

func TestMemoHotSetKeepsHittingBeyondCap(t *testing.T) {
	// The pre-LRU behaviour degraded to permanent misses once full; with
	// eviction a hot working set inside cap keeps hitting even after cold
	// keys blow through.
	m := NewMemo(8)
	compute := 0
	mk := func(k string) func() []byte { return func() []byte { compute++; return []byte(k) } }
	// Blow through with 20 cold keys.
	for i := 0; i < 20; i++ {
		m.Get(fmt.Sprintf("cold%d", i), mk("x"))
	}
	// Now a hot set of 4 keys, accessed 10 rounds: first round misses,
	// the rest must all hit.
	computeBefore := compute
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			m.Get(fmt.Sprintf("hot%d", i), mk("h"))
		}
	}
	if got := compute - computeBefore; got != 4 {
		t.Fatalf("hot set recomputed %d times, want 4 (one cold round)", got)
	}
	if m.Len() != 8 {
		t.Errorf("Len = %d, want cap 8", m.Len())
	}
}
