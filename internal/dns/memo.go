package dns

// Memo memoizes computed responses by key — the 20-line change that took
// the Mirage DNS server from ~40 k to 75–80 k queries/s (paper §4.2).
// A bounded memo evicts least-recently-used entries, so a hot working set
// larger than cap keeps hitting instead of degrading to permanent misses
// once full. Eviction order is a pure function of the access sequence —
// deterministic across same-seed runs.
type Memo struct {
	m   map[string]*memoEntry
	lru *memoEntry // most-recent at front (next), least-recent at back (prev)
	cap int

	Hits, Misses int
}

type memoEntry struct {
	key        string
	val        []byte
	next, prev *memoEntry
}

// NewMemo creates a memo table bounded at cap entries (0 = unbounded).
func NewMemo(cap int) *Memo {
	sentinel := &memoEntry{}
	sentinel.next, sentinel.prev = sentinel, sentinel
	return &Memo{m: map[string]*memoEntry{}, lru: sentinel, cap: cap}
}

// Get returns the memoized response for key, computing and storing it via
// compute on a miss; at capacity the least-recently-used entry makes room.
func (mo *Memo) Get(key string, compute func() []byte) []byte {
	if e, ok := mo.m[key]; ok {
		return mo.hit(e)
	}
	mo.Misses++
	v := compute()
	if mo.cap > 0 && len(mo.m) >= mo.cap {
		victim := mo.lru.prev
		mo.unlink(victim)
		delete(mo.m, victim.key)
	}
	e := &memoEntry{key: key, val: v}
	mo.m[key] = e
	mo.pushFront(e)
	return v
}

// Cached is the hit half of Get for a caller that holds the key as bytes (a
// name still in its packet, say): a memoized key counts and is promoted
// exactly as a Get hit is, and looking it up allocates nothing; an absent
// key changes nothing — the Get that follows counts the miss.
func (mo *Memo) Cached(key []byte) ([]byte, bool) {
	if e, ok := mo.m[string(key)]; ok {
		return mo.hit(e), true
	}
	return nil, false
}

func (mo *Memo) hit(e *memoEntry) []byte {
	mo.Hits++
	mo.moveToFront(e)
	return e.val
}

func (mo *Memo) unlink(e *memoEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (mo *Memo) pushFront(e *memoEntry) {
	e.next = mo.lru.next
	e.prev = mo.lru
	e.next.prev = e
	mo.lru.next = e
}

func (mo *Memo) moveToFront(e *memoEntry) {
	mo.unlink(e)
	mo.pushFront(e)
}

// Len returns the number of memoized entries.
func (mo *Memo) Len() int { return len(mo.m) }
