// Package p declares one field of each kind the field gate sorts.
package p

// T is written by Touch; what reads each field differs.
type T struct {
	WriteOnly  int    // incremented, never read: fails
	TestOnly   int    // read by p_test.go alone: fails, counted as test-only
	TestListed int    // read by p_test.go alone, keep-listed: passes, counted as test-only
	Tagged     int    `json:"tagged"` // a tag is a read: passes
	Kept       string // never read, keep-listed: passes
	Stale      int    // read by Touch, yet keep-listed: that line fails
	hits       map[key]int
}

// key is a map key: hashing it reads a and b.
type key struct{ a, b int }

// Touch writes every field and reads Stale and hits.
func (t *T) Touch(s string) int {
	*t = T{Kept: s, Tagged: 1, hits: map[key]int{}}
	t.WriteOnly++
	t.TestOnly = len(s)
	t.TestListed = len(s)
	t.hits[key{len(s), 1}]++
	return t.Stale + len(t.hits)
}
