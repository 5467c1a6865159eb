// Package p bumps one field of each kind the twin check sorts.
package p

import "twinmod/internal/obs"

// Stats holds one field per rule of the check.
type Stats struct {
	Sent   int // bumped before a counter: fails
	recvd  int // unexported, bumped after a counter: fails
	Listed int // bumped beside a counter, but listed: passes
	Apart  int // bumped apart from any counter, but listed: stale
}

// Count bumps each field once.
func (s *Stats) Count(c *obs.Counter, n int) {
	s.Sent++
	c.Inc()
	c.Add(int64(n))
	s.recvd += n
	if n > 0 {
		s.Listed++
		c.Inc()
	}
	s.Apart++
}
