// Package dns declares one field of each kind the option check sorts.
package dns

// CompressorKind selects a compressor.
type CompressorKind int

const (
	CompressHash CompressorKind = iota
	CompressTree
)

// Server holds one field per rule of the check.
type Server struct {
	Kind       CompressorKind // NewServer sets CompressTree, nothing else writes it: fails
	Unset      int            // left out of the one literal: fails
	Wire       uint16         // one value, but listed: passes
	Backlog    int            // 128 here, 2 in a test: passes
	Bumped     int            // s.Bumped++: passes
	Added      int            // s.Added += n: passes
	Aliased    int            // &s.Aliased: passes
	Set        int            // s.Set = n: passes
	Inner      inner          // s.Inner.n = n: passes, and so does inner.n
	Buf        []byte         // s.Buf[0] = 1: passes
	Sliced     []byte         // s.Sliced[1:]: passes
	Locked     counter        // s.Locked.inc() on a *counter: passes
	Ranged     int            // for s.Ranged = range n: passes
	Both, Pair int            // s.Both, s.Pair = two(): passes
	cost       int            // unexported, NewServer sets 3: fails
}

// Limits is built twice.
type Limits struct {
	Zero int // 0 once, left out once: one value, fails
	N    int // 1 and 2: passes
}

type inner struct{ n int }

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

// NewServer builds the only Server outside tests.
func NewServer() *Server {
	return &Server{Kind: CompressTree, Wire: 6, Backlog: 128, cost: 3}
}

// Touch writes each field that varies once.
func (s *Server) Touch(n int) []byte {
	s.Bumped++
	s.Added += n
	p := &s.Aliased
	*p = n
	s.Set = n
	s.Inner.n = n
	s.Buf[0] = 1
	s.Locked.inc()
	for s.Ranged = range n {
	}
	s.Both, s.Pair = two()
	_ = []Limits{{Zero: 0, N: 1}, {N: 2}}
	return s.Sliced[1:]
}

func two() (int, int) { return 1, 2 }
