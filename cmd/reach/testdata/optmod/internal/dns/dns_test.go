package dns

import "testing"

func TestBacklog(t *testing.T) {
	s := NewServer()
	s.Backlog = 2
	if s.Touch(1) != nil {
		t.Fail()
	}
}
