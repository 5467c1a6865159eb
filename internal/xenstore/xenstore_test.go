package xenstore

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	s := New()
	if err := s.Write("/local/domain/1/device/vif/0/state", "4"); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read("/local/domain/1/device/vif/0/state")
	if err != nil {
		t.Fatal(err)
	}
	if v != "4" {
		t.Errorf("Read = %q, want 4", v)
	}
}

func TestReadMissingPathErrors(t *testing.T) {
	s := New()
	if _, err := s.Read("/nope"); err == nil {
		t.Error("Read of missing path succeeded")
	}
}

func TestRelativePathRejected(t *testing.T) {
	s := New()
	if err := s.Write("relative/path", "x"); err == nil {
		t.Error("relative path accepted")
	}
	if err := s.Write("/a//b", "x"); err == nil {
		t.Error("empty component accepted")
	}
}

// Property: after any sequence of writes, Read returns the last value
// written for every key (sequential consistency of the flat store).
func TestPropLastWriteWins(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New()
		last := map[string]string{}
		for i, op := range ops {
			key := fmt.Sprintf("/k/%d", op%8)
			val := fmt.Sprintf("v%d", i)
			s.Write(key, val)
			last[key] = val
		}
		for k, want := range last {
			if got, err := s.Read(k); err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
