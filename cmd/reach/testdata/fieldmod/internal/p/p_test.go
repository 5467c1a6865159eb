package p

import "testing"

func TestTouch(t *testing.T) {
	var x T
	if x.Touch("ab"); x.TestOnly != 2 || x.TestListed != 2 {
		t.Fail()
	}
}
