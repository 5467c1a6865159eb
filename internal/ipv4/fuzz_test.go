package ipv4

import (
	"testing"

	"repro/internal/cstruct"
)

// FuzzReassemble feeds a random fragment sequence for one datagram id,
// three bytes per fragment (offset in 8-byte units, length, more-fragments
// bit), and holds every completed datagram to a coverage map of what was fed
// since the last completion: its length is the end of the one last fragment,
// and every byte is covered by exactly one fragment and equals the byte that
// fragment carried.
func FuzzReassemble(f *testing.F) {
	f.Add([]byte{0, 16, 1, 2, 16, 1, 4, 5, 0})         // in order
	f.Add([]byte{2, 8, 0, 0, 16, 1})                   // out of order
	f.Add([]byte{0, 16, 1, 1, 8, 1, 3, 8, 0, 2, 8, 1}) // overlap
	f.Add([]byte{0, 16, 1, 0, 16, 1, 2, 8, 0})         // exact duplicate
	f.Add([]byte{2, 8, 0, 3, 8, 1, 0, 8, 1, 1, 8, 1})  // past the final length
	f.Fuzz(func(t *testing.T, b []byte) {
		type frag struct {
			i, off, end int // i numbers the fragment in b
			more        bool
		}
		carried := func(i, pos int) byte { return byte(31*i + pos) }
		r := NewReassembler()
		var fed []frag // fragments fed since the last completion
		for i := 0; i+3 <= len(b); i += 3 {
			fr := frag{i: i / 3, off: int(b[i]%16) * 8, more: b[i+2]&1 == 1}
			fr.end = fr.off + int(b[i+1]%40)
			data := make([]byte, fr.end-fr.off)
			for j := range data {
				data[j] = carried(fr.i, fr.off+j)
			}
			h := Header{Src: 1, Dst: 2, ID: 7, Proto: ProtoUDP, FragOffset: fr.off, MoreFrags: fr.more}
			in := cstruct.Wrap(data)
			out, done := r.Input(h, in)
			if fr.off == 0 && !fr.more { // not a fragment: passed through
				if !done || out != in {
					t.Fatalf("fragment %d: an unfragmented datagram was not passed through", fr.i)
				}
				continue
			}
			fed = append(fed, fr)
			if !done {
				continue
			}
			total := -1
			for _, g := range fed {
				if !g.more {
					if total >= 0 {
						t.Fatalf("fragment %d completed a datagram fed two last fragments", fr.i)
					}
					total = g.end
				}
			}
			if got := out.Bytes(); len(got) != total {
				t.Fatalf("fragment %d completed %d bytes, want the last fragment's end %d", fr.i, len(got), total)
			}
			for pos, c := range out.Bytes() {
				owner := -1
				for _, g := range fed {
					if g.off <= pos && pos < g.end {
						if owner >= 0 {
							t.Fatalf("byte %d of a completed datagram is covered by fragments %d and %d", pos, owner, g.i)
						}
						owner = g.i
					}
				}
				if owner < 0 || c != carried(owner, pos) {
					t.Fatalf("byte %d of a completed datagram is %#02x; covering fragment %d", pos, c, owner)
				}
			}
			fed = fed[:0]
		}
	})
}
