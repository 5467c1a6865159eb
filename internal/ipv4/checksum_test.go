package ipv4

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refChecksum is RFC 1071 as written — one 16-bit word at a time, the odd
// byte padded on the right, carries folded at the end — and what
// FinishChecksum computed before it summed 64-bit words. It stays here as
// the reference the wide sum is held to.
func refChecksum(sum uint32, b []byte) uint16 {
	s := uint64(sum) // cannot overflow below 2^48 bytes
	for i := 0; i+1 < len(b); i += 2 {
		s += uint64(b[i])<<8 | uint64(b[i+1])
	}
	if len(b)%2 == 1 {
		s += uint64(b[len(b)-1]) << 8
	}
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}

// TestChecksumMatchesReference: every length through four unrolled
// iterations and every tail, at every alignment of the first byte, from a
// zero and a non-zero running sum, over random bytes and over all-ones
// bytes (every addition carries).
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 8+128)
	rng.Read(random)
	ones := make([]byte, len(random))
	for i := range ones {
		ones[i] = 0xff
	}
	for name, buf := range map[string][]byte{"random": random, "ones": ones} {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 128; n++ {
				b := buf[off : off+n]
				for _, sum := range []uint32{0, 0x1fffe, 0xffffffff, PseudoHeaderChecksum(0x0a000001, 0x0a000002, ProtoTCP, n)} {
					if got, want := FinishChecksum(sum, b), refChecksum(sum, b); got != want {
						t.Fatalf("%s bytes, offset %d, length %d, sum %#x: got %#04x, reference %#04x", name, off, n, sum, got, want)
					}
				}
				if got, want := Checksum(b), refChecksum(0, b); got != want {
					t.Fatalf("%s bytes, offset %d, length %d: Checksum %#04x, reference %#04x", name, off, n, got, want)
				}
			}
		}
	}
}

func TestChecksumMatchesReferenceOnLargeBuffers(t *testing.T) {
	f := func(seed int64, n uint16, sum uint32, ones bool) bool {
		b := make([]byte, int(n)+1) // up to 64 KiB
		if ones {
			for i := range b {
				b[i] = 0xff
			}
		} else {
			rand.New(rand.NewSource(seed)).Read(b)
		}
		sum |= 1 // never the zero running sum
		return FinishChecksum(sum, b) == refChecksum(sum, b) && FinishChecksum(sum, b[1:]) == refChecksum(sum, b[1:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzChecksum holds the 64-bit sum to the reference for arbitrary bytes
// and any running sum.
func FuzzChecksum(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0xffffffff), []byte{0xff})
	f.Add(uint32(6+40), []byte("\x0f\xa0\x13\x89\x00\x00\x13\x88\x00\x00\x00\x00\x50\x10\xff\xff\x00\x00\x00\x00 and a payload of odd length"))
	f.Add(uint32(1), []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, sum uint32, b []byte) {
		if got, want := FinishChecksum(sum, b), refChecksum(sum, b); got != want {
			t.Fatalf("sum %#x over %d bytes: got %#04x, reference %#04x", sum, len(b), got, want)
		}
	})
}

// BenchmarkFinishChecksum: one op is the Internet checksum of one TCP
// segment from its pseudo-header sum, at the two sizes a bulk flow is made of
// — a full-MSS data segment and a bare ACK padded to a minimum frame's
// worth — starting one byte off word alignment, as a payload behind a
// 14-byte Ethernet header does. This is the measurement the unrolling in
// FinishChecksum is sized by.
func BenchmarkFinishChecksum(b *testing.B) {
	for _, n := range []int{1460, 64} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			buf := make([]byte, n+1)[1:]
			for i := range buf {
				buf[i] = byte(i * 131)
			}
			sum := PseudoHeaderChecksum(AddrFrom4(10, 0, 0, 1), AddrFrom4(10, 0, 0, 2), ProtoTCP, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checksumSink = FinishChecksum(sum, buf)
			}
		})
	}
}

var checksumSink uint16
