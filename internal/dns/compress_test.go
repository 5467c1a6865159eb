package dns_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/dns"
)

// BenchmarkDNSLabelCompression is the §4.2 compression ablation's message
// encoded three ways: the size-first functional map, the naive hashtable and
// no compression. Unlike the simulated metrics, these sub-benchmarks measure
// real CPU time — the difference is purely algorithmic.
func BenchmarkDNSLabelCompression(b *testing.B) {
	msg := bench.CompressionWorkload()
	for _, c := range []struct {
		name string
		comp func() dns.Compressor
	}{
		{"tree-size-first", func() dns.Compressor { return dns.NewTreeCompressor() }},
		{"hashtable", func() dns.Compressor { return dns.NewHashCompressor() }},
		{"uncompressed", func() dns.Compressor { return nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dns.EncodeMessage(msg, c.comp()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
