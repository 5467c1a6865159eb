package dns_test

import (
	"fmt"

	"repro/internal/dns"
)

// Example shows an authoritative server answering over a Bind9-format zone.
func Example() {
	zone, err := dns.ParseZone(`
$ORIGIN example.org.
$TTL 300
@    IN NS ns0
ns0  IN A  10.0.0.53
www  IN A  10.0.0.80
`)
	if err != nil {
		panic(err)
	}
	srv := dns.NewServer(zone, true) // memoized
	query := dns.EncodeQuery(7, "www.example.org", dns.TypeA)
	resp, _ := srv.Handle(query)
	m, _ := dns.ParseMessage(resp)
	fmt.Printf("id=%d answers=%d %s -> %s\n", m.ID, len(m.Answers), m.Answers[0].Name, m.Answers[0].Data)
	// Output: id=7 answers=1 www.example.org -> 10.0.0.80
}

// Example_memo shows the response-memoization wrapper behind the paper's
// DNS speedup (§4.2).
func Example_memo() {
	m := dns.NewMemo(0)
	compute := 0
	for i := 0; i < 3; i++ {
		m.Get("www.example.org|A", func() []byte {
			compute++
			return []byte("10.0.0.80")
		})
	}
	fmt.Printf("computed %d time(s), hits %d\n", compute, m.Hits)
	// Output: computed 1 time(s), hits 2
}
