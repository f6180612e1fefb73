package ca

import (
	"fmt"
	"testing"

	"repro/internal/ipres"
	"repro/internal/repo"
	"repro/internal/roa"
)

// BenchmarkPublish is one publish at an ISP-shaped authority: the
// synthetic world's ISP (ten ROAs, ten customer CAs with one ROA each,
// under a registry under the anchor), where each op alternately issues and
// deletes one ROA, as the benchmark's churn toggle does. An issue signs the
// ROA's EE, the CRL and the manifest's EE; a delete the last two.
func BenchmarkPublish(b *testing.B) {
	store := func(name string) (*repo.Store, repo.URI) {
		return repo.NewStore(), repo.URI{Host: name + ".example:8873", Module: name}
	}
	s, u := store("iana")
	ta, err := NewTrustAnchor("iana", ipres.MustParseSet("0.0.0.0/0"), s, u, testConfig())
	if err != nil {
		b.Fatal(err)
	}
	s, u = store("rir-0")
	rir, err := ta.CreateChild("rir-0", ipres.MustParseSet("8.0.0.0/8"), s, u)
	if err != nil {
		b.Fatal(err)
	}
	s, u = store("rir-0-isp-0")
	isp, err := rir.CreateChild("rir-0-isp-0", ipres.MustParseSet("8.0.0.0/16"), s, u)
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if _, err := isp.IssueROA(fmt.Sprintf("roa-%d", k), 64497, roa.MustParsePrefix(fmt.Sprintf("8.0.%d.0/20", k*16))); err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("cust-%d", k)
		prefix := fmt.Sprintf("8.0.%d.0/24", 160+k)
		s, u = store(name)
		cust, err := isp.CreateChild(name, ipres.MustParseSet(prefix), s, u)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cust.IssueROA(name+"-roa", ipres.ASN(64498+k), roa.MustParsePrefix(prefix)); err != nil {
			b.Fatal(err)
		}
	}
	toggled := roa.MustParsePrefix("8.0.240.0/20")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			_, err = isp.IssueROA("bench", 4_100_000_000, toggled)
		} else {
			err = isp.DeleteROA("bench")
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
