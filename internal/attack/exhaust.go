package attack

import (
	"bytes"
	"fmt"
	"math/big"
	"strings"
	"time"

	"repro/internal/ca"
	"repro/internal/cms"
	"repro/internal/ipres"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rfc3779"
	"repro/internal/roa"
	"repro/internal/rp"
)

// The resource-exhaustion campaign (CURE, arXiv:2312.01872 §4, and the
// paper's Side Effect 6 framing of authority-controlled content): a hostile
// authority crafts *valid-looking* content sized to exhaust the relying
// party — unbounded delegation chains, giant manifests, deeply nested CMS,
// oversized RFC 3779 extensions, objects larger than any honest repository
// would publish. Every scenario asserts the hard input limits fire before
// input-proportional allocation and the relying party degrades instead of
// dying.

func exhaustScenarios() []Scenario {
	return []Scenario{
		{
			Name:  "exhaust/delegation-depth",
			Paper: "CURE (arXiv:2312.01872) §4; paper §4 (delegation chains)",
			Layer: "rp.maxDepth",
			Doc:   "authority publishes a delegation chain deeper than the relying party's depth bound (32 points); the walk must stop at the bound with a diagnostic, not recurse unboundedly",
			Run:   runDelegationDepth,
		},
		{
			Name:  "exhaust/oversized-object",
			Paper: "CURE (arXiv:2312.01872) §4",
			Layer: "repo.MaxObjectSize",
			Doc:   "repository advertises an object past the transport cap; the client must refuse by declared size, before buffering a byte of body",
			Run:   runOversizedObject,
		},
		{
			Name:  "exhaust/giant-manifest",
			Paper: "CURE (arXiv:2312.01872) §4",
			Layer: "manifest.MaxFileList",
			Doc:   "manifest declares more fileList entries than any honest point publishes; the decoder must reject past the cap and the RP degrade on a garbage manifest",
			Run:   runGiantManifest,
		},
		{
			Name:  "exhaust/cms-nesting-bomb",
			Paper: "CURE (arXiv:2312.01872) §4.2",
			Layer: "cms decoder",
			Doc:   "deeply nested CMS DER must be rejected without stack exhaustion; served in place of a ROA it must fail the manifest hash, degrading the RP",
			Run:   runCMSNestingBomb,
		},
		{
			Name:  "exhaust/rfc3779-blowup",
			Paper: "CURE (arXiv:2312.01872) §4.2; RFC 3779",
			Layer: "rfc3779.MaxExtensionSize",
			Doc:   "oversized resource extension must be rejected before decode; a garbage CA certificate must cost the attacker their own subtree only",
			Run:   runRFC3779Blowup,
		},
	}
}

// memChain builds an in-process delegation chain ta -> c1 -> ... -> cN with
// one ROA at the leaf, returning the anchor and a StoreFetcher over every
// module. Every level holds the anchor's whole resource set, so a chain can
// be as deep as the scenario needs. In-process because the attack is about
// walk depth, not transport.
func memChain(e *Env, depth int) (rp.TrustAnchor, rp.StoreFetcher) {
	cfg := ca.Config{Clock: e.Clock.Now}
	stores := make(rp.StoreFetcher)
	taStore := repo.NewStore()
	stores["ta"] = taStore
	taURI := repo.URI{Host: "mem", Module: "ta"}
	ta, err := ca.NewTrustAnchor("ta", ipres.MustParseSet("10.0.0.0/8"), taStore, taURI, cfg)
	if err != nil {
		e.Fatalf("chain: trust anchor: %v", err)
	}
	parent := ta
	for i := 1; i <= depth; i++ {
		name := fmt.Sprintf("c%d", i)
		st := repo.NewStore()
		stores[name] = st
		child, err := parent.CreateChild(name, ipres.MustParseSet("10.0.0.0/8"), st, repo.URI{Host: "mem", Module: name})
		if err != nil {
			e.Fatalf("chain: child %d: %v", i, err)
		}
		parent = child
	}
	if _, err := parent.IssueROA("leaf", 64512, roa.MustParsePrefix("10.0.0.0/24")); err != nil {
		e.Fatalf("chain: leaf roa: %v", err)
	}
	return rp.TrustAnchor{CertDER: ta.Cert.Raw, URI: taURI}, stores
}

func runDelegationDepth(e *Env) {
	// maxDepth is the relying party's bound on the points one chain walks,
	// the trust anchor's included; the chain's chainDepth+1 points exceed it.
	const maxDepth, chainDepth = 32, 40
	anchor, fetcher := memChain(e, chainDepth)
	hub := obs.NewHub(e.Clock.Now)
	e.SetHub(hub)
	relying := rp.New(rp.Config{Fetcher: fetcher, Clock: e.Clock.Now, Obs: hub}, anchor)
	res, err := relying.Sync(e.Ctx)
	if err != nil {
		e.Fatalf("sync: %v", err)
	}

	e.AssertTerminal(res, obs.HealthDegraded)
	if res.PubPointsVisited != maxDepth {
		e.Failf("walk visited %d points of a %d-point chain, want the bound, %d", res.PubPointsVisited, chainDepth+1, maxDepth)
	}
	if len(res.VRPs) != 0 {
		e.Failf("ROA beyond the depth bound must not validate, got %d VRPs", len(res.VRPs))
	}
	found := false
	for _, d := range res.Diagnostics {
		if d.Err != nil && strings.Contains(d.Err.Error(), "hierarchy too deep") {
			found = true
		}
	}
	if !found {
		e.Failf("depth cutoff must be diagnosed, got %v", res.Diagnostics)
	}
	e.RequireEvent(obs.EventDiagnostic)
}

func runOversizedObject(e *Env) {
	// Decoder layer: the parser itself refuses input past the object cap
	// before any DER work.
	if _, err := cms.Parse(make([]byte, cms.MaxObjectSize+1)); err == nil {
		e.Failf("cms.Parse accepted an object past MaxObjectSize")
	}

	// Transport layer: the repository advertises a 9 MiB object. The client
	// must reject on the declared size — the body is never buffered.
	w := e.NewWorld()
	w.ChildStore.Put("huge.roa", bytes.Repeat([]byte{0xAB}, repo.MaxObjectSize+(1<<20)))
	client := w.Client(ClientOpts{})
	res := w.Sync(w.NewRP(rp.Config{Fetcher: client}))

	e.AssertTerminal(res, obs.HealthDegraded)
	if len(res.VRPs) != 0 {
		e.Failf("point serving an oversized object must not contribute VRPs, got %d", len(res.VRPs))
	}
	e.RequireEvent(obs.EventDiagnostic)
}

func runGiantManifest(e *Env) {
	// Decoder layer: a manifest declaring MaxFileList+1 entries is rejected
	// by count, whatever its byte size.
	m := &manifest.Manifest{Number: big.NewInt(1), ThisUpdate: Epoch, NextUpdate: Epoch.Add(time.Hour)}
	m.Entries = make([]manifest.Entry, manifest.MaxFileList+1)
	for i := range m.Entries {
		m.Entries[i].Name = fmt.Sprintf("o%06d.roa", i)
	}
	der, err := m.MarshalContent()
	if err != nil {
		e.Fatalf("marshal giant manifest: %v", err)
	}
	if _, err := manifest.UnmarshalContent(der); err == nil || !strings.Contains(err.Error(), "fileList entries exceeds") {
		e.Failf("giant fileList must be rejected by count, got err = %v", err)
	}

	// RP layer: the child's manifest is replaced with garbage. BestEffort
	// must report the missing manifest and still admit the independently
	// valid ROA — degraded, not truncated.
	w := e.NewWorld()
	w.ChildStore.Put(w.Child.ManifestFileName(), []byte("not a manifest"))
	res := w.Sync(w.NewRP(rp.Config{Fetcher: w.Client(ClientOpts{})}))
	e.AssertTerminal(res, obs.HealthDegraded)
	if len(res.VRPs) != 1 {
		e.Failf("BestEffort must keep the independently valid ROA, got %d VRPs", len(res.VRPs))
	}
	e.RequireEvent(obs.EventDiagnostic)
}

// wrapSeq wraps der in one ASN.1 SEQUENCE with a correct definite length.
func wrapSeq(der []byte) []byte {
	n := len(der)
	var hdr []byte
	switch {
	case n < 0x80:
		hdr = []byte{0x30, byte(n)}
	case n < 0x100:
		hdr = []byte{0x30, 0x81, byte(n)}
	case n < 0x10000:
		hdr = []byte{0x30, 0x82, byte(n >> 8), byte(n)}
	default:
		hdr = []byte{0x30, 0x83, byte(n >> 16), byte(n >> 8), byte(n)}
	}
	return append(hdr, der...)
}

func runCMSNestingBomb(e *Env) {
	// Decoder layer: 8000 nested SEQUENCEs. The parser must return an
	// error — promptly, without exhausting the stack.
	bomb := []byte{0x05, 0x00} // inner NULL
	for i := 0; i < 8000; i++ {
		bomb = wrapSeq(bomb)
	}
	if _, err := cms.Parse(bomb); err == nil {
		e.Failf("cms.Parse accepted an %d-deep nesting bomb", 8000)
	}
	if _, err := roa.ParseSigned(bomb); err == nil {
		e.Failf("roa.ParseSigned accepted the nesting bomb")
	}

	// RP layer: the bomb served in place of the ROA fails the manifest
	// hash before its bytes ever reach the CMS decoder.
	w := e.NewWorld()
	w.ChildStore.Put("r.roa", bomb)
	res := w.Sync(w.NewRP(rp.Config{Fetcher: w.Client(ClientOpts{})}))
	e.AssertTerminal(res, obs.HealthDegraded)
	if len(res.VRPs) != 0 {
		e.Failf("bombed ROA must not validate, got %d VRPs", len(res.VRPs))
	}
	e.RequireEvent(obs.EventDiagnostic)
}

func runRFC3779Blowup(e *Env) {
	// Decoder layer: both resource-extension decoders refuse input past
	// MaxExtensionSize before any DER work.
	blob := bytes.Repeat([]byte{0x30}, rfc3779.MaxExtensionSize+1)
	if _, err := rfc3779.UnmarshalIPAddrBlocks(blob); err == nil {
		e.Failf("UnmarshalIPAddrBlocks accepted an oversized extension")
	}
	if _, err := rfc3779.UnmarshalASIdentifiers(blob); err == nil {
		e.Failf("UnmarshalASIdentifiers accepted an oversized extension")
	}

	// RP layer: the child CA certificate is replaced with garbage. The
	// damage must be confined to the attacker's own subtree: the TA module
	// still validates, the child's VRPs vanish, the RP reports degraded.
	w := e.NewWorld()
	w.TAStore.Put(w.Child.CertFileName(), blob[:4096])
	res := w.Sync(w.NewRP(rp.Config{Fetcher: w.Client(ClientOpts{})}))
	e.AssertTerminal(res, obs.HealthDegraded)
	if len(res.VRPs) != 0 {
		e.Failf("subtree under a garbage CA cert must drop, got %d VRPs", len(res.VRPs))
	}
	if res.CertsAccepted < 1 {
		e.Failf("the trust anchor itself must still validate")
	}
	e.RequireEvent(obs.EventDiagnostic)
}
