package attack

import (
	"bytes"
	"reflect"
	"time"

	"repro/internal/ipres"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/roa"
	"repro/internal/rov"
	"repro/internal/rp"
	"repro/internal/rtr"
)

// The mutation and flap campaigns. Mutation (CURE, arXiv:2312.01872):
// single-byte corruption sweeps over real signed objects and wire frames —
// every mutant must be parsed without a panic, and a mutant served in place
// of the real object must be rejected by the manifest hash or the
// signature, never admitted. Flap (paper §4, Side Effect 6/7): transport
// pathologies that come and go — intermittent corruption, sustained
// throttling — through which the relying party must converge back to clean.

func mutateScenarios() []Scenario {
	return []Scenario{
		{
			Name:  "mutate/cms-envelope",
			Paper: "CURE (arXiv:2312.01872) §4.2",
			Layer: "cms/roa decoders + manifest hash",
			Doc:   "byte-flip sweep over a real signed ROA: every mutant parses without panic; a served mutant fails the manifest hash and degrades the RP",
			Run:   runMutateCMSEnvelope,
		},
		{
			Name:  "mutate/manifest-bytes",
			Paper: "CURE (arXiv:2312.01872) §4.2",
			Layer: "manifest decoder + CMS signature",
			Doc:   "byte-flip sweep over a real signed manifest: every mutant parses without panic; a served mutant is rejected and the RP degrades, best-effort intact",
			Run:   runMutateManifestBytes,
		},
		{
			Name:  "mutate/rtr-stream",
			Paper: "CURE (arXiv:2312.01872) §4; RFC 8210",
			Layer: "rtr.ReadPDU",
			Doc:   "byte-flip sweep over a real RTR frame stream plus the minimized overflow crashers: every mutant reads without panic, and the RP pipeline stays clean",
			Run:   runMutateRTRStream,
		},
		{
			Name:  "flap/corrupt-rate",
			Paper: "paper §4 (Side Effect 6: server corruption)",
			Layer: "manifest hash + retry cycle",
			Doc:   "intermittent corruption (1 of every 2 requests): the corrupted pass is rejected and degraded, the clean pass converges back to clean",
			Run:   runFlapCorruptRate,
		},
		{
			Name:  "flap/bandwidth-throttle",
			Paper: "Stalloris (arXiv:2205.06064) §5; paper §4 (Side Effect 7)",
			Layer: "request deadline budget",
			Doc:   "sustained byte-rate throttling: a tight deadline degrades, a deadline with headroom rides it out to a clean sync with identical VRPs",
			Run:   runFlapBandwidthThrottle,
		},
	}
}

// mutants yields deterministic single-byte corruptions of src: positions
// stride through the object, each flipped with a constant mask.
func mutants(src []byte, stride int) [][]byte {
	var out [][]byte
	for pos := 0; pos < len(src); pos += stride {
		m := append([]byte(nil), src...)
		m[pos] ^= 0x55
		out = append(out, m)
	}
	return out
}

func runMutateCMSEnvelope(e *Env) {
	w := e.NewWorld()
	orig, ok := w.ChildStore.Get("r.roa")
	if !ok {
		e.Fatalf("world has no r.roa")
	}

	// The sweep: no mutant may panic the decoder stack; any mutant the
	// decoder does accept must carry a well-formed payload.
	accepted := 0
	for _, m := range mutants(orig, 7) {
		if parsed, err := roa.ParseSigned(m); err == nil {
			accepted++
			if parsed.ROA == nil || len(parsed.ROA.Prefixes) > roa.MaxPrefixes {
				e.Failf("accepted mutant violates decoder invariants")
			}
		}
	}
	e.Logf("swept %d mutants, decoder accepted %d", len(orig)/7+1, accepted)

	// Serve one mid-object mutant in place of the real ROA: the manifest
	// hash must reject it and the RP must degrade, not admit.
	mutant := append([]byte(nil), orig...)
	mutant[len(mutant)/2] ^= 0x55
	w.ChildStore.Put("r.roa", mutant)
	res := w.Sync(w.NewRP(rp.Config{Fetcher: w.Client(ClientOpts{})}))
	e.AssertTerminal(res, obs.HealthDegraded)
	if len(res.VRPs) != 0 {
		e.Failf("mutated ROA must not produce VRPs, got %d", len(res.VRPs))
	}
	e.RequireEvent(obs.EventDiagnostic)
}

func runMutateManifestBytes(e *Env) {
	w := e.NewWorld()
	mftName := w.Child.ManifestFileName()
	orig, ok := w.ChildStore.Get(mftName)
	if !ok {
		e.Fatalf("world has no %s", mftName)
	}

	for _, m := range mutants(orig, 7) {
		if parsed, err := manifest.ParseSigned(m); err == nil {
			if parsed.Manifest == nil || len(parsed.Manifest.Entries) > manifest.MaxFileList {
				e.Failf("accepted mutant violates decoder invariants")
			}
		}
	}

	// A mutated manifest must be rejected (parse or signature), degrading
	// the point — while best-effort admission keeps the independently
	// valid ROA in the cache.
	mutant := append([]byte(nil), orig...)
	mutant[len(mutant)/2] ^= 0x55
	w.ChildStore.Put(mftName, mutant)
	res := w.Sync(w.NewRP(rp.Config{Fetcher: w.Client(ClientOpts{})}))
	e.AssertTerminal(res, obs.HealthDegraded)
	if len(res.VRPs) != 1 {
		e.Failf("best-effort must keep the valid ROA under a mutated manifest, got %d VRPs", len(res.VRPs))
	}
	e.RequireEvent(obs.EventDiagnostic)
}

func runMutateRTRStream(e *Env) {
	frames := []*rtr.PDU{
		{Type: rtr.TypeCacheResponse, Session: 9},
		{Type: rtr.TypeIPv4Prefix, Flags: rtr.FlagAnnounce, VRP: rov.VRP{
			Prefix: ipres.MustParsePrefix("63.160.0.0/12"), MaxLength: 13, ASN: 1239}},
		{Type: rtr.TypeEndOfData, Session: 9, Serial: 1},
		{Type: rtr.TypeErrorReport, Session: rtr.ErrCorruptData, ErrText: "corrupt"},
	}
	var stream []byte
	for _, p := range frames {
		buf, err := p.Marshal()
		if err != nil {
			e.Fatalf("marshal frame: %v", err)
		}
		stream = append(stream, buf...)
	}
	// Every single-byte corruption of the stream, plus the two minimized
	// length-overflow crashers that used to panic ReadPDU.
	cases := mutants(stream, 1)
	cases = append(cases,
		[]byte{0, 10, 0, 0, 0, 0, 0, 16, 0xFF, 0xFF, 0xFF, 0xF8, 0, 0, 0, 0},
		[]byte{0, 10, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xF8})
	for _, m := range cases {
		r := bytes.NewReader(m)
		for {
			if _, err := rtr.ReadPDU(r); err != nil {
				break
			}
		}
	}
	e.Logf("read %d mutated streams to exhaustion without a panic", len(cases))

	// The decoder campaign must leave the validation pipeline untouched: a
	// fresh sync over the same world is still clean.
	w := e.NewWorld()
	res := w.Sync(w.NewRP(rp.Config{Fetcher: w.Client(ClientOpts{})}))
	e.AssertTerminal(res, obs.HealthClean)
	if len(res.VRPs) != 1 {
		e.Failf("clean world must yield 1 VRP, got %d", len(res.VRPs))
	}
}

func runFlapCorruptRate(e *Env) {
	w := e.NewWorld()
	w.ChildFaults.CorruptRate("r.roa", 1, 2)
	client := w.Client(ClientOpts{})

	// Pass 1 draws the corrupted request: the manifest hash rejects it and
	// the sync is degraded — corruption is never admitted, only reported.
	first := w.Sync(w.NewRP(rp.Config{Fetcher: client}))
	if got := first.Health(); got != obs.HealthDegraded {
		e.Failf("corrupted pass: health = %s, want degraded (diags: %v)", got, first.Diagnostics)
	}
	if len(first.VRPs) != 0 {
		e.Failf("corrupted ROA must not validate, got %d VRPs", len(first.VRPs))
	}

	// Pass 2 draws the clean request of the cycle: the RP converges back.
	second := w.Sync(w.NewRP(rp.Config{Fetcher: client}))
	e.AssertTerminal(second, obs.HealthClean)
	if len(second.VRPs) != 1 {
		e.Failf("clean pass must recover the VRP, got %d", len(second.VRPs))
	}
	e.RequireEvent(obs.EventDiagnostic)
}

func runFlapBandwidthThrottle(e *Env) {
	w := e.NewWorld()
	baseline := w.Sync(w.NewRP(rp.Config{Fetcher: w.Client(ClientOpts{})}))
	if got := baseline.Health(); got != obs.HealthClean {
		e.Fatalf("baseline: health = %s, want clean", got)
	}

	w.ChildFaults.SetBandwidth(4000)

	// A tight deadline converts the throttle into failures: degraded.
	tight := w.Sync(w.NewRP(rp.Config{Fetcher: w.Client(ClientOpts{Timeout: 120 * time.Millisecond})}))
	if got := tight.Health(); got != obs.HealthDegraded {
		e.Failf("tight deadline under throttle: health = %s, want degraded", got)
	}

	// Deadline headroom rides the throttle out: clean, identical VRPs —
	// the attack degrades latency, not correctness.
	patient := w.Sync(w.NewRP(rp.Config{Fetcher: w.Client(ClientOpts{Timeout: 15 * time.Second})}))
	e.AssertTerminal(patient, obs.HealthClean)
	if !reflect.DeepEqual(patient.VRPs, baseline.VRPs) {
		e.Failf("throttled VRPs diverge from baseline")
	}
	e.RequireEvent(obs.EventDiagnostic)
}
