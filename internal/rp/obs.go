package rp

// Observability wiring for the relying party: metric handles registered
// once at construction, per-sync trace spans on the injected clock, and
// flight-recorder events for every degraded outcome. All handles are
// nil-safe, so a RelyingParty built without Config.Obs pays one predictable
// branch per event and allocates nothing.

import "repro/internal/obs"

// diagEventKinds maps every diagnostic kind to the flight-recorder event
// kind that records it — the rpki-lint diagexhaustive rule keeps this
// table exhaustive, so a future DiagKind cannot silently bypass the
// recorder. Fallback substitutions keep their dedicated event kinds; every
// other diagnostic records as a generic validation event.
var diagEventKinds = map[DiagKind]obs.EventKind{
	DiagFetchFailure:     obs.EventDiagnostic,
	DiagMissingObject:    obs.EventDiagnostic,
	DiagHashMismatch:     obs.EventDiagnostic,
	DiagInvalidObject:    obs.EventDiagnostic,
	DiagStaleManifest:    obs.EventDiagnostic,
	DiagMissingManifest:  obs.EventDiagnostic,
	DiagDroppedPubPoint:  obs.EventDiagnostic,
	DiagPointUnreachable: obs.EventDiagnostic,
	DiagStaleFallback:    obs.EventStaleFallback,
}

// rpMetrics holds the relying party's metric handles, registered once in
// New. A nil *rpMetrics (no Config.Obs) makes every update a no-op via the
// handles' nil-receiver safety.
type rpMetrics struct {
	syncs            *obs.Counter
	syncDuration     *obs.Histogram
	diagnostics      *obs.CounterVec
	pubPoints        *obs.Counter
	vrps             *obs.Gauge
	roas             *obs.Gauge
	certs            *obs.Gauge
	verifyHits       *obs.Counter
	verifyMisses     *obs.Counter
	modulesReused    *obs.Counter
	modulesRevalid   *obs.Counter
	reuseRejected    *obs.CounterVec
	staleFallbacks   *obs.Counter
	incrFallbacks    *obs.Counter
	objectsDown      *obs.Counter
	objectsReused    *obs.Counter
	objectsFromMemo  *obs.Counter
	inflightModules  *obs.Gauge
	lastSyncUnixtime *obs.Gauge
}

func newRPMetrics(hub *obs.Hub) *rpMetrics {
	r := hub.Registry()
	if r == nil {
		// No hub: a struct of nil handles, whose every method is a
		// nil-receiver no-op — callers never branch on "is obs on".
		return &rpMetrics{}
	}
	return &rpMetrics{
		syncs:        r.Counter("rpki_syncs_total", "Completed synchronization passes."),
		syncDuration: r.Histogram("rpki_sync_duration_seconds", "Wall time of one sync, by the injected clock.", obs.DurationBuckets()),
		diagnostics: r.CounterVec("rpki_sync_diagnostics_total",
			"Validation diagnostics emitted, by kind — nonzero means the validated cache may be incomplete (Side Effect 6).", "kind"),
		pubPoints:    r.Counter("rpki_pubpoints_visited_total", "Publication points fetched or attempted."),
		vrps:         r.Gauge("rpki_vrps", "VRPs in the validated cache after the last sync."),
		roas:         r.Gauge("rpki_roas_accepted", "ROAs accepted in the last sync."),
		certs:        r.Gauge("rpki_certs_accepted", "CA certificates accepted in the last sync."),
		verifyHits:   r.Counter("rpki_verify_cache_hits_total", "Signature verdicts reused: kept from a point's previous validation, or duplicate bytes within one."),
		verifyMisses: r.Counter("rpki_verify_cache_misses_total", "Signature-verdict cache misses: chain or CRL signatures actually verified."),
		modulesReused: r.Counter("rpki_modules_reused_total",
			"Publication points whose validated outputs were reused wholesale (provably unchanged)."),
		modulesRevalid: r.Counter("rpki_modules_revalidated_total", "Publication points fully re-validated."),
		reuseRejected: r.CounterVec("rpki_module_reuse_rejected_total",
			"Memoized module outputs refused by the unsafe-reuse guard, by reason.", "reason"),
		staleFallbacks: r.Counter("rpki_stale_fallbacks_total",
			"Publication points served from the last-known-good store."),
		incrFallbacks: r.Counter("rpki_incremental_fallbacks_total",
			"Incremental syncs replaced by a clean full fetch after a mid-protocol failure."),
		objectsDown:   r.Counter("rpki_objects_downloaded_total", "Objects transferred by incremental syncs."),
		objectsReused: r.Counter("rpki_objects_reused_total", "Objects kept from previous snapshots by incremental syncs."),
		objectsFromMemo: r.Counter("rpki_objects_from_memo_total",
			"Objects of revalidated publication points admitted with the outputs their memo entry recorded for the same bytes, neither parsed nor verified."),
		inflightModules: r.Gauge("rpki_streaming_modules_inflight",
			"Module-window slots taken: publication points between the start of their fetch and their commit."),
		lastSyncUnixtime: r.Gauge("rpki_last_sync_unixtime", "Injected-clock time the last sync finished."),
	}
}

// recordResult folds one completed sync into the continuously-scraped
// series. Runs once per sync, off every hot path. The sync count is its last
// write, so a scrape that sees the count has every series it follows.
func (m *rpMetrics) recordResult(res *Result, seconds float64) {
	m.syncDuration.Observe(seconds)
	for _, d := range res.Diagnostics {
		m.diagnostics.With(d.Kind.String()).Inc()
	}
	m.pubPoints.Add(uint64(res.PubPointsVisited))
	m.vrps.Set(float64(len(res.VRPs)))
	m.roas.Set(float64(res.ROAsAccepted))
	m.certs.Set(float64(res.CertsAccepted))
	m.verifyHits.Add(uint64(res.VerifyCacheHits))
	m.verifyMisses.Add(uint64(res.VerifyCacheMisses))
	m.modulesReused.Add(uint64(res.ModulesReused))
	m.modulesRevalid.Add(uint64(res.ModulesRevalidated))
	m.staleFallbacks.Add(uint64(res.StaleFallbacks))
	m.incrFallbacks.Add(uint64(res.IncrementalFallbacks))
	m.objectsDown.Add(uint64(res.ObjectsDownloaded))
	m.objectsReused.Add(uint64(res.ObjectsReused))
	m.objectsFromMemo.Add(uint64(res.ObjectsFromMemo))
	m.syncs.Inc()
}

// obsDiag records one diagnostic's flight-recorder event. Degraded path
// only: a clean sync never reaches it.
func (st *syncState) obsDiag(kind DiagKind, module, object string, err error) {
	rec := st.rp.cfg.Obs.Recorder()
	if rec == nil {
		return
	}
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	if object != "" {
		detail = object + ": " + detail
	}
	rec.Record(diagEventKinds[kind], module, detail)
}
