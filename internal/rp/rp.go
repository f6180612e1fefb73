// Package rp implements an RPKI relying party: starting from trust anchors,
// it fetches publication points, validates certificates, CRLs, manifests and
// ROAs top-down, and produces the validated cache of ROA payloads (VRPs)
// that drives route origin validation.
//
// RFC 6483 requires the relying party to have "access to a local cache of
// the complete set of valid ROAs". The paper's Side Effect 6 is about what
// happens when that requirement silently fails: a ROA that cannot be
// fetched, fails its hash, or falls outside a shrunken parent certificate
// simply vanishes from the cache, and the corresponding route becomes
// Invalid whenever another ROA covers it. The relying party therefore
// reports rich diagnostics about incompleteness instead of failing —
// mirroring the real protocol's silence.
//
// Validation runs as a concurrent pipeline, like deployed validators
// (Routinator, rpki-client): sibling publication points are fetched in
// parallel as the tree is discovered — a child CA found at one point
// enqueues its publication point immediately, with no per-level barrier —
// and within each point object validation fans out across a bounded worker
// pool (Config.Workers). Results are deterministic at any worker count: VRPs
// are sorted, diagnostics are canonically ordered, and all counters are
// exact.
package rp

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/cms"
	"repro/internal/ipres"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
)

// TrustAnchor seeds validation, like a TAL: the anchor certificate plus the
// publication point it publishes into.
type TrustAnchor struct {
	// CertDER is the DER self-signed trust-anchor certificate.
	CertDER []byte
	// URI is the anchor's publication point.
	URI repo.URI
}

// Fetcher retrieves the full contents of a publication point. *repo.Client
// implements it over TCP; StoreFetcher implements it in-process.
// When the relying party runs with Workers > 1, FetchAll is called from
// multiple goroutines concurrently and implementations must tolerate that.
type Fetcher interface {
	FetchAll(ctx context.Context, uri repo.URI) (map[string][]byte, error)
}

// IncrementalFetcher is optionally implemented by fetchers that support
// digest-listing delta synchronization (*repo.Client does). A relying party
// with CacheSnapshots enabled uses it to skip re-downloading unchanged
// objects across Sync calls — rsync's delta mode.
type IncrementalFetcher interface {
	Fetcher
	SyncIncremental(ctx context.Context, uri repo.URI, prev map[string][]byte) (*repo.SyncResult, error)
}

// StoreFetcher fetches directly from in-process stores, keyed by module
// name. It implements Fetcher for non-networked experiments.
type StoreFetcher map[string]*repo.Store

// FetchAll implements Fetcher.
func (s StoreFetcher) FetchAll(_ context.Context, uri repo.URI) (map[string][]byte, error) {
	store, ok := s[uri.Module]
	if !ok {
		return nil, fmt.Errorf("rp: unknown publication point %q", uri.Module)
	}
	return store.Snapshot(), nil
}

// MissingPolicy selects the relying party's reaction to manifest trouble —
// the open problem the paper highlights ("what to do about incomplete
// information?").
type MissingPolicy uint8

const (
	// BestEffort uses every object that independently validates, merely
	// flagging incompleteness. This is what deployed validators do, and it
	// is what makes Side Effect 6 bite.
	BestEffort MissingPolicy = iota
	// DropPublicationPoint discards ALL products of a publication point
	// whose manifest is missing or inconsistent. Conservative
	// against tampering, but turns any partial fault into a total outage
	// of that authority's subtree.
	DropPublicationPoint
)

// DiagKind classifies a validation diagnostic.
type DiagKind uint8

const (
	// DiagFetchFailure: a publication point could not be fetched at all.
	DiagFetchFailure DiagKind = iota
	// DiagMissingObject: the manifest lists an object that is absent.
	DiagMissingObject
	// DiagHashMismatch: an object's content does not match the manifest.
	DiagHashMismatch
	// DiagInvalidObject: an object failed parsing or chain validation.
	DiagInvalidObject
	// DiagStaleManifest: the manifest's nextUpdate has passed.
	DiagStaleManifest
	// DiagMissingManifest: the publication point has no usable manifest.
	DiagMissingManifest
	// DiagDroppedPubPoint: DropPublicationPoint policy discarded the point.
	DiagDroppedPubPoint
	// DiagPointUnreachable: a publication point could not be fetched this
	// sync (dead, refusing, or circuit-broken). Emitted when last-known-good
	// fallback is enabled; DiagFetchFailure covers the same condition when
	// it is not.
	DiagPointUnreachable
	// DiagStaleFallback: the relying party served a point's last-known-good
	// snapshot instead of fresh data — degradation made observable, never
	// silent.
	DiagStaleFallback
)

// diagKindNames is each diagnostic kind's name.
var diagKindNames = map[DiagKind]string{
	DiagFetchFailure:     "fetch-failure",
	DiagMissingObject:    "missing-object",
	DiagHashMismatch:     "hash-mismatch",
	DiagInvalidObject:    "invalid-object",
	DiagStaleManifest:    "stale-manifest",
	DiagMissingManifest:  "missing-manifest",
	DiagDroppedPubPoint:  "dropped-publication-point",
	DiagPointUnreachable: "point-unreachable",
	DiagStaleFallback:    "stale-fallback",
}

func (k DiagKind) String() string {
	if name, ok := diagKindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("DiagKind(%d)", uint8(k))
}

// Diagnostic records one problem encountered during a sync.
type Diagnostic struct {
	Kind   DiagKind
	Module string
	Object string
	Err    error
}

func (d Diagnostic) String() string {
	if d.Object != "" {
		return fmt.Sprintf("[%s] %s/%s: %v", d.Kind, d.Module, d.Object, d.Err)
	}
	return fmt.Sprintf("[%s] %s: %v", d.Kind, d.Module, d.Err)
}

// Config tunes a relying party.
type Config struct {
	// Fetcher retrieves publication points (required).
	Fetcher Fetcher
	// Clock supplies validation time (default time.Now).
	Clock func() time.Time
	// Policy selects the missing-information behavior.
	Policy MissingPolicy
	// CacheSnapshots keeps per-publication-point snapshots between Sync
	// calls and uses the Fetcher's incremental mode when available.
	// Without it (and without StaleTTL) a point's bytes are released the
	// moment its walk ends: what is kept is digests, VRPs, signature
	// verdicts and each child CA's certificate. With it, over an
	// incremental fetcher, the memo's certificates are slices of the kept
	// snapshots and cost nothing extra.
	CacheSnapshots bool
	// Workers bounds the validation worker pool: hashing, parsing and
	// signature verification run on at most this many goroutines at once,
	// and at most 2×Workers publication points are between the start of
	// their fetch and their commit — a fetch in flight, or raw bytes held
	// for validation — at a time. 0 means runtime.GOMAXPROCS(0); 1 is the
	// sequential baseline. Results are identical at any setting.
	Workers int
	// StaleTTL enables last-known-good fallback: when a publication point
	// cannot be fetched, its most recent cleanly-validated snapshot — no
	// older than StaleTTL — is validated in its place, with DiagStaleFallback
	// recording the substitution. 0 disables fallback: an unreachable point
	// simply vanishes from the validated cache, as the paper's Side Effect 6
	// assumes. The TTL bounds how long a dead (or coerced-offline) authority
	// can pin the relying party's view of its subtree.
	StaleTTL time.Duration
	// Obs attaches the observability plane (see internal/obs): metric
	// handles are registered once at construction, every diagnostic and
	// fallback drops an event into the flight recorder, and each Sync
	// produces a trace on the injected clock. Nil disables instrumentation;
	// the hot path then pays one predictable branch per event.
	Obs *obs.Hub
}

// maxDepth bounds the delegation chains a sync follows: a trust anchor's
// point is walked at depth maxDepth and each child CA's point one lower, so
// a point that would be walked at depth 0 is cut with "hierarchy too deep"
// — an authority cannot make the walk recurse without bound.
const maxDepth = 32

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RelyingParty validates RPKI hierarchies into VRP sets. It is safe for use
// from one goroutine at a time; a single Sync call parallelizes internally.
type RelyingParty struct {
	cfg     Config
	anchors []TrustAnchor
	// vrpHint and pointHint are the previous sync's VRP and publication
	// point counts: the capacities of the next result and point queue.
	// Touched only by Sync.
	vrpHint, pointHint int
	// verified holds, per trust anchor, the certificate whose self-signature
	// a sync verified, parsed from a private copy of its DER; nil until one
	// did. Touched only by Sync.
	verified []*cert.ResourceCert

	mu sync.Mutex
	// points is everything retained per publication point between Sync
	// calls, by the URI its walk fetched (see state.go). guarded by mu.
	points map[repo.URI]*pointState
	// syncs numbers the syncs begun, so a completed one can tell the points
	// it walked from those that left the tree. guarded by mu.
	syncs uint64
	// met holds the metric handles registered on Config.Obs (nil when
	// observability is off; every update is then a nil-receiver no-op).
	met *rpMetrics
}

// New creates a relying party over the given trust anchors.
func New(cfg Config, anchors ...TrustAnchor) *RelyingParty {
	return &RelyingParty{
		cfg:      cfg,
		anchors:  anchors,
		verified: make([]*cert.ResourceCert, len(anchors)),
		points:   make(map[repo.URI]*pointState),
		met:      newRPMetrics(cfg.Obs),
	}
}

func (rp *RelyingParty) now() time.Time {
	if rp.cfg.Clock == nil {
		//lint:ignore wallclock this IS the injection point: the documented Config.Clock default
		return time.Now()
	}
	return rp.cfg.Clock()
}

// Result is the outcome of one synchronization pass.
type Result struct {
	// VRPs is the validated cache of ROA payloads.
	VRPs []rov.VRP
	// Diagnostics lists every problem encountered, in canonical order
	// (module, object, kind, message) regardless of worker count.
	Diagnostics []Diagnostic
	// PubPointsVisited counts publication points fetched (or attempted).
	PubPointsVisited int
	// ROAsAccepted counts validated ROAs.
	ROAsAccepted int
	// CertsAccepted counts validated CA certificates (including anchors).
	CertsAccepted int
	// ObjectsDownloaded and ObjectsReused count transfer work when the
	// relying party runs in incremental mode (zero otherwise).
	ObjectsDownloaded, ObjectsReused int
	// VerifyCacheHits and VerifyCacheMisses count signature-verdict lookups
	// during this sync, one lookup per object per validation: a miss is an
	// object's signatures actually verified — one ECDSA verification for a
	// certificate or CRL, two for a signed object (its CMS envelope, then
	// its EE certificate) — and a hit a verdict reused: kept from the
	// point's previous validation, or given to an object whose bytes
	// another object of the same validation already had. Exact at any
	// worker count. A sync that reuses every module does no lookups at all,
	// and an object a revalidation admits from the memo (ObjectsFromMemo)
	// none either.
	VerifyCacheHits, VerifyCacheMisses int
	// verifications counts the ECDSA verifications the sync ran: those its
	// verdict misses ran, and each trust anchor's self-signature it checked.
	verifications int
	// Retries, BreakerTrips and BreakerFastFails count the fetcher's
	// resilience events during this sync (zero unless the Fetcher reports
	// degradation stats — *repo.Client does). Exact, so degradation is
	// observable rather than silent.
	Retries, BreakerTrips, BreakerFastFails int
	// StaleFallbacks counts publication points served from the
	// last-known-good store this sync.
	StaleFallbacks int
	// ModulesReused counts publication points whose validated outputs were
	// reused wholesale this sync (provably unchanged bytes inside the
	// cached epoch — see modmemo.go); ModulesRevalidated counts points
	// that went through full validation. Exact at any worker count, so a
	// steady-state poll of an unchanged world shows ModulesRevalidated==0.
	ModulesReused, ModulesRevalidated int
	// ObjectsFromMemo counts the objects revalidated points admitted from
	// their memo entries (reuse tier 3, see modmemo.go): byte-identical to
	// what the entry was validated from, so neither parsed nor looked up.
	ObjectsFromMemo int
	// served counts the walks by their action: what each served for its
	// point (see plan).
	served [validate + 1]int
	// IncrementalFallbacks counts publication points whose incremental
	// (digest-listing) sync failed mid-protocol and was replaced by a clean
	// full fetch — the never-silently-stale escape hatch.
	IncrementalFallbacks int
}

// DegradationReporter is optionally implemented by fetchers that count
// retries and circuit-breaker activity (*repo.Client does); Sync reports
// the per-sync delta on the Result.
type DegradationReporter interface {
	Stats() repo.DegradationStats
}

// Incomplete reports whether the relying party has any reason to believe
// its cache is missing valid ROAs — the condition under which RFC 6483's
// "complete set" requirement is unmet.
func (r *Result) Incomplete() bool { return len(r.Diagnostics) > 0 }

// Health refines Incomplete's single bit into the three outcomes the
// degradation ladder actually produces: Clean (no diagnostics), Stale
// (every failure was absorbed by the last-known-good store, so the output
// is fully servable but some of it is old), and Degraded (at least one
// diagnostic the ladder could not absorb — the cache may be incomplete).
// Readiness probes treat Clean and Stale as servable; Incomplete cannot
// make that distinction because an LKG-served sync also carries
// diagnostics.
func (r *Result) Health() obs.HealthState {
	if len(r.Diagnostics) == 0 {
		return obs.HealthClean
	}
	for _, d := range r.Diagnostics {
		if d.Kind != DiagStaleFallback && d.Kind != DiagPointUnreachable {
			return obs.HealthDegraded
		}
	}
	if r.StaleFallbacks > 0 {
		return obs.HealthStale
	}
	// Unreachable points with no successful fallback always add a second
	// diagnostic kind, but be explicit rather than rely on that.
	return obs.HealthDegraded
}

// Index builds a route-validation index from the result's VRPs. Every call
// builds a new one (a copy and one linear pass): hold it in a local when
// classifying more than one route.
func (r *Result) Index() *rov.Index { return rov.NewIndex(r.VRPs...) }

// Sync walks every trust anchor's subtree and returns the validated cache.
// A canceled context aborts the sync promptly — mid-fetch included — and
// returns ctx.Err() rather than burying the cancellation in diagnostics.
func (rp *RelyingParty) Sync(ctx context.Context) (*Result, error) {
	if rp.cfg.Fetcher == nil {
		return nil, fmt.Errorf("rp: no fetcher configured")
	}
	// One Sync is one polling pass: a repository peer's VERSIONS feed may be
	// taken once and believed until this call returns, never longer.
	ctx = repo.WithPoll(ctx)
	// Sized from the last sync, with room for a small change, so a poll
	// does not grow the VRP slice from nil.
	res := &Result{VRPs: make([]rov.VRP, 0, rp.vrpHint+rp.vrpHint/64)}
	now := rp.now()
	trace := rp.cfg.Obs.Tracer().StartTrace("sync")
	var statsBefore repo.DegradationStats
	reporter, _ := rp.cfg.Fetcher.(DegradationReporter)
	if reporter != nil {
		statsBefore = reporter.Stats()
	}
	rp.beginSync()
	st := &syncState{
		rp:     rp,
		ctx:    ctx,
		now:    now,
		res:    res,
		sem:    make(chan struct{}, rp.cfg.workers()),
		span:   trace.Root(),
		points: make([]pointItem, 0, rp.pointHint+rp.pointHint/64),
	}
	st.queued.L = &st.qmu
	for i, ta := range rp.anchors {
		anchor, sig, err := rp.trustAnchor(i, res)
		if err != nil {
			st.diag(DiagInvalidObject, ta.URI.Module, "", fmt.Errorf("trust anchor: %w", err))
			continue
		}
		resources, err := cert.ValidateTrustAnchor(anchor, sig, now)
		if err != nil {
			st.diag(DiagInvalidObject, ta.URI.Module, "", err)
			continue
		}
		res.CertsAccepted++
		st.enqueue(pointItem{authority{der: anchor.Raw, cert: anchor}, resources, ta.URI, maxDepth})
	}
	// Start the walkers only once every anchor is accounted for: from here
	// on res belongs to them, under st.mu. A walker carries one point from
	// its fetch to its commit, so the 2×Workers walkers are the module
	// window; they exit once every queued point is done.
	var walkers sync.WaitGroup
	for range 2 * cap(st.sem) {
		walkers.Add(1)
		go func() {
			defer walkers.Done()
			st.walker()
		}()
	}
	st.wg.Wait()
	st.closeQueue()
	walkers.Wait()
	if st.err != nil {
		trace.Finish()
		return nil, st.err
	}
	rp.dropDeparted()
	res.ModulesReused = res.served[reuse] + res.served[lkgMemo]
	res.ModulesRevalidated = res.served[validate] + res.served[lkgRevalidate]
	res.StaleFallbacks = res.served[lkgMemo] + res.served[lkgRevalidate]
	rp.vrpHint, rp.pointHint = len(res.VRPs), res.PubPointsVisited
	rov.SortVRPs(res.VRPs)
	sortDiagnostics(res.Diagnostics)
	if reporter != nil {
		after := reporter.Stats()
		res.Retries = int(after.Retries - statsBefore.Retries)
		res.BreakerTrips = int(after.BreakerTrips - statsBefore.BreakerTrips)
		res.BreakerFastFails = int(after.BreakerFastFails - statsBefore.BreakerFastFails)
	}
	if trace != nil && res.ModulesReused > 0 {
		trace.Root().SetDetail(fmt.Sprintf("%d modules reused, %d revalidated", res.ModulesReused, res.ModulesRevalidated))
	}
	trace.Finish()
	end := rp.now()
	rp.met.recordResult(res, end.Sub(now).Seconds())
	rp.met.lastSyncUnixtime.Set(float64(end.Unix()))
	return res, nil
}

// trustAnchor returns the i'th trust anchor's certificate and the verdict on
// its self-signature. That signature is verified once per RelyingParty, not
// once per sync: a DER equal to the one a sync verified is answered with the
// certificate parsed then, and counts no verification. Any other DER — a new
// anchor, or one whose signature failed — is parsed and verified again, so a
// bad signature is diagnosed on every sync. The time, CA, inherit and
// resource checks are ValidateTrustAnchor's, run by the caller every sync.
func (rp *RelyingParty) trustAnchor(i int, res *Result) (anchor *cert.ResourceCert, sig, err error) {
	der := rp.anchors[i].CertDER
	if v := rp.verified[i]; v != nil && bytes.Equal(v.Raw, der) {
		return v, nil, nil
	}
	rp.verified[i] = nil
	// A kept certificate must not alias bytes its caller may rewrite.
	if anchor, err = cert.Parse(bytes.Clone(der)); err != nil {
		return nil, nil, err
	}
	res.verifications++
	if sig = anchor.Cert.CheckSignatureFrom(anchor.Cert); sig == nil {
		rp.verified[i] = anchor
	}
	return anchor, sig, nil
}

// sortDiagnostics puts diagnostics into canonical order so the result is
// byte-for-byte reproducible regardless of goroutine scheduling.
func sortDiagnostics(diags []Diagnostic) {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		if c := cmp.Or(strings.Compare(a.Module, b.Module), strings.Compare(a.Object, b.Object), cmp.Compare(a.Kind, b.Kind)); c != 0 {
			return c
		}
		return strings.Compare(errText(a.Err), errText(b.Err))
	})
}

// syncState is the shared state of one Sync pass: the accumulating result,
// the worker-slot semaphore bounding CPU-heavy work, the queue of
// publication points waiting for a walker, and the WaitGroup tracking every
// outstanding point.
type syncState struct {
	rp  *RelyingParty
	ctx context.Context
	// now is the sync's start time on the injected clock: the cleanAt stamp
	// next gives every snapshot this pass proves current.
	now time.Time
	// sem holds the Workers worker slots. It is the walk's one semaphore:
	// the module window is the walkers themselves, each holding at most one
	// point from its fetch to its commit.
	sem chan struct{}
	// wg counts every queued or walking point; its Wait is the end of the
	// walk. A point's object tasks end before its walk does.
	wg sync.WaitGroup
	// span is the sync's root trace span (nil when tracing is off); each
	// walk hangs its module span off it. Spans are internally synchronized.
	span *obs.Span

	mu sync.Mutex
	// res is the accumulating result. guarded by mu.
	res *Result
	// err is the first hard failure (context cancellation); it aborts the
	// sync instead of becoming a diagnostic. Set once, by setErr; read once
	// every walker has exited.
	errOnce sync.Once
	err     error

	// qmu guards the point queue alone and is never held while taking
	// another lock; queued wakes a walker waiting on an empty queue.
	qmu    sync.Mutex
	queued sync.Cond
	// points holds the points discovered and not yet taken by a walker, in
	// discovery order from index head on. Enqueueing never blocks, so a
	// point's validation can queue its children while every walker is busy.
	// guarded by qmu.
	points []pointItem
	// head is the index of the next point to walk. guarded by qmu.
	head int
	// drained is set once the walk is over: walkers then exit. guarded by
	// qmu.
	drained bool
}

// pointItem is one publication point waiting for a walker, with what its
// walk validates it under. A value, so queueing a point allocates nothing.
type pointItem struct {
	auth      authority
	effective ipres.Set
	uri       repo.URI
	depth     int
}

// enqueue counts a point as outstanding and queues it for a walker.
func (st *syncState) enqueue(it pointItem) {
	st.wg.Add(1)
	st.qmu.Lock()
	st.points = append(st.points, it)
	st.qmu.Unlock()
	st.queued.Signal()
}

// pop takes the next queued point, waiting while the queue is empty; false
// means the walk is over.
func (st *syncState) pop() (pointItem, bool) {
	st.qmu.Lock()
	defer st.qmu.Unlock()
	for st.head == len(st.points) && !st.drained {
		st.queued.Wait()
	}
	if st.head == len(st.points) {
		return pointItem{}, false
	}
	it := st.points[st.head]
	st.points[st.head] = pointItem{}
	if st.head++; st.head == len(st.points) {
		st.points, st.head = st.points[:0], 0
	}
	return it, true
}

// closeQueue ends the walk: every waiting walker wakes and exits.
func (st *syncState) closeQueue() {
	st.qmu.Lock()
	st.drained = true
	st.qmu.Unlock()
	st.queued.Broadcast()
}

// walker walks queued points one at a time until the walk is over, each
// from its fetch to its settle.
func (st *syncState) walker() {
	for {
		it, ok := st.pop()
		if !ok {
			return
		}
		st.walk(it)
		st.wg.Done()
	}
}

// setErr records the sync's first hard failure.
func (st *syncState) setErr(err error) {
	st.errOnce.Do(func() { st.err = err })
}

// run executes f under a worker slot; CPU-heavy work (hashing, parsing,
// signature verification) goes through here so at most Workers of it runs
// at once. f must not block on the semaphore or the WaitGroup.
func (st *syncState) run(f func()) {
	st.sem <- struct{}{}
	f()
	<-st.sem
}

// diag records one diagnostic on the result and in the flight recorder.
func (st *syncState) diag(kind DiagKind, module, object string, err error) {
	st.mu.Lock()
	st.res.Diagnostics = append(st.res.Diagnostics, Diagnostic{Kind: kind, Module: module, Object: object, Err: err})
	st.mu.Unlock()
	st.obsDiag(kind, module, object, err)
}

// walk takes one authority's publication point from its fetch to its
// settle, on the calling walker: it reads the point's state once, fetches,
// plans (see plan), does what the plan says and writes next's state once.
// A point provably unchanged since its last clean validation (and still
// inside that validation's temporal epoch) is not validated at all: its
// cached outputs are merged wholesale (see modmemo.go), its children are
// queued, and its authority is never parsed. So is an unreachable point
// whose last-known-good snapshot that same memo entry answers for. Any
// other point is validated here too, its objects fanning out as worker
// tasks.
//
// Only work is traced: a point proven current (reuse tiers 1 and 2) opens
// no span, so an unchanged poll cannot crowd the changed point out of the
// trace's bounded span count. Any other point opens its walk and fetch
// spans once that is known, back-dated to the fetch.
func (st *syncState) walk(it pointItem) {
	if it.depth <= 0 {
		st.diag(DiagInvalidObject, it.uri.Module, "", fmt.Errorf("hierarchy too deep"))
		return
	}
	if err := st.ctx.Err(); err != nil {
		st.setErr(err)
		return
	}
	// The walk's one clock reading: the memo's epoch, the snapshot's age
	// and the validation are all judged at this instant.
	now := st.rp.now()
	p := st.rp.point(it.uri)

	st.rp.met.inflightModules.Inc()
	defer st.rp.met.inflightModules.Dec()
	start := st.span.Now()
	r := result{fetched: st.rp.fetch(st.ctx, it.uri, p.last)}
	fetchEnd := st.span.Now()
	r.aborted = r.err != nil && st.ctx.Err() != nil
	// What the protocol did not prove unchanged is hashed before the plan:
	// reuse tier 2 compares these digests with the memo's, re-hashing the
	// bytes but parsing and verifying nothing, and a validation reads them.
	if len(r.files) > 0 && !r.unchanged && !r.aborted {
		r.objects = st.hashObjects(r.files)
	}
	s := plan(p, r.fetched, it.auth.der, it.effective, now, st.rp.cfg.StaleTTL)
	st.mu.Lock()
	st.res.PubPointsVisited++
	st.res.served[s.act]++
	st.res.ObjectsDownloaded += r.downloaded
	st.res.ObjectsReused += r.reused
	st.res.IncrementalFallbacks += r.fallbacks
	st.mu.Unlock()
	// span opens the point's walk span, with its fetch child, and notes why
	// the point is traced.
	span := func(detail string) *obs.Span {
		wsp := st.span.ChildAt("walk", it.uri.Module, start, time.Time{})
		wsp.ChildAt("fetch", it.uri.Module, start, fetchEnd)
		wsp.SetDetail(detail)
		return wsp
	}
	if s.act == abort {
		// Cancellation is an abort, not incompleteness: no diagnostic, and
		// nothing settled.
		st.setErr(st.ctx.Err())
		span("aborted").End()
		return
	}
	if r.err != nil && !s.partial {
		st.unreachable(it.uri, s, len(p.clean), r.err)
	}
	switch s.act {
	case absent:
		span("unreachable, no fallback").End()
	case lkgMemo:
		span("serving last-known-good (memo)").End()
		fallthrough
	case reuse:
		st.reuseModule(s.memo, it.depth)
	default:
		// validate or lkgRevalidate: the build, its verdict cache and the
		// parsed authority exist only on this path.
		files, objects, detail := r.files, r.objects, ""
		if s.act == lkgRevalidate {
			files, objects, detail = p.clean, nil, "serving last-known-good"
		}
		if objects == nil {
			objects = st.hashObjects(files)
		}
		mb := &moduleBuild{
			st:        st,
			pointItem: it,
			files:     files,
			chain:     cert.ValidationContext{Now: now},
			memo:      s.memo,
			objects:   objects,
			sigs:      cert.NewVerifyCache(p.verdicts),
			span:      span(detail),
		}
		if s.partial {
			mb.diag(DiagFetchFailure, "", fmt.Errorf("partial fetch: %w", r.err))
		}
		if s.why != "" {
			// The memo was refused by the reuse guard: record why.
			st.rp.met.reuseRejected.With(s.why).Inc()
			st.rp.cfg.Obs.Recorder().Record(obs.EventReuseRejected, it.uri.Module, s.why)
		}
		mb.verifySpan = mb.span.Child("verify", it.uri.Module)
		st.validate(mb)
		r.verdicts, r.entry = st.commitModule(mb)
	}
	st.rp.settle(it.uri, next(p, s, r, st.now))
}

// unreachable diagnoses a point whose fetch failed outright, and what plan
// serves in its place: a snapshot of n objects, or nothing, and why.
func (st *syncState) unreachable(uri repo.URI, s step, n int, ferr error) {
	if s.ttl <= 0 {
		st.diag(DiagFetchFailure, uri.Module, "", ferr)
		return
	}
	st.diag(DiagPointUnreachable, uri.Module, "", ferr)
	switch s.why {
	case "":
		st.diag(DiagStaleFallback, uri.Module, "", fmt.Errorf("serving %d objects from snapshot aged %v (stale-ttl %v)", n, s.age, s.ttl))
	case lkgExpired:
		st.diag(DiagFetchFailure, uri.Module, "", fmt.Errorf("%s (age %v > stale-ttl %v)", s.why, s.age, s.ttl))
	default:
		st.diag(DiagFetchFailure, uri.Module, "", errors.New(s.why))
	}
}

// validate checks a fetched point's objects under its authority — manifest,
// CRL, then every object the memo cannot answer for as its own task, each
// validated child CA queued for a walker — and returns once those tasks are
// done, or at the first failure that ends the validation. It is walk's
// middle, on the same walker.
func (st *syncState) validate(mb *moduleBuild) {
	if mb.auth.cert == nil {
		// Reached through a memo link: the DER its parent validated, parsed
		// only now that the point must be revalidated. A failure means the
		// bytes changed under the relying party.
		var err error
		if mb.auth.cert, err = cert.Parse(mb.auth.der); err != nil {
			mb.diag(DiagInvalidObject, "", fmt.Errorf("authority certificate: %w", err))
			return
		}
	}

	// Locate the manifest named by the authority's SIA and take its verdict.
	mftName := manifestName(mb.auth.cert, mb.uri)
	var signedMft *manifest.Signed
	var mftEESig error
	if i, ok := findObject(mb.objects, mftName); ok {
		st.run(func() {
			var err error
			signedMft, err = manifest.ParseSignedWith(mb.files[mftName], mb.signedCheck(mb.objects[i].digest, &mftEESig))
			if err != nil {
				mb.diag(DiagInvalidObject, mftName, err)
			}
		})
	} else {
		mb.diag(DiagMissingManifest, mftName, fmt.Errorf("manifest absent"))
	}

	// The manifest and the CRL vouch for each other: a manifest whose
	// signatures hold is merged with the objects once and names the CRL, and
	// that CRL then judges the manifest's EE like any other.
	var served []int
	if signedMft != nil && mftEESig == nil {
		served = mb.judge(signedMft.Manifest)
	}
	st.loadCRL(mb)
	var mft *manifest.Manifest
	if signedMft != nil {
		st.run(func() {
			if _, err := cert.ValidateIssued(mb.auth.cert, mb.effective, signedMft.EE, mftEESig, mb.chain); err != nil {
				mb.diag(DiagInvalidObject, mftName, err)
				return
			}
			mft = signedMft.Manifest
			mb.observePoint(signedMft.EE.NotBefore(), signedMft.EE.NotAfter())
			mb.observePoint(time.Time{}, mft.NextUpdate)
			if mft.Stale(mb.chain.Now) {
				mb.diag(DiagStaleManifest, mftName, fmt.Errorf("nextUpdate %v", mft.NextUpdate))
			}
		})
	}
	if mft == nil && st.rp.cfg.Policy == DropPublicationPoint {
		mb.diag(DiagDroppedPubPoint, "", fmt.Errorf("no usable manifest"))
		return
	}

	// Cross-check the manifest against the fetched files, entry by entry:
	// the merge's verdicts, diagnosed once here, are what the admission loop
	// below reads.
	manifestOK := true
	if mft != nil {
		for e, i := range served {
			switch {
			case i < 0:
				mb.diag(DiagMissingObject, mft.Entries[e].Name, fmt.Errorf("listed on manifest, not served"))
				manifestOK = false
			case mb.listing[i].err != nil:
				mb.diag(DiagHashMismatch, mb.objects[i].name, mb.listing[i].err)
				manifestOK = false
			}
		}
	}
	if !manifestOK && st.rp.cfg.Policy == DropPublicationPoint {
		mb.diag(DiagDroppedPubPoint, "", fmt.Errorf("manifest inconsistency"))
		return
	}

	// Reuse tier 3: with a valid manifest, and a winning CRL that revokes
	// exactly what the entry's did, every object the entry was validated
	// from keeps its outputs (modmemo.go).
	if mft == nil || mb.memo != nil && mb.memo.revoked != mb.revoked {
		mb.memo = nil
	}
	// Validate ROAs and recurse into child certificates. Every object the
	// manifest admits and the memo does not answer for is an independent
	// task on the worker pool; a validated child CA queues its publication
	// point immediately.
	for i, o := range mb.objects {
		// A listed mismatch is diagnosed by the cross-check. An unlisted
		// object other than the manifest itself is rejected outright: a
		// repository must not smuggle objects past its manifest.
		if l := mb.listing; mft != nil && l[i].err != nil && (l[i].listed || o.name != mftName) {
			if !l[i].listed {
				mb.diag(DiagHashMismatch, o.name, l[i].err)
			}
			continue
		}
		if mb.memo != nil && st.admitFromMemo(mb, i) {
			continue
		}
		mb.wg.Add(1)
		go func() {
			defer mb.wg.Done()
			st.run(func() { st.processObject(mb, i) })
		}()
	}
	// The walker merges the module's outputs once its own object tasks are
	// done (child points are independent). It waits holding no worker slot,
	// and no object task waits on a walker, so the walk cannot deadlock.
	mb.wg.Wait()
}

// loadCRL picks the point's CRL into mb.chain (nil skips revocation
// checks, best effort), with its revokedDigest. It is the only check of the
// CRL's signature: chain validation consults the CRL without verifying it
// again. With a manifest whose signatures hold, a candidate is a .crl the
// merge found listed with a matching digest: an unlisted or altered one is
// never trusted, whatever its signature (the cross-check and admission
// diagnose it). With no such manifest every .crl served is a candidate. Of
// the candidates whose signature by the issuer holds, the last in name
// order wins, so the choice is deterministic when several do.
func (st *syncState) loadCRL(mb *moduleBuild) {
	var crl *cert.CRL
	for i, o := range mb.objects {
		if !strings.HasSuffix(o.name, ".crl") || mb.listing != nil && mb.listing[i].err != nil {
			continue
		}
		st.run(func() {
			parsed, err := cert.ParseHashedCRL(mb.files[o.name], o.digest)
			if err != nil {
				mb.diag(DiagInvalidObject, o.name, err)
				return
			}
			if err := mb.sigs.VerifyCRL(mb.auth.cert, parsed); err != nil {
				mb.diag(DiagInvalidObject, o.name, err)
				return
			}
			crl = parsed
		})
	}
	if crl != nil {
		// The winning CRL bounds the reuse epoch: past its nextUpdate the
		// point is revalidated, never reused.
		mb.observePoint(time.Time{}, crl.List.NextUpdate)
	}
	mb.chain.CRL, mb.revoked = crl, revokedDigest(crl)
}

// signedCheck is the signature check a signed object's parse runs under
// issuer: the object's one verdict, keyed by hash, covering its envelope
// signature and its EE certificate's signature by issuer. The envelope part
// decides the parse; the EE part lands in *eeSig for the chain step.
func (mb *moduleBuild) signedCheck(hash [32]byte, eeSig *error) cms.SignatureCheck {
	return func(ee *cert.ResourceCert, verify func() error) error {
		var envelope error
		envelope, *eeSig = mb.sigs.CheckSigned(hash, mb.auth.cert, ee, verify)
		return envelope
	}
}

// hashObjects hashes every fetched object exactly once, on the walker under
// one worker slot, and returns the objects sorted by name with their
// digests. The digests drive the manifest cross-check, per-object admission
// and the digest-level reuse checks, and a clean commit keeps them as the
// memo entry's snapshot.
func (st *syncState) hashObjects(files map[string][]byte) []memoObject {
	objects := make([]memoObject, 0, len(files))
	st.run(func() {
		for name, raw := range files {
			objects = append(objects, memoObject{name: name, digest: sha256.Sum256(raw)})
		}
		slices.SortFunc(objects, func(a, b memoObject) int { return strings.Compare(a.name, b.name) })
	})
	return objects
}

// reuseModule merges the outputs of e, the point's usable memo, into the
// sync result without re-validating anything and queues the module's child
// points (each child decides reuse for itself).
func (st *syncState) reuseModule(e *moduleEntry, depth int) {
	st.mu.Lock()
	st.res.ROAsAccepted += e.roas
	st.res.CertsAccepted += e.certs
	st.res.VRPs = append(st.res.VRPs, e.vrps...)
	st.mu.Unlock()
	for _, ch := range e.children {
		st.enqueue(pointItem{authority{der: ch.der}, ch.effective, ch.uri, depth - 1})
	}
}

// commitModule merges a validated module's outputs into the sync result and
// returns what the validation leaves for next:
// the signature verdicts it used and, when it was clean, its memo entry,
// recorded under the authority's DER. After the walk settles, nothing but
// the point's state references the module's raw bytes.
func (st *syncState) commitModule(mb *moduleBuild) (cert.Verdicts, *moduleEntry) {
	mb.verifySpan.End()
	defer mb.span.End()
	defer mb.span.Child("commit", mb.uri.Module).End()
	mb.mu.Lock()
	clean, e := mb.diags == 0, mb.out
	mb.mu.Unlock()
	hits, misses := mb.sigs.Stats()
	st.mu.Lock()
	st.res.ROAsAccepted += e.roas
	st.res.CertsAccepted += e.certs
	st.res.VRPs = append(st.res.VRPs, e.vrps...)
	st.res.VerifyCacheHits += int(hits)
	st.res.VerifyCacheMisses += int(misses)
	st.res.verifications += int(mb.sigs.Verified())
	st.res.ObjectsFromMemo += mb.fromMemo
	st.mu.Unlock()
	if !clean {
		return mb.sigs.Verdicts(), nil
	}
	e.authority, e.effective, e.objects, e.revoked = mb.auth.der, mb.effective, mb.objects, mb.revoked
	e.epoch.narrow(e.objEpoch.notBefore, e.objEpoch.notAfter)
	return mb.sigs.Verdicts(), &e
}

// processObject validates the snapshot's object i, which the manifest
// admitted: a ROA, or a child CA's certificate. Runs under a worker slot.
// Its outputs accumulate on the moduleBuild; its walker merges them once
// every task of the point is done.
func (st *syncState) processObject(mb *moduleBuild, i int) {
	name, hash := mb.objects[i].name, mb.objects[i].digest
	raw := mb.files[name]
	switch {
	case strings.HasSuffix(name, ".roa"):
		var eeSig error
		signed, err := roa.ParseSignedWith(raw, mb.signedCheck(hash, &eeSig))
		if err != nil {
			mb.diag(DiagInvalidObject, name, err)
			return
		}
		if _, err := cert.ValidateIssued(mb.auth.cert, mb.effective, signed.EE, eeSig, mb.chain); err != nil {
			mb.diag(DiagInvalidObject, name, err)
			return
		}
		mb.observeObject(signed.EE)
		mb.addROA(i, rov.FromROA(signed.ROA))

	case strings.HasSuffix(name, ".cer"):
		child, err := cert.Parse(raw)
		if err != nil {
			mb.diag(DiagInvalidObject, name, err)
			return
		}
		if !child.IsCA() {
			return // EE certs are embedded in signed objects
		}
		issuer := mb.auth.cert
		if child.Cert.SubjectKeyId != nil && issuer.Cert.SubjectKeyId != nil &&
			string(child.Cert.SubjectKeyId) == string(issuer.Cert.SubjectKeyId) {
			return // the authority's own certificate republished
		}
		childEffective, err := cert.ValidateIssued(issuer, mb.effective, child, mb.sigs.CheckChildSignature(issuer, child, hash), mb.chain)
		if err != nil {
			mb.diag(DiagInvalidObject, name, err)
			return
		}
		mb.addCert()
		mb.observeObject(child)
		childURI, _, err := repo.ParseURI(strings.TrimSuffix(child.SIA.CARepository, "/"))
		if err != nil {
			mb.diag(DiagInvalidObject, name, fmt.Errorf("bad SIA: %w", err))
			return
		}
		// The memo keeps the certificate as the DER just validated: the
		// snapshot's own bytes for the object, which are exactly child.Raw.
		mb.addChild(i, childLink{der: child.Raw, effective: childEffective, uri: childURI})
		st.enqueue(pointItem{authority{der: child.Raw, cert: child}, childEffective, childURI, mb.depth - 1})
	}
}

// fetch retrieves a publication point, using the fetcher's incremental
// mode against prev — the point's last snapshot — when snapshot caching is
// enabled and supported. It reports whether the incremental protocol proved
// every object's hash unchanged since prev (reuse tier 1).
func (rp *RelyingParty) fetch(ctx context.Context, uri repo.URI, prev map[string][]byte) fetched {
	inc, ok := rp.cfg.Fetcher.(IncrementalFetcher)
	if !rp.cfg.CacheSnapshots || !ok {
		files, err := rp.cfg.Fetcher.FetchAll(ctx, uri)
		return fetched{files: files, err: err}
	}
	sync, err := inc.SyncIncremental(ctx, uri, prev)
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, repo.ErrCircuitOpen) {
			// An abort, or a breaker that refuses the point: a full fetch
			// would be refused too, and counted a second time.
			return fetched{err: err}
		}
		// The incremental protocol failed mid-flight — a malformed
		// listing, an object whose bytes changed between LIST and GET, a
		// torn connection. Never stitch a possibly-inconsistent view together:
		// fall back to one clean full fetch, and only if that too fails
		// report the point unreachable.
		files, ferr := inc.FetchAll(ctx, uri)
		if ferr != nil {
			return fetched{err: ferr}
		}
		rp.cfg.Obs.Recorder().Recordf(obs.EventIncrementalFallback, uri.Module,
			"incremental sync failed (%v); recovered with a full fetch", err)
		return fetched{files: files, last: files, downloaded: len(files), fallbacks: 1}
	}
	return fetched{files: sync.Files, last: sync.Files, unchanged: sync.Unchanged, downloaded: sync.Downloaded, reused: sync.Reused}
}

// manifestName extracts the manifest object name from the authority's SIA,
// falling back to "<module>.mft".
func manifestName(authority *cert.ResourceCert, uri repo.URI) string {
	if authority.SIA.Manifest != "" {
		if _, obj, err := repo.ParseURI(authority.SIA.Manifest); err == nil && obj != "" {
			return obj
		}
	}
	return uri.Module + ".mft"
}
