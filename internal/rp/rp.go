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
// and within each point object hashing and certificate-chain validation fan
// out across a bounded worker pool (Config.Workers). Results are
// deterministic at any worker count: VRPs are sorted, diagnostics are
// canonically ordered, and all counters are exact.
package rp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
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
// implements it over TCP; StoreFetcher implements it in-process; the
// circular-dependency experiments implement it with reachability gating.
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

// SnapshotVersion implements VersionedFetcher: the store's mutation counter
// proves a point unchanged without copying a byte.
func (s StoreFetcher) SnapshotVersion(uri repo.URI) (uint64, bool) {
	store, ok := s[uri.Module]
	if !ok {
		return 0, false
	}
	return store.Version(), true
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
	// whose manifest is missing, stale, or inconsistent. Conservative
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

func (k DiagKind) String() string {
	switch k {
	case DiagFetchFailure:
		return "fetch-failure"
	case DiagMissingObject:
		return "missing-object"
	case DiagHashMismatch:
		return "hash-mismatch"
	case DiagInvalidObject:
		return "invalid-object"
	case DiagStaleManifest:
		return "stale-manifest"
	case DiagMissingManifest:
		return "missing-manifest"
	case DiagDroppedPubPoint:
		return "dropped-publication-point"
	case DiagPointUnreachable:
		return "point-unreachable"
	case DiagStaleFallback:
		return "stale-fallback"
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
	// RequireFreshManifest treats a stale manifest like a missing one.
	RequireFreshManifest bool
	// MaxDepth bounds hierarchy recursion (default 32).
	MaxDepth int
	// CacheSnapshots keeps per-publication-point snapshots between Sync
	// calls and uses the Fetcher's incremental mode when available.
	// Without it (and without StaleTTL) a point's bytes are released the
	// moment its module commits: what is kept is digests, VRPs, signature
	// verdicts and a private copy of each child CA's certificate. With it,
	// over an incremental fetcher, the memo's certificates are slices of the
	// kept snapshots and cost nothing extra.
	CacheSnapshots bool
	// Workers bounds the validation worker pool: object hashing and chain
	// validation fan out across this many goroutines, and at most
	// 2×Workers publication points are between the start of their fetch
	// and their commit — a fetch in flight, or raw bytes held for
	// validation — at a time. 0 means runtime.GOMAXPROCS(0); 1 is the
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
	// keepsSnapshots is whether the per-point state keeps every point's
	// fetched bytes anyway (last with CacheSnapshots over an incremental
	// fetcher, clean with StaleTTL): a memo link may then alias them instead
	// of copying its child's certificate.
	keepsSnapshots bool
	// vrpHint and pointHint are the previous sync's VRP and publication
	// point counts: the capacities of the next result and point queue.
	// Touched only by Sync.
	vrpHint, pointHint int

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
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 32
	}
	_, incremental := cfg.Fetcher.(IncrementalFetcher)
	return &RelyingParty{
		cfg:            cfg,
		anchors:        anchors,
		keepsSnapshots: cfg.StaleTTL > 0 || (cfg.CacheSnapshots && incremental),
		points:         make(map[repo.URI]*pointState),
		met:            newRPMetrics(cfg.Obs),
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
	// during this sync, one verdict per object: a miss is an object's
	// signatures actually verified — one ECDSA verification for a
	// certificate or CRL, two for a signed object (its CMS envelope, then
	// its EE certificate) — and a hit an object answered from an earlier
	// verdict on the same bytes within the same validation or kept from the
	// point's previous one. Exact at any worker count. A sync that reuses
	// every module does no lookups at all.
	VerifyCacheHits, VerifyCacheMisses int
	// verifications counts the ECDSA verifications the misses ran.
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

func (r *Result) diag(kind DiagKind, module, object string, err error) {
	r.Diagnostics = append(r.Diagnostics, Diagnostic{Kind: kind, Module: module, Object: object, Err: err})
}

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
		rp:       rp,
		ctx:      ctx,
		now:      now,
		res:      res,
		sem:      make(chan struct{}, rp.cfg.workers()),
		fetchSem: make(chan struct{}, 2*rp.cfg.workers()),
		span:     trace.Root(),
		points:   make([]pointItem, 0, rp.pointHint+rp.pointHint/64),
	}
	st.queued.L = &st.qmu
	for _, ta := range rp.anchors {
		anchor, err := cert.Parse(ta.CertDER)
		if err != nil {
			res.diag(DiagInvalidObject, ta.URI.Module, "", fmt.Errorf("trust anchor: %w", err))
			continue
		}
		resources, err := cert.ValidateTrustAnchor(anchor, now)
		if err != nil {
			res.diag(DiagInvalidObject, ta.URI.Module, "", err)
			continue
		}
		res.CertsAccepted++
		st.enqueue(pointItem{authority{der: anchor.Raw, cert: anchor}, resources, ta.URI, rp.cfg.MaxDepth})
	}
	// Start the walkers only once every anchor is accounted for: from here
	// on res belongs to them, under st.mu. There are as many walkers as
	// module slots, so every slot can have a fetch in flight; they exit once
	// every queued point and every task it spawned is done.
	var walkers sync.WaitGroup
	for range cap(st.fetchSem) {
		walkers.Add(1)
		go func() {
			defer walkers.Done()
			st.walker()
		}()
	}
	st.wg.Wait()
	st.closeQueue()
	walkers.Wait()
	if err := st.firstErr(); err != nil {
		trace.Finish()
		return nil, err
	}
	rp.dropDeparted()
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

// sortDiagnostics puts diagnostics into canonical order so the result is
// byte-for-byte reproducible regardless of goroutine scheduling.
func sortDiagnostics(diags []Diagnostic) {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Module != diags[j].Module {
			return diags[i].Module < diags[j].Module
		}
		if diags[i].Object != diags[j].Object {
			return diags[i].Object < diags[j].Object
		}
		if diags[i].Kind != diags[j].Kind {
			return diags[i].Kind < diags[j].Kind
		}
		return errText(diags[i].Err) < errText(diags[j].Err)
	})
}

// syncState is the shared state of one Sync pass: the accumulating result,
// the worker-slot semaphore bounding CPU-heavy work, the queue of
// publication points waiting for a walker, and the WaitGroup tracking every
// outstanding point, validation and object task.
type syncState struct {
	rp  *RelyingParty
	ctx context.Context
	// now is the sync's start time on the injected clock: the stamp every
	// last-known-good commit and refresh of this pass carries.
	now time.Time
	sem chan struct{}
	// fetchSem is the module window: a slot is held from just before a
	// module's fetch until its commit releases the bytes, so it bounds both
	// the fetches in flight and the raw bytes resident. Holders always make
	// progress — a module's commit waits only on its own object tasks
	// (worker slots, never fetch slots), and a child point is queued, never
	// waited for — so the bound cannot deadlock.
	fetchSem chan struct{}
	// wg counts every queued or walking point, validation goroutine,
	// committer and object task; its Wait is the end of the walk.
	wg sync.WaitGroup
	// span is the sync's root trace span (nil when tracing is off); each
	// walk hangs its module span off it. Spans are internally synchronized.
	span *obs.Span

	mu sync.Mutex
	// res is the accumulating result. guarded by mu.
	res *Result
	// err is the first hard failure (context cancellation); it aborts the
	// sync instead of becoming a diagnostic. guarded by mu.
	err error

	// qmu guards the point queue alone and is never held while taking
	// another lock; queued wakes a walker waiting on an empty queue.
	qmu    sync.Mutex
	queued sync.Cond
	// points holds the points discovered and not yet taken by a walker, in
	// discovery order from index head on. Enqueueing never blocks, so a
	// point's walk or validation can queue its children while every walker
	// waits for a module slot. guarded by qmu.
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

// walker walks queued points one at a time until the walk is over. A point
// that needs no validation is finished here, on the walker's own stack; one
// that does is handed to its own goroutine, so a walker waits only for a
// module slot, its fetch and its hashing, never for a validation.
func (st *syncState) walker() {
	for {
		it, ok := st.pop()
		if !ok {
			return
		}
		st.walk(it.auth, it.effective, it.uri, it.depth)
		st.wg.Done()
	}
}

func (st *syncState) setErr(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
}

func (st *syncState) firstErr() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// spawn tracks f with the WaitGroup and runs it on its own goroutine.
// Structural goroutines (validations, object tasks, committers) never hold a
// worker slot while blocked, so spawning from inside a slot cannot deadlock.
func (st *syncState) spawn(f func()) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		f()
	}()
}

// run executes f under a worker slot; CPU-heavy work (hashing, parsing,
// signature verification) goes through here so at most Workers of it runs
// at once. f must not block on the semaphore or the WaitGroup.
func (st *syncState) run(f func()) {
	st.sem <- struct{}{}
	f()
	<-st.sem
}

// acquireModule takes an in-flight-module slot. Callers must pair it with
// exactly one releaseModule, reached either directly on an early walk exit
// or via the module's commit.
func (st *syncState) acquireModule() {
	st.fetchSem <- struct{}{}
	st.rp.met.inflightModules.Inc()
}

// releaseModule returns an in-flight-module slot.
func (st *syncState) releaseModule() {
	st.rp.met.inflightModules.Dec()
	<-st.fetchSem
}

func (st *syncState) diag(kind DiagKind, module, object string, err error) {
	st.mu.Lock()
	st.res.diag(kind, module, object, err)
	st.mu.Unlock()
	st.obsDiag(kind, module, object, err)
}

// walk takes one authority's publication point to its reuse decision on the
// calling walker. A point provably unchanged since its last clean
// validation (and still inside that validation's temporal epoch) is not
// validated at all: its cached outputs are merged wholesale (see
// modmemo.go), its children are queued, and its authority is never parsed.
// Any other point is validated on its own goroutine, which keeps the
// point's module slot until its commit.
func (st *syncState) walk(auth authority, effective ipres.Set, uri repo.URI, depth int) {
	if depth <= 0 {
		st.diag(DiagInvalidObject, uri.Module, "", fmt.Errorf("hierarchy too deep"))
		return
	}
	if err := st.ctx.Err(); err != nil {
		st.setErr(err)
		return
	}
	st.mu.Lock()
	st.res.PubPointsVisited++
	st.mu.Unlock()
	now := st.rp.now()

	// What the last syncs left behind for this point. The memo entry is
	// usable only under the same authority and effective set and inside its
	// epoch — the guard every reuse tier below sits behind.
	p := st.rp.point(uri)
	e := p.memo
	usable := e != nil && e.matches(auth.der, effective) && e.within(now)

	// Reuse tier 1: the fetcher can prove the backing store unchanged, so
	// the fetch itself is skipped. The version is read before any fetch: a
	// store mutating concurrently costs a re-validation, never a stale reuse.
	// This path is the entire warm steady state, so it stays span-free —
	// tier-1 reuses are summarized on the root span and counted by the
	// rpki_modules_reused_total metric instead of traced one by one.
	var storeVersion uint64
	var hasVersion bool
	if vf, ok := st.rp.cfg.Fetcher.(VersionedFetcher); ok {
		storeVersion, hasVersion = vf.SnapshotVersion(uri)
	}
	if usable && hasVersion && e.hasVersion && e.version == storeVersion {
		st.reuseModule(e, uri, depth, storeVersion, hasVersion)
		return
	}

	wsp := st.span.Child("walk", uri.Module)
	st.acquireModule()
	fsp := wsp.Child("fetch", uri.Module)
	files, unchanged, err := st.rp.fetch(st.ctx, st, uri, p.last)
	fsp.End()
	if err != nil && st.ctx.Err() != nil {
		// Cancellation is an abort, not incompleteness: no diagnostic.
		st.setErr(st.ctx.Err())
		st.releaseModule()
		wsp.SetDetail("aborted")
		wsp.End()
		return
	}
	// reuseFetched ends a walk whose fetched bytes were proven identical to
	// the ones the memo entry was validated from: the bytes are dropped.
	reuseFetched := func(detail string) {
		st.releaseModule()
		wsp.SetDetail(detail)
		wsp.End()
		st.reuseModule(e, uri, depth, storeVersion, hasVersion)
	}
	// A fetch error with bytes in hand is a partial fetch: validated, but
	// diagnosed and never memoized. With no bytes the point is served from
	// last-known-good or not at all.
	faithful, partial := err == nil, err != nil && len(files) > 0
	switch {
	case err != nil && !partial:
		if files = st.lkgFallback(uri, p, err); files == nil {
			st.releaseModule()
			wsp.SetDetail("unreachable, no fallback")
			wsp.End()
			return
		}
		wsp.SetDetail("serving last-known-good")
	case usable && unchanged && faithful:
		// Reuse tier 2: listed, and every listed digest matched the held copy.
		reuseFetched("reused: bytes unchanged")
		return
	}

	names, hashes := st.hashObjects(files)

	// Reuse tier 3: the memo keeps per-object digests, not bytes, so
	// unchanged-ness is decided here, after hashing — the module's bytes are
	// re-hashed but nothing is re-parsed or re-verified. Only a faithful
	// fetch consults the memo; degraded sources never do.
	if faithful && usable && sameDigests(hashes, e.digests) {
		reuseFetched("reused: digests unchanged")
		return
	}

	// From here on the point is validated: its build, its verdict cache and
	// its parsed authority exist only on this path.
	mb := &moduleBuild{
		memoizable: faithful,
		version:    storeVersion,
		hasVersion: hasVersion,
		hashes:     hashes,
		sigs:       cert.NewVerifyCache(p.verdicts),
		span:       wsp,
	}
	st.mu.Lock()
	st.res.ModulesRevalidated++
	st.mu.Unlock()
	if partial {
		mb.diag(st, DiagFetchFailure, uri.Module, "", fmt.Errorf("partial fetch: %w", err))
	}
	// A memo entry that survives to this point was refused by the reuse
	// guard: record why (authority swap, epoch expiry, or changed bytes).
	if faithful && e != nil {
		st.reuseRejection(e, auth.der, effective, uri.Module)
	}
	mb.verifySpan = wsp.Child("verify", uri.Module)
	st.spawn(func() { st.validate(mb, auth, effective, uri, depth, now, files, names) })
}

// validate checks a fetched point's objects under its authority — manifest,
// CRL, then every object as its own task, each validated child CA queued
// for a walker — and spawns the committer. It is walk's second half, on its
// own goroutine, so that no walker waits for a worker slot to validate.
func (st *syncState) validate(mb *moduleBuild, auth authority, effective ipres.Set, uri repo.URI, depth int, now time.Time, files map[string][]byte, names []string) {
	issuer := auth.cert
	if issuer == nil {
		// Reached through a memo link: the DER its parent validated, parsed
		// only now that the point must be revalidated. A failure means the
		// bytes changed under the relying party.
		var err error
		if issuer, err = cert.Parse(auth.der); err != nil {
			mb.diag(st, DiagInvalidObject, uri.Module, "", fmt.Errorf("authority certificate: %w", err))
			st.commitModule(uri, auth.der, effective, mb, files)
			return
		}
	}

	// Locate the manifest named by the authority's SIA and take its verdict.
	mftName := manifestName(issuer, uri)
	var signedMft *manifest.Signed
	var mftEESig error
	if raw, ok := files[mftName]; ok {
		st.run(func() {
			var err error
			signedMft, err = manifest.ParseSignedWith(raw, mb.signedCheck(mb.hashes[mftName], issuer, &mftEESig))
			if err != nil {
				mb.diag(st, DiagInvalidObject, uri.Module, mftName, err)
			}
		})
	} else {
		mb.diag(st, DiagMissingManifest, uri.Module, mftName, fmt.Errorf("manifest absent"))
	}

	// The manifest and the CRL vouch for each other: a manifest whose
	// signatures hold names the CRL, and that CRL then judges the manifest's
	// EE like any other.
	var listing *manifest.Manifest
	if signedMft != nil && mftEESig == nil {
		listing = signedMft.Manifest
	}
	crl := st.loadCRL(mb, issuer, uri, files, names, listing)
	var mft *manifest.Manifest
	if signedMft != nil {
		st.run(func() {
			if _, err := cert.ValidateIssued(issuer, effective, signedMft.EE, mftEESig, mb.vctx(now, crl)); err != nil {
				mb.diag(st, DiagInvalidObject, uri.Module, mftName, err)
				return
			}
			mft = signedMft.Manifest
			mb.observeCert(signedMft.EE)
			mb.observeNotAfter(mft.NextUpdate)
			if mft.Stale(now) {
				mb.diag(st, DiagStaleManifest, uri.Module, mftName, fmt.Errorf("nextUpdate %v", mft.NextUpdate))
				if st.rp.cfg.RequireFreshManifest {
					mft = nil
				}
			}
		})
	}
	if mft == nil && st.rp.cfg.Policy == DropPublicationPoint {
		mb.diag(st, DiagDroppedPubPoint, uri.Module, "", fmt.Errorf("no usable manifest"))
		st.commitModule(uri, auth.der, effective, mb, files)
		return
	}

	// Cross-check the manifest against the fetched files, remembering each
	// verdict so the admission loop below never re-hashes or re-diagnoses
	// an object.
	manifestOK := true
	badObject := make(map[string]bool)
	if mft != nil {
		for _, name := range mft.Names() {
			hash, ok := mb.hashes[name]
			if !ok {
				mb.diag(st, DiagMissingObject, uri.Module, name, fmt.Errorf("listed on manifest, not served"))
				manifestOK = false
				continue
			}
			if err := mft.VerifyHash(name, hash); err != nil {
				mb.diag(st, DiagHashMismatch, uri.Module, name, err)
				badObject[name] = true
				manifestOK = false
			}
		}
	}
	if !manifestOK && st.rp.cfg.Policy == DropPublicationPoint {
		mb.diag(st, DiagDroppedPubPoint, uri.Module, "", fmt.Errorf("manifest inconsistency"))
		st.commitModule(uri, auth.der, effective, mb, files)
		return
	}

	// Validate ROAs and recurse into child certificates. Every object is
	// an independent task on the worker pool; a validated child CA queues
	// its publication point immediately.
	for _, name := range names {
		if badObject[name] {
			continue // mismatch already diagnosed by the cross-check
		}
		name := name
		mb.wg.Add(1)
		st.spawn(func() {
			defer mb.wg.Done()
			st.run(func() {
				st.processObject(mb, issuer, effective, uri, depth, now, crl, mft, mftName, name, files[name], mb.hashes[name])
			})
		})
	}
	// The committer merges the module's outputs once its own object tasks
	// are done (child points are independent), then commits or deletes the
	// memo entry. It holds no worker slot while waiting, so it cannot
	// deadlock the pool.
	st.spawn(func() {
		mb.wg.Wait()
		st.commitModule(uri, auth.der, effective, mb, files)
	})
}

// loadCRL picks the point's CRL (nil skips revocation checks, best effort).
// With listing, the manifest whose signatures hold, a candidate is a .crl
// it lists with a matching digest: an unlisted or altered one is never
// trusted, whatever its signature (the cross-check and admission diagnose
// it). With no such manifest every .crl served is a candidate. Of the
// candidates whose signature by issuer holds, the last in name order wins,
// so the choice is deterministic when several do.
func (st *syncState) loadCRL(mb *moduleBuild, issuer *cert.ResourceCert, uri repo.URI, files map[string][]byte, names []string, listing *manifest.Manifest) *cert.CRL {
	var crl *cert.CRL
	for _, name := range names {
		if !strings.HasSuffix(name, ".crl") {
			continue
		}
		hash := mb.hashes[name]
		if listing != nil && listing.VerifyHash(name, hash) != nil {
			continue
		}
		raw := files[name]
		st.run(func() {
			parsed, err := cert.ParseHashedCRL(raw, hash)
			if err != nil {
				mb.diag(st, DiagInvalidObject, uri.Module, name, err)
				return
			}
			if err := mb.sigs.VerifyCRL(issuer, parsed); err != nil {
				mb.diag(st, DiagInvalidObject, uri.Module, name, err)
				return
			}
			crl = parsed
		})
	}
	if crl != nil {
		// The winning CRL bounds the reuse epoch: past its nextUpdate a
		// re-validation would flag it stale, so the cached verdicts expire.
		mb.observeNotAfter(crl.List.NextUpdate)
	}
	return crl
}

// signedCheck is the signature check a signed object's parse runs under
// issuer: the object's one verdict, keyed by hash, covering its envelope
// signature and its EE certificate's signature by issuer. The envelope part
// decides the parse; the EE part lands in *eeSig for the chain step.
func (mb *moduleBuild) signedCheck(hash [32]byte, issuer *cert.ResourceCert, eeSig *error) cms.SignatureCheck {
	return func(ee *cert.ResourceCert, verify func() error) error {
		var envelope error
		envelope, *eeSig = mb.sigs.CheckSigned(hash, issuer, ee, verify)
		return envelope
	}
}

// hashObjects hashes every fetched object exactly once, in parallel chunks,
// and returns the sorted names with their digests. The digests drive the
// manifest cross-check, per-object admission and the digest-level reuse
// check, and a clean commit keeps them as the memo entry's snapshot.
func (st *syncState) hashObjects(files map[string][]byte) ([]string, map[string][32]byte) {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	sums := make([][32]byte, len(names))
	var hwg sync.WaitGroup
	workers := cap(st.sem)
	chunk := (len(names) + workers - 1) / workers
	if chunk < 1 {
		chunk = 1
	}
	for start := 0; start < len(names); start += chunk {
		end := start + chunk
		if end > len(names) {
			end = len(names)
		}
		hwg.Add(1)
		go func(lo, hi int) {
			defer hwg.Done()
			st.run(func() {
				for i := lo; i < hi; i++ {
					sums[i] = sha256.Sum256(files[names[i]])
				}
			})
		}(start, end)
	}
	hwg.Wait()
	hashes := make(map[string][32]byte, len(names))
	for i, name := range names {
		hashes[name] = sums[i]
	}
	return names, hashes
}

// reuseModule merges a cached module entry's outputs into the sync result
// without re-validating anything, records that the point was just proven
// unchanged (at version, when the fetcher reports one), and queues the
// module's child points (each child decides reuse for itself).
func (st *syncState) reuseModule(e *moduleEntry, uri repo.URI, depth int, version uint64, hasVersion bool) {
	st.mu.Lock()
	st.res.ModulesReused++
	st.res.ROAsAccepted += e.roas
	st.res.CertsAccepted += e.certs
	st.res.VRPs = append(st.res.VRPs, e.vrps...)
	st.mu.Unlock()
	st.rp.markReused(uri, version, hasVersion, st.now)
	for _, ch := range e.children {
		st.enqueue(pointItem{authority{der: ch.der}, ch.effective, ch.uri, depth - 1})
	}
}

// commitModule merges a fully-validated module's outputs into the sync
// result, commits the point's retained state and releases the module's
// in-flight slot — after it returns nothing but that state references the
// module's raw bytes. Every validation hands on the signature verdicts it
// used. A clean validation of a faithfully-fetched snapshot commits a memo
// entry, recorded under the authority's DER, and the last-known-good
// snapshot; any diagnostic deletes the stale entry and leaves the snapshot
// alone. Degraded sources (LKG fallback, partial fetch) merge without
// touching either — their bytes do not correspond to the point's current
// snapshot.
func (st *syncState) commitModule(uri repo.URI, authority []byte, effective ipres.Set, mb *moduleBuild, files map[string][]byte) {
	defer st.releaseModule()
	mb.verifySpan.End()
	csp := mb.span.Child("commit", uri.Module)
	defer func() {
		csp.End()
		mb.span.End()
	}()
	mb.mu.Lock()
	clean := mb.diags == 0
	mb.mu.Unlock()
	hits, misses := mb.sigs.Stats()
	st.mu.Lock()
	st.res.ROAsAccepted += mb.roas
	st.res.CertsAccepted += mb.certs
	st.res.VRPs = append(st.res.VRPs, mb.vrps...)
	st.res.VerifyCacheHits += int(hits)
	st.res.VerifyCacheMisses += int(misses)
	st.res.verifications += int(mb.sigs.Verified())
	st.mu.Unlock()
	st.rp.keepVerdicts(uri, mb.sigs.Verdicts())
	if !mb.memoizable {
		return
	}
	var entry *moduleEntry
	if clean {
		entry = &moduleEntry{
			authority:  authority,
			effective:  effective,
			version:    mb.version,
			hasVersion: mb.hasVersion,
			digests:    mb.hashes,
			notBefore:  mb.notBefore,
			notAfter:   mb.notAfter,
			vrps:       mb.vrps,
			roas:       mb.roas,
			certs:      mb.certs,
			children:   mb.children,
		}
	}
	st.rp.commitPoint(uri, entry, files, st.now)
}

// lkgFallback handles a publication point that could not be fetched at all.
// With LKG enabled and a fresh-enough clean snapshot in the point's state p
// it returns the snapshot's files (diagnosing the substitution); otherwise
// it returns nil and the point's subtree drops out of the validated cache —
// Side Effect 6.
func (st *syncState) lkgFallback(uri repo.URI, p pointState, ferr error) map[string][]byte {
	ttl := st.rp.cfg.StaleTTL
	if ttl <= 0 {
		st.diag(DiagFetchFailure, uri.Module, "", ferr)
		return nil
	}
	st.diag(DiagPointUnreachable, uri.Module, "", ferr)
	if p.clean == nil {
		st.diag(DiagFetchFailure, uri.Module, "", fmt.Errorf("no last-known-good snapshot"))
		return nil
	}
	age := st.rp.now().Sub(p.cleanAt)
	if age > ttl {
		st.diag(DiagFetchFailure, uri.Module, "", fmt.Errorf("last-known-good snapshot expired (age %v > stale-ttl %v)", age, ttl))
		return nil
	}
	st.diag(DiagStaleFallback, uri.Module, "", fmt.Errorf("serving %d objects from snapshot aged %v (stale-ttl %v)", len(p.clean), age, ttl))
	st.mu.Lock()
	st.res.StaleFallbacks++
	st.mu.Unlock()
	return p.clean
}

// processObject admits one fetched object: manifest admission, then ROA
// validation or child-CA chain validation. Runs under a worker slot. Its
// outputs accumulate on the moduleBuild; the committer merges them.
func (st *syncState) processObject(mb *moduleBuild, issuer *cert.ResourceCert, effective ipres.Set, uri repo.URI, depth int, now time.Time, crl *cert.CRL, mft *manifest.Manifest, mftName, name string, raw []byte, hash [32]byte) {
	if mft != nil && name != mftName {
		if err := mft.VerifyHash(name, hash); err != nil {
			// Unlisted object: reject it outright; a repository must not
			// smuggle objects past its manifest.
			mb.diag(st, DiagHashMismatch, uri.Module, name, err)
			return
		}
	}
	ctxV := mb.vctx(now, crl)
	switch {
	case strings.HasSuffix(name, ".roa"):
		var eeSig error
		signed, err := roa.ParseSignedWith(raw, mb.signedCheck(hash, issuer, &eeSig))
		if err != nil {
			mb.diag(st, DiagInvalidObject, uri.Module, name, err)
			return
		}
		if _, err := cert.ValidateIssued(issuer, effective, signed.EE, eeSig, ctxV); err != nil {
			mb.diag(st, DiagInvalidObject, uri.Module, name, err)
			return
		}
		mb.observeCert(signed.EE)
		mb.addROA(rov.FromROA(signed.ROA))

	case strings.HasSuffix(name, ".cer"):
		child, err := cert.Parse(raw)
		if err != nil {
			mb.diag(st, DiagInvalidObject, uri.Module, name, err)
			return
		}
		if !child.IsCA() {
			return // EE certs are embedded in signed objects
		}
		if child.Cert.SubjectKeyId != nil && issuer.Cert.SubjectKeyId != nil &&
			string(child.Cert.SubjectKeyId) == string(issuer.Cert.SubjectKeyId) {
			return // the authority's own certificate republished
		}
		childEffective, err := cert.ValidateIssued(issuer, effective, child, mb.sigs.CheckChildSignature(issuer, child, hash), ctxV)
		if err != nil {
			mb.diag(st, DiagInvalidObject, uri.Module, name, err)
			return
		}
		mb.addCert()
		mb.observeCert(child)
		childURI, _, err := repo.ParseURI(strings.TrimSuffix(child.SIA.CARepository, "/"))
		if err != nil {
			mb.diag(st, DiagInvalidObject, uri.Module, name, fmt.Errorf("bad SIA: %w", err))
			return
		}
		// The memo keeps the certificate as the DER just validated: the
		// point's snapshot when the per-point state keeps it anyway,
		// otherwise one copy, shared with the child's own memo entry, that
		// pins no fetch buffer.
		der := child.Raw
		if !st.rp.keepsSnapshots {
			der = bytes.Clone(der)
		}
		mb.addChild(childLink{der: der, effective: childEffective, uri: childURI})
		st.enqueue(pointItem{authority{der: der, cert: child}, childEffective, childURI, depth - 1})
	}
}

// vctx builds a chain-validation context wired to the module's signature
// cache.
func (mb *moduleBuild) vctx(now time.Time, crl *cert.CRL) cert.ValidationContext {
	return cert.ValidationContext{Now: now, CRL: crl, Cache: mb.sigs}
}

// fetch retrieves a publication point, using the fetcher's incremental
// mode against prev — the point's previous snapshot — when snapshot caching
// is enabled and supported. The second return reports whether the
// incremental protocol proved every object's hash unchanged since prev
// (reuse tier 2).
func (rp *RelyingParty) fetch(ctx context.Context, st *syncState, uri repo.URI, prev map[string][]byte) (map[string][]byte, bool, error) {
	inc, ok := rp.cfg.Fetcher.(IncrementalFetcher)
	if !rp.cfg.CacheSnapshots || !ok {
		files, err := rp.cfg.Fetcher.FetchAll(ctx, uri)
		return files, false, err
	}
	sync, err := inc.SyncIncremental(ctx, uri, prev)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, err
		}
		// The incremental protocol failed mid-flight — a malformed
		// listing, an object whose bytes changed between LIST and GET, a
		// torn connection. Never stitch a possibly-inconsistent view together:
		// fall back to one clean full fetch, and only if that too fails
		// report the point unreachable.
		files, ferr := inc.FetchAll(ctx, uri)
		if ferr != nil {
			return nil, false, ferr
		}
		rp.setLast(uri, files)
		st.mu.Lock()
		st.res.IncrementalFallbacks++
		st.res.ObjectsDownloaded += len(files)
		st.mu.Unlock()
		rp.cfg.Obs.Recorder().Recordf(obs.EventIncrementalFallback, uri.Module,
			"incremental sync failed (%v); recovered with a full fetch", err)
		return files, false, nil
	}
	rp.setLast(uri, sync.Files)
	st.mu.Lock()
	st.res.ObjectsDownloaded += sync.Downloaded
	st.res.ObjectsReused += sync.Reused
	st.mu.Unlock()
	return sync.Files, sync.Unchanged, nil
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
