package rp

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/ipres"
	"repro/internal/obs"
)

// lcEpoch is how many hours a snapshot is valid for from its publication:
// its manifest's window, and so the epoch of a memo entry validated from it.
const lcEpoch = 3

// lcObs is one observation of the enumeration: what one walk of the point
// fetched, or what changed in the world between two walks.
type lcObs uint8

const (
	obsUnreachable    lcObs = iota // the fetch fails with no bytes
	obsCancelled                   // the sync is cancelled during the fetch
	obsUnchanged                   // the current snapshot, proven unchanged since last when the protocol can (tier 1)
	obsSameDigests                 // the current snapshot, nothing proven: its digests decide (tier 2)
	obsChangedClean                // a new snapshot that validates clean
	obsChangedTainted              // a new snapshot that validates with a diagnostic
	obsPartial                     // part of the current snapshot, with an error
	obsSwap                        // the parent re-issues the point's certificate: a new authority
	obsTick                        // the clock moves one hour
	obsLeap                        // the clock moves lcEpoch hours: past any epoch begun before now
	lcObsCount
)

var lcObsNames = [...]string{"unreachable", "cancelled", "unchanged", "same-digests", "changed-clean",
	"changed-tainted", "partial", "authority-swap", "+1h", "+3h"}

// lcSnap is an abstract snapshot: published at hour born, valid until
// born+lcEpoch, and clean unless tainted.
type lcSnap struct {
	born    int
	tainted bool
}

// lcConfig is one relying-party configuration the enumeration runs under.
type lcConfig struct {
	ttl         time.Duration
	incremental bool // Config.CacheSnapshots over an IncrementalFetcher
}

// lcWorld is the point's world and the relying party's state after some
// sequence of observations. A value: the enumeration copies it per branch.
type lcWorld struct {
	p     pointState
	now   int // hours since testEpoch
	cur   int // the point's current snapshot, an index into snaps
	auth  byte
	snaps [lcMaxK + 1]lcSnap
	n     int // snapshots published after the first
}

// lcFixture holds the enumeration's immutable inputs: each snapshot's files,
// whole and partial, their digests, each authority's DER, and distinct
// verdict sets, one per step.
type lcFixture struct {
	full, part         [lcMaxK + 1]map[string][]byte
	fullObjs, partObjs [lcMaxK + 1][]memoObject
	auth               [lcMaxK + 1][]byte
	verdicts           [lcMaxK + 1]cert.Verdicts
}

func newLCFixture() *lcFixture {
	fx := &lcFixture{}
	issuer := &cert.ResourceCert{}
	for i := range lcMaxK + 1 {
		// Object "a" carries the snapshot's identity; a partial fetch lacks
		// "b".
		fx.full[i] = map[string][]byte{"a": {byte(i)}, "b": {0}}
		fx.part[i] = map[string][]byte{"a": {byte(i)}}
		fx.fullObjs[i] = lcObjects(fx.full[i])
		fx.partObjs[i] = lcObjects(fx.part[i])
		fx.auth[i] = []byte{byte(i)}
		vc := cert.NewVerifyCache(cert.Verdicts{})
		for j := range i + 1 {
			_ = vc.Memoize(sha256.Sum256([]byte{byte(j)}), issuer, func() error { return nil })
		}
		fx.verdicts[i] = vc.Verdicts()
	}
	return fx
}

// lcObjects is hashObjects without a sync.
func lcObjects(files map[string][]byte) []memoObject {
	var objects []memoObject
	for name, raw := range files {
		objects = append(objects, memoObject{name: name, digest: sha256.Sum256(raw)})
	}
	slices.SortFunc(objects, func(a, b memoObject) int { return strings.Compare(a.name, b.name) })
	return objects
}

var errOffline, errReset = errors.New("point offline"), errors.New("connection reset")

// objects is what hashing files, one of the fixture's snapshots, yields.
func (fx *lcFixture) objects(files map[string][]byte) []memoObject {
	id, whole := lcID(files)
	if whole {
		return fx.fullObjs[id]
	}
	return fx.partObjs[id]
}

// lcKey is a point state made comparable: the snapshots it keeps by name,
// its memo by identity and its verdicts by size (each step's are distinct).
type lcKey struct {
	last, clean [2]int
	cleanAt     time.Time
	memo        *moduleEntry
	verdicts    int
}

func keyOf(p pointState) lcKey {
	name := func(files map[string][]byte) [2]int {
		id, whole := lcID(files)
		if whole {
			return [2]int{id, 1}
		}
		return [2]int{id, 0}
	}
	return lcKey{name(p.last), name(p.clean), p.cleanAt, p.memo, p.verdicts.Len()}
}

func lcAt(hours int) time.Time { return testEpoch.Add(time.Duration(hours) * time.Hour) }

// lcID names the snapshot files hold, and whether they are all of it; -1
// for no snapshot.
func lcID(files map[string][]byte) (id int, whole bool) {
	a, ok := files["a"]
	if !ok {
		return -1, false
	}
	return int(a[0]), len(files) == 2
}

// lcEntryID names the snapshot a memo entry was validated from.
func (fx *lcFixture) lcEntryID(e *moduleEntry) (id int, whole bool) {
	for i := range fx.fullObjs {
		if e.objects[0].digest == fx.fullObjs[i][0].digest {
			return i, len(e.objects) == 2
		}
	}
	panic("entry validated from no snapshot")
}

// build is the validation of files, snapshot i whole or in part, under the
// world's authority at its clock: an entry when it is clean, nil when it is
// tainted. A snapshot past its manifest's window validates stale. A partial
// fetch's build is judged by its bytes alone: the walk taints it too, but
// next must not rely on that.
func (fx *lcFixture) build(w *lcWorld, files map[string][]byte) *moduleEntry {
	id, _ := lcID(files)
	sn := w.snaps[id]
	if sn.tainted || w.now > sn.born+lcEpoch {
		return nil
	}
	return &moduleEntry{authority: fx.auth[w.auth], objects: fx.objects(files), epoch: window{lcAt(sn.born), lcAt(sn.born + lcEpoch)}}
}

// walkStep is one observation applied: the world after it and, when a walk
// ran, what it fetched, planned and produced.
type walkStep struct {
	w      lcWorld
	walked bool
	s      step
	r      result
}

// apply runs observation o on w, as the walk would: fetch, hash, plan, work
// and next. step numbers the walk, so its verdicts are its own.
func (fx *lcFixture) apply(w lcWorld, o lcObs, cfg lcConfig, step int) walkStep {
	switch o {
	case obsSwap:
		w.auth++
		return walkStep{w: w}
	case obsTick:
		w.now++
		return walkStep{w: w}
	case obsLeap:
		w.now += lcEpoch
		return walkStep{w: w}
	case obsChangedClean, obsChangedTainted:
		w.n++
		w.snaps[w.n] = lcSnap{born: w.now, tainted: o == obsChangedTainted}
		w.cur = w.n
	}
	var f fetched
	switch o {
	case obsUnreachable:
		f.err = errOffline
	case obsCancelled:
		f.err, f.aborted = context.Canceled, true
	case obsPartial:
		f.files, f.err = fx.part[w.cur], errReset
	default:
		f.files = fx.full[w.cur]
		if cfg.incremental {
			f.last = f.files
			if id, _ := lcID(w.p.last); o == obsUnchanged && id == w.cur {
				f.unchanged = true
			}
		}
	}
	if len(f.files) > 0 && !f.unchanged && !f.aborted {
		f.objects = fx.objects(f.files)
	}
	s := plan(w.p, f, fx.auth[w.auth], ipres.Set{}, lcAt(w.now), cfg.ttl)
	r := result{fetched: f}
	switch s.act {
	case validate:
		r.verdicts, r.entry = fx.verdicts[step], fx.build(&w, f.files)
	case lkgRevalidate:
		r.verdicts, r.entry = fx.verdicts[step], fx.build(&w, w.p.clean)
	}
	w.p = next(w.p, s, r, lcAt(w.now))
	return walkStep{w: w, walked: true, s: s, r: r}
}

// check returns every promise of plan's and next's documentation that the
// walk from w to ws.w breaks.
func (fx *lcFixture) check(w lcWorld, o lcObs, cfg lcConfig, ws walkStep) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	p, q, s, r := w.p, ws.w.p, ws.s, ws.r
	f := r.fetched
	pk, qk := keyOf(p), keyOf(q)
	now, cur, snaps := lcAt(ws.w.now), ws.w.cur, &ws.w.snaps

	// The state between walks, whatever the walk did.
	if (q.clean == nil) != q.cleanAt.IsZero() {
		fail("clean set %v but cleanAt %v", q.clean != nil, q.cleanAt)
	}
	if q.clean != nil {
		if cfg.ttl <= 0 {
			fail("clean kept with StaleTTL 0")
		}
		if id := qk.clean[0]; qk.clean[1] == 0 || snaps[id].tainted {
			fail("clean is snapshot %v (tainted %v): only a faithful fetch that validated clean may set it", qk.clean, snaps[id].tainted)
		}
	}
	if q.memo != nil {
		id, whole := fx.lcEntryID(q.memo)
		if !whole || snaps[id].tainted {
			fail("memo validated from snapshot %d (whole %v, tainted %v)", id, whole, snaps[id].tainted)
		}
		if cfg.incremental && qk.last != [2]int{id, 1} {
			fail("memo is validated from snapshot %d, last is %v: tier 1 would trust it for another snapshot", id, qk.last)
		}
		if cfg.ttl > 0 && qk.clean != [2]int{id, 1} {
			fail("memo is validated from snapshot %d, clean is %v: lkgMemo would serve another snapshot's outputs", id, qk.clean)
		}
	}
	if !cfg.incremental && q.last != nil {
		fail("last kept without an incremental fetcher")
	}
	if !ws.walked {
		if pk != qk {
			fail("the state changed with no walk")
		}
		return bad
	}

	// What plan decided.
	usable := p.memo != nil && p.memo.matches(fx.auth[w.auth], ipres.Set{}) && p.memo.within(now)
	if (s.memo != nil) != usable || s.memo != nil && s.memo != p.memo {
		fail("step memo %p, want the point's memo %p exactly when usable (%v)", s.memo, p.memo, usable)
	}
	if (s.act == abort) != (o == obsCancelled) {
		fail("act %d on a cancelled fetch %v", s.act, o == obsCancelled)
	}
	switch s.act {
	case abort:
		if pk != qk {
			fail("an aborted walk changed the point's state")
		}
	case absent, lkgMemo, lkgRevalidate:
		if f.err == nil || len(f.files) > 0 {
			fail("act %d on a fetch that returned bytes", s.act)
		}
		age := now.Sub(p.cleanAt)
		want := ""
		switch {
		case cfg.ttl <= 0:
			want = noFallback
		case p.clean == nil:
			want = noLKG
		case age > cfg.ttl:
			want = lkgExpired
		}
		if (s.act == absent) != (want != "") || s.why != want {
			fail("act %d, why %q on an unreachable point; want why %q", s.act, s.why, want)
		}
		if s.act != absent && s.age != age {
			fail("snapshot served aged %v, want %v at the walk's clock", s.age, age)
		}
		if s.act == lkgMemo {
			// Serving clean from the memo must yield what revalidating it
			// would: the memo was validated from clean, under this
			// authority, and its epoch still holds.
			if id, whole := fx.lcEntryID(p.memo); !usable || pk.clean != [2]int{id, 1} || !whole {
				fail("lkgMemo with a memo that does not answer for clean")
			}
		} else if s.act == lkgRevalidate && usable {
			fail("lkgRevalidate with a usable memo")
		}
	case reuse:
		// Tiers 1 and 2 serve the memo's outputs for the fetched snapshot:
		// the memo must be validated from exactly it, which must be whole.
		if f.err != nil || !usable {
			fail("reuse of a failed fetch (%v) or an unusable memo (%v)", f.err, usable)
		} else if id, whole := fx.lcEntryID(p.memo); !whole || id != cur {
			fail("reuse serves a memo validated from snapshot %d, not the current %d", id, cur)
		}
	case validate:
		if s.partial != (f.err != nil) || f.err != nil && len(f.files) == 0 {
			fail("validate marked partial %v on a fetch with error %v and %d files", s.partial, f.err, len(f.files))
		}
		want := ""
		switch {
		case s.partial || p.memo == nil:
		case !p.memo.matches(fx.auth[w.auth], ipres.Set{}):
			want = "authority-changed"
		case !p.memo.within(now):
			want = "epoch-expired"
		default:
			want = "bytes-changed"
		}
		if s.why != want {
			fail("memo refused for %q, want %q", s.why, want)
		}
	}

	// What next wrote.
	validated := s.act == validate || s.act == lkgRevalidate
	if validated && qk.verdicts != r.verdicts.Len() || !validated && qk.verdicts != pk.verdicts {
		fail("verdicts: a validation must replace them, and nothing else touch them")
	}
	faithful := s.act == reuse || s.act == validate && !s.partial
	if faithful && qk.last != keyOf(pointState{last: f.last}).last || !faithful && qk.last != pk.last {
		fail("last: only a faithful fetch may replace it, with what the fetch recorded")
	}
	if !q.cleanAt.Equal(p.cleanAt) {
		// cleanAt moves only on a proof that clean is current — reuse, or
		// its own clean validation — and then to the sync's start.
		proof := s.act == reuse || s.act == validate && !s.partial && r.entry != nil
		if !proof || !q.cleanAt.Equal(now) || qk.clean != [2]int{cur, 1} {
			fail("cleanAt moved %v -> %v on act %d, clean %v of current %d", p.cleanAt, q.cleanAt, s.act, qk.clean, cur)
		}
	}
	if s.act == reuse && p.clean != nil && !q.cleanAt.Equal(now) {
		fail("a reuse proved clean current without re-stamping it")
	}
	switch {
	case s.act == validate && !s.partial:
		if q.memo != r.entry {
			fail("a faithful validation must leave its own entry as memo, or none when tainted")
		}
		if r.entry != nil && cfg.ttl > 0 && qk.clean != [2]int{cur, 1} {
			fail("a clean faithful validation must keep its snapshot as clean")
		}
		if r.entry == nil && (qk.clean != pk.clean || qk.cleanAt != pk.cleanAt) {
			fail("a tainted validation must leave clean alone")
		}
	case q.memo != p.memo || qk.clean != pk.clean || qk.cleanAt != pk.cleanAt && s.act != reuse:
		fail("act %d (partial %v) touched memo or clean", s.act, s.partial)
	}
	return bad
}

// TestLifecycleExhaustive enumerates every sequence of up to lcMaxK
// observations of one point — unreachable, cancelled, unchanged (tier 1
// where the protocol proves it), same digests (tier 2), changed and clean,
// changed and tainted, partial, an authority swap, and clock steps of one
// hour and of a whole epoch, which cross the epoch and StaleTTL at every
// offset — under StaleTTL 0, shorter than the epoch and longer than it, with
// and without an incremental fetcher. After every step it checks each
// promise plan's and next's tables make.
func TestLifecycleExhaustive(t *testing.T) {
	fx := newLCFixture()
	configs := []lcConfig{}
	for _, ttl := range []time.Duration{0, 2 * time.Hour, 5 * time.Hour} {
		for _, incremental := range []bool{false, true} {
			configs = append(configs, lcConfig{ttl: ttl, incremental: incremental})
		}
	}
	checked := 0
	for _, cfg := range configs {
		// Deepening one step at a time checks each sequence once, when it
		// is a leaf, so the first failure reported is a shortest one.
		for depth := 1; depth <= lcMaxK; depth++ {
			path := make([]lcObs, 0, depth)
			var walk func(w lcWorld) bool
			walk = func(w lcWorld) bool {
				for o := range lcObsCount {
					if o == obsSameDigests && !cfg.incremental {
						continue // the same observation as obsUnchanged
					}
					ws := fx.apply(w, o, cfg, len(path))
					path = append(path, o)
					ok := true
					if len(path) < depth {
						ok = walk(ws.w)
					} else if bad := fx.check(w, o, cfg, ws); len(bad) > 0 {
						names := make([]string, len(path))
						for i, o := range path {
							names[i] = lcObsNames[o]
						}
						t.Errorf("StaleTTL %v, incremental %v, after %s:\n  %s",
							cfg.ttl, cfg.incremental, strings.Join(names, ", "), strings.Join(bad, "\n  "))
						ok = false
					} else {
						checked++
					}
					path = path[:len(path)-1]
					if !ok {
						return false
					}
				}
				return true
			}
			if !walk(lcWorld{}) {
				break
			}
		}
	}
	t.Logf("k = %d: %d sequences checked over %d configurations", lcMaxK, checked, len(configs))
}

// TestWalkReadsClockOnce: a sync reads the clock when it starts and when it
// ends, and each walk that reaches its fetch reads it once more; the memo's
// epoch, the reason a memo is refused, the last-known-good snapshot's age
// and the validation are all judged at that one reading. Here one point is
// served from last-known-good and another's memo is refused, the two paths
// that once read the clock again.
func TestWalkReadsClockOnce(t *testing.T) {
	arin, sprint, _, stores := buildFigure2(t)
	fetcher := &flakyStores{StoreFetcher: stores, offline: map[string]bool{}}
	var reads atomic.Int64
	hub := obs.NewHub(clock)
	relying := New(Config{
		Fetcher:  fetcher,
		Clock:    func() time.Time { reads.Add(1); return testEpoch },
		StaleTTL: time.Hour,
		Workers:  2,
		Obs:      hub,
	}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	if res := syncReuse(t, relying); res.Incomplete() || res.PubPointsVisited != 4 {
		t.Fatalf("clean sync: %d points, diagnostics %v", res.PubPointsVisited, res.Diagnostics)
	}
	if got := reads.Load(); got != 2+4 {
		t.Errorf("clean sync read the clock %d times, want 2 + 4 walks", got)
	}

	fetcher.offline["continental"] = true
	mustROA(t, sprint, "sprint-171", 1239, "63.171.0.0/16")
	reads.Store(0)
	res := syncReuse(t, relying)
	if res.StaleFallbacks != 1 || res.ModulesRevalidated != 1 || res.PubPointsVisited != 4 {
		t.Fatalf("want continental served from last-known-good and sprint revalidated: %d stale, %d revalidated, %d points",
			res.StaleFallbacks, res.ModulesRevalidated, res.PubPointsVisited)
	}
	if got, _ := hub.Registry().Sample(`rpki_module_reuse_rejected_total{reason="bytes-changed"}`); got != 1 {
		t.Errorf("bytes-changed rejections = %v, want sprint's 1", got)
	}
	if got := reads.Load(); got != 2+4 {
		t.Errorf("sync read the clock %d times, want 2 + 4 walks", got)
	}
}
