package repo

import (
	"sync"
	"time"
)

// FaultAction is what a scripted fault does to one request.
type FaultAction uint8

const (
	// ActNone serves the request normally.
	ActNone FaultAction = iota
	// ActDropConn drops the connection without a response (transport
	// fault: the client sees an I/O error and may retry).
	ActDropConn
	// ActErr answers the request with a protocol-level ERR (permanent:
	// the client must not retry).
	ActErr
)

// Faults injects delivery failures into a served publication point. The
// paper (Section 4, Side Effect 6) lists the ways "information can be
// missing": delayed renewal, filesystem or server corruption, withheld
// objects. Each has a switch here, plus the transport pathologies real
// relying parties survive with retries and fallbacks: intermittent failures
// (fail N of every M requests), truncated bodies, per-object delays,
// slow-loris trickle, and scripted schedules. The zero Faults injects
// nothing.
//
// The plan is the module-level settings plus one entry per faulted object
// name, so Restore(name) deletes one entry and Restore("") zeroes the plan.
// The server reads it once per request, when the request arrives, and reads
// the store in the same step: that one locked read settles everything the
// plan does to the request and advances exactly the FailRate, CorruptRate
// and SetScript counters the request reaches, and the server acts on the
// value it got back. A reply therefore never mixes two states of the plan,
// and a request sees the plan as it stood when the request arrived. An
// injected delay only postpones a reply already decided: a change made while
// the request sleeps through it, a Restore or a publication, takes effect
// from the next request.
//
// Faults model *transport-level* failures as seen by the relying party;
// the authority's own misbehavior (deleting, shrinking, overwriting) is
// modeled by mutating the Store itself via the ca package.
type Faults struct {
	mu sync.Mutex
	// plan is everything injected; Restore("") zeroes it. guarded by mu.
	plan
}

// plan is a module's fault plan: its module-level settings, then one entry
// per faulted object name.
type plan struct {
	// refuse rejects all connections to the module. guarded by Faults.mu.
	refuse bool
	// delay postpones every response. guarded by Faults.mu.
	delay time.Duration
	// frozen, when set, is the listing LIST serves in the store's place.
	// guarded by Faults.mu.
	frozen map[string]ObjectInfo
	// version, while versionFrozen, is the store version the module's tokens
	// are rendered from in the live store's place. guarded by Faults.mu.
	version       uint64
	versionFrozen bool
	// echo, when positive, repeats every LIST reply unasked after this long.
	// guarded by Faults.mu.
	echo time.Duration
	// slowLoris throttles GET body writes to one byte per interval.
	// guarded by Faults.mu.
	slowLoris time.Duration
	// bandwidth caps GET body writes to this many bytes per second.
	// guarded by Faults.mu.
	bandwidth int
	// script, when set, is consulted per request with the 1-based counter
	// scriptN — arbitrary flaky-then-healthy schedules in one closure.
	// guarded by Faults.mu.
	script  func(requestN int) FaultAction
	scriptN int
	// objects holds one entry per faulted object name; "" holds the
	// module-level FailRate. guarded by Faults.mu.
	objects map[string]*objectFaults
}

// objectFaults is the plan for one object name.
type objectFaults struct {
	// drop hides the object from both LIST and GET, corrupt serves it with
	// flipped bits, and truncate serves half its body, then drops the
	// connection. guarded by Faults.mu.
	drop, corrupt, truncate bool
	// delay postpones the object's GETs. guarded by Faults.mu.
	delay time.Duration
	// fail is the FailRate cycle of the requests touching the name, damage
	// the CorruptRate cycle of its GETs. guarded by Faults.mu.
	fail, damage cycle
}

// cycle is a FailRate or CorruptRate schedule: of every m requests it counts,
// the first n hit. The zero cycle never hits.
type cycle struct {
	// n and m are the rate, count the requests counted so far.
	// guarded by Faults.mu.
	n, m, count int
}

// newCycle is the cycle hitting the first n of every m requests; n<=0 or
// m<=0 gives the zero cycle.
func newCycle(n, m int) cycle {
	if n <= 0 || m <= 0 {
		return cycle{}
	}
	return cycle{n: n, m: m}
}

// hitLocked counts one request and reports whether it falls in the hitting
// part of the cycle.
func (c *cycle) hitLocked() bool {
	if c.m <= 0 {
		return false
	}
	k := c.count
	c.count++
	return k%c.m < c.n
}

// NewFaults returns a fault plan injecting nothing.
func NewFaults() *Faults {
	return &Faults{}
}

// objectLocked returns name's entry, adding one if the plan has none.
func (f *Faults) objectLocked(name string) *objectFaults {
	o := f.objects[name]
	if o == nil {
		if f.objects == nil {
			f.objects = make(map[string]*objectFaults)
		}
		o = new(objectFaults)
		f.objects[name] = o
	}
	return o
}

// Drop hides name from the served module until Restore is called.
func (f *Faults) Drop(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.objectLocked(name).drop = true
}

// Corrupt serves name with its content corrupted.
func (f *Faults) Corrupt(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.objectLocked(name).corrupt = true
}

// Refuse makes the module reject all connections (server unreachable).
func (f *Faults) Refuse(refuse bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refuse = refuse
}

// SetDelay postpones every response by d.
func (f *Faults) SetDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay = d
}

// DelayObject postpones GET responses for name by d, so a single
// slow object can be injected without slowing the whole module — the case
// that distinguishes per-request deadlines from whole-fetch ones.
func (f *Faults) DelayObject(name string, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.objectLocked(name).delay = max(d, 0)
}

// FailRate makes the first n of every m requests touching name fail by
// dropping the connection — the intermittent fault a retrying client
// converges through deterministically (requests 1..n of each cycle fail,
// n+1..m succeed). name "" applies the rate to every request on the module
// (LIST included). n<=0 or m<=0 clears the rate for name.
func (f *Faults) FailRate(name string, n, m int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.objectLocked(name).fail = newCycle(n, m)
}

// Truncate serves name's GET with the correct size header but only half the
// body, then drops the connection — the torn transfer a crashing repository
// produces.
func (f *Faults) Truncate(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.objectLocked(name).truncate = true
}

// FreezeListing makes LIST keep answering with listing (typically the
// store's Infos() at the moment of the call) whatever the authority publishes
// afterwards, while GET serves the live store — the repository that answers
// "nothing changed" forever, the cheapest way to hold a relying party on an
// old world. nil unfreezes.
func (f *Faults) FreezeListing(listing map[string]ObjectInfo) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frozen = listing
}

// FreezeVersion makes every token the server hands out for the module — in
// VERSIONS and in LIST headers alike — the one for store version v (typically
// the store's Version() at the moment of the call, or an older one for a
// rollback), whatever the authority publishes afterwards: the repository that
// answers "unchanged" without even being asked for a listing. It is also the
// one way a module with a fault plan is vouched for in VERSIONS at all: a plan
// that does not say what to vouch leaves the module out, so its faults are met
// on the listing path. Restore("") unfreezes.
func (f *Faults) FreezeVersion(v uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.version, f.versionFrozen = v, true
}

// EchoListing makes the server follow every LIST reply, d later, with a second
// copy nobody asked for — the desynchronising peer: a client that has by then
// handed the connection to its next fetch reads this module's listing as the
// answer to another module's request. 0 disables.
func (f *Faults) EchoListing(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.echo = d
}

// SetSlowLoris throttles every GET body to one byte per d — the Stalloris
// pattern: the repository is "up" but a naive relying party stalls a worker
// on it indefinitely. 0 disables.
func (f *Faults) SetSlowLoris(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slowLoris = d
}

// SetBandwidth caps every GET body at bytesPerSec — sustained byte-rate
// throttling, distinct from SetSlowLoris's per-byte trickle: the transfer
// makes real progress, just slowly, so it probes deadline budgets rather
// than first-byte timeouts. 0 disables.
func (f *Faults) SetBandwidth(bytesPerSec int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bandwidth = bytesPerSec
}

// CorruptRate makes the first n of every m GETs of name serve corrupted
// bytes, mirroring FailRate's deterministic cycle — the intermittently flaky
// disk or proxy whose damage a manifest-checking client must reject every
// time it appears. The damage is in flight: the listing keeps the store's
// digest and does not advance the cycle, so an incremental sync sees a body
// that contradicts its listing. name "" is not supported (corruption is per
// object). n<=0 or m<=0 clears the rate.
func (f *Faults) CorruptRate(name string, n, m int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.objectLocked(name).damage = newCycle(n, m)
}

// SetScript installs a scripted fault schedule: fn is consulted once per
// request with a 1-based request counter and its action applied before any
// other fault. nil clears the script. Use it to express flaky-then-healthy
// timelines ("drop the first 4 requests, then recover"). fn runs inside the
// request's one read of the plan, so it must not call f's methods; what it
// publishes to the store, the request already serves.
func (f *Faults) SetScript(fn func(requestN int) FaultAction) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.script = fn
	f.scriptN = 0
}

// Restore clears all per-object faults for name (or every fault, including
// module-level ones, when name is ""). It models the transient fault being
// fixed — the crux of Side Effect 7 is that recovery of the repository does
// not imply recovery of the relying party.
func (f *Faults) Restore(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if name == "" {
		f.plan = plan{}
		return
	}
	delete(f.objects, name)
}

// verdict is one request as a module's fault plan settles it, with what it
// serves from the store, read in the same step (Faults.decide).
type verdict struct {
	// delay postpones the request; act then drops its connection
	// (ActDropConn: Refuse, which skips the delay, the script, or the
	// module-level FailRate) or answers it ERR (ActErr: the script).
	delay time.Duration
	act   FaultAction
	// version is what the module's tokens are rendered from (VERSIONS and
	// LIST): the store's, or the one FreezeVersion pinned.
	version uint64
	pinned  bool
	// LIST: listing is the store's, or the frozen one; the hidden names are
	// left out and the damaged ones listed with the digest of the bytes a GET
	// serves; echo repeats the reply that long after.
	listing         map[string]ObjectInfo
	hidden, damaged map[string]bool
	echo            time.Duration
	// GET: content is the object, if stored. wait postpones it; then fail
	// drops the connection or hide answers that there is no such object;
	// corrupt flips bits, truncate tears the body, and slowLoris and
	// bandwidth pace it.
	content                       []byte
	stored                        bool
	wait                          time.Duration
	fail, hide, corrupt, truncate bool
	slowLoris                     time.Duration
	bandwidth                     int
}

// read takes what a request serves from s: VERSIONS' version, a LIST's
// listing with its version, a GET's object.
func (v *verdict) read(verb, name string, s *Store) {
	switch verb {
	case "VERSIONS":
		v.version = s.Version()
	case "LIST":
		v.listing, v.version = s.listing()
	case "GET":
		v.content, v.stored = s.Get(name)
	}
}

// decide settles one request, verb "VERSIONS", "LIST" or "GET" of object
// name, in one read of the plan, and reads the store s in the same step. It
// decides in the order the server acts and advances exactly the counters the
// request reaches: Refuse ends a LIST or GET at once; then come the module
// delay, the script and the module-level FailRate; then, for a GET of a valid
// name, the object's delay, its FailRate and, for an object that is stored
// and neither dropped nor Corrupted, its CorruptRate. The store is read after
// the script, which may publish. A nil plan injects nothing.
func (f *Faults) decide(verb, name string, s *Store) (v verdict) {
	if f == nil {
		v.read(verb, name, s)
		return v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if verb != "VERSIONS" && !f.admitLocked(&v) {
		return v
	}
	v.read(verb, name, s)
	if f.versionFrozen {
		v.version, v.pinned = f.version, true
	}
	switch verb {
	case "LIST":
		if f.frozen != nil {
			v.listing = f.frozen
		}
		v.echo = f.echo
		for obj, o := range f.objects {
			if o.drop || o.corrupt {
				if v.hidden == nil {
					v.hidden, v.damaged = make(map[string]bool), make(map[string]bool)
				}
				v.hidden[obj], v.damaged[obj] = o.drop, o.corrupt
			}
		}
	case "GET":
		v.slowLoris, v.bandwidth = f.slowLoris, f.bandwidth
		o := f.objects[name]
		if o == nil || !validName(name) {
			return v
		}
		v.wait = o.delay
		if v.fail = o.fail.hitLocked(); v.fail {
			return v
		}
		if v.hide = o.drop; v.stored && !v.hide {
			v.corrupt = o.corrupt || o.damage.hitLocked()
			v.truncate = o.truncate
		}
	}
	return v
}

// admitLocked settles the module-level part of a LIST or GET — refusal, the
// module delay, the script, the module-level FailRate — and reports whether
// the request gets past it.
func (f *Faults) admitLocked(v *verdict) bool {
	if f.refuse {
		v.act = ActDropConn
		return false
	}
	v.delay = f.delay
	if f.script != nil {
		f.scriptN++
		if v.act = f.script(f.scriptN); v.act == ActDropConn || v.act == ActErr {
			return false
		}
	}
	if o := f.objects[""]; o != nil && o.fail.hitLocked() {
		v.act = ActDropConn
		return false
	}
	return true
}

// corruptBytes deterministically flips bits so corruption is reproducible.
func corruptBytes(b []byte) []byte {
	out := append([]byte(nil), b...)
	for i := range out {
		if i%17 == 3 {
			out[i] ^= 0xA5
		}
	}
	return out
}
