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
// Faults model *transport-level* failures as seen by the relying party;
// the authority's own misbehavior (deleting, shrinking, overwriting) is
// modeled by mutating the Store itself via the ca package.
type Faults struct {
	mu sync.Mutex
	// drop hides named objects from both LIST and GET.
	drop map[string]bool
	// corrupt serves named objects with flipped bits.
	corrupt map[string]bool
	// refuse rejects all connections to the module.
	refuse bool
	// delay postpones every response.
	delay time.Duration
	// objDelay postpones responses for specific objects.
	objDelay map[string]time.Duration
	// truncate serves named objects with half their body, then drops the
	// connection.
	truncate map[string]bool
	// frozen, when set, is the listing LIST serves in the store's place.
	frozen map[string]ObjectInfo
	// version, while versionFrozen, is the store version the module's tokens
	// are rendered from in the live store's place.
	version       uint64
	versionFrozen bool
	// echo, when positive, repeats every LIST reply unasked after this long.
	echo time.Duration
	// failN/failM: fail the first failN of every failM requests touching
	// a name ("" keys module-level request faults). reqCount is the
	// per-name request counter driving the cycle.
	failN, failM map[string]int
	reqCount     map[string]int
	// slowLoris throttles body writes to one byte per interval.
	slowLoris time.Duration
	// bandwidth caps GET body writes to this many bytes per second.
	bandwidth int
	// corruptN/corruptM: serve the first corruptN of every corruptM requests
	// touching a name with flipped bits. corruptCount drives the cycle.
	corruptN, corruptM map[string]int
	corruptCount       map[string]int
	// script, when set, is consulted per request with a 1-based counter —
	// arbitrary flaky-then-healthy schedules in one closure.
	script  func(requestN int) FaultAction
	scriptN int
}

// NewFaults returns a fault plan injecting nothing.
func NewFaults() *Faults {
	return &Faults{
		drop:         make(map[string]bool),
		corrupt:      make(map[string]bool),
		objDelay:     make(map[string]time.Duration),
		truncate:     make(map[string]bool),
		failN:        make(map[string]int),
		failM:        make(map[string]int),
		reqCount:     make(map[string]int),
		corruptN:     make(map[string]int),
		corruptM:     make(map[string]int),
		corruptCount: make(map[string]int),
	}
}

// Drop hides name from the served module until Restore is called.
func (f *Faults) Drop(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drop[name] = true
}

// Corrupt serves name with its content corrupted.
func (f *Faults) Corrupt(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corrupt[name] = true
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
	if d <= 0 {
		delete(f.objDelay, name)
		return
	}
	f.objDelay[name] = d
}

// FailRate makes the first n of every m requests touching name fail by
// dropping the connection — the intermittent fault a retrying client
// converges through deterministically (requests 1..n of each cycle fail,
// n+1..m succeed). name "" applies the rate to every request on the module
// (LIST included). n<=0 or m<=0 clears the rate for name.
func (f *Faults) FailRate(name string, n, m int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 || m <= 0 {
		delete(f.failN, name)
		delete(f.failM, name)
		delete(f.reqCount, name)
		return
	}
	f.failN[name] = n
	f.failM[name] = m
	f.reqCount[name] = 0
}

// Truncate serves name's GET with the correct size header but only half the
// body, then drops the connection — the torn transfer a crashing repository
// produces.
func (f *Faults) Truncate(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.truncate[name] = true
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
	if n <= 0 || m <= 0 {
		delete(f.corruptN, name)
		delete(f.corruptM, name)
		delete(f.corruptCount, name)
		return
	}
	f.corruptN[name] = n
	f.corruptM[name] = m
	f.corruptCount[name] = 0
}

// SetScript installs a scripted fault schedule: fn is consulted once per
// request with a 1-based request counter and its action applied before any
// other fault. nil clears the script. Use it to express flaky-then-healthy
// timelines ("drop the first 4 requests, then recover").
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
		f.drop = make(map[string]bool)
		f.corrupt = make(map[string]bool)
		f.refuse = false
		f.delay = 0
		f.objDelay = make(map[string]time.Duration)
		f.truncate = make(map[string]bool)
		f.frozen = nil
		f.version, f.versionFrozen = 0, false
		f.echo = 0
		f.failN = make(map[string]int)
		f.failM = make(map[string]int)
		f.reqCount = make(map[string]int)
		f.slowLoris = 0
		f.bandwidth = 0
		f.corruptN = make(map[string]int)
		f.corruptM = make(map[string]int)
		f.corruptCount = make(map[string]int)
		f.script = nil
		f.scriptN = 0
		return
	}
	delete(f.drop, name)
	delete(f.corrupt, name)
	delete(f.objDelay, name)
	delete(f.truncate, name)
	delete(f.failN, name)
	delete(f.failM, name)
	delete(f.reqCount, name)
	delete(f.corruptN, name)
	delete(f.corruptM, name)
	delete(f.corruptCount, name)
}

func (f *Faults) dropped(name string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.drop[name]
}

func (f *Faults) corrupted(name string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.corrupt[name]
}

func (f *Faults) refusing() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.refuse
}

func (f *Faults) currentDelay() time.Duration {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delay
}

func (f *Faults) objectDelay(name string) time.Duration {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.objDelay[name]
}

func (f *Faults) truncated(name string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.truncate[name]
}

func (f *Faults) frozenListing() map[string]ObjectInfo {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frozen
}

// frozenVersion is the version FreezeVersion pinned, if any. f is non-nil.
func (f *Faults) frozenVersion() (uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version, f.versionFrozen
}

func (f *Faults) echoDelay() time.Duration {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.echo
}

func (f *Faults) slowLorisDelay() time.Duration {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slowLoris
}

// shouldFail advances name's request counter and reports whether this
// request falls in the failing part of its FailRate cycle.
func (f *Faults) shouldFail(name string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.failM[name]
	if m <= 0 {
		return false
	}
	k := f.reqCount[name]
	f.reqCount[name] = k + 1
	return k%m < f.failN[name]
}

func (f *Faults) bandwidthLimit() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bandwidth
}

// shouldCorrupt advances name's corruption counter and reports whether this
// request falls in the corrupting part of its CorruptRate cycle.
func (f *Faults) shouldCorrupt(name string) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.corruptM[name]
	if m <= 0 {
		return false
	}
	k := f.corruptCount[name]
	f.corruptCount[name] = k + 1
	return k%m < f.corruptN[name]
}

// scriptAction advances the script's request counter and returns its verdict
// for this request.
func (f *Faults) scriptAction() FaultAction {
	if f == nil {
		return ActNone
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.script == nil {
		return ActNone
	}
	f.scriptN++
	return f.script(f.scriptN)
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
