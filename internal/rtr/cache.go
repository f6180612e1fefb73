package rtr

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rov"
)

// delta records one cache update: the announce/withdraw sets plus their
// precomputed wire encoding, shared read-only by every connection that
// replays this delta.
type delta struct {
	serial    uint32
	announced []rov.VRP
	withdrawn []rov.VRP
	// frame is the delta's prefix PDUs (announces then withdraws),
	// serialized once at update time. Immutable after creation.
	frame []byte
	// createdAt stamps when the delta entered the cache, anchoring the
	// delta-propagation latency histogram. Immutable after creation.
	createdAt time.Time
}

func (d *delta) vrpCount() int { return len(d.announced) + len(d.withdrawn) }

// numSubShards splits the subscriber table N ways so a cache update fans
// out over N short critical sections instead of one walk of a giant map
// under one lock. 32 shards keep the per-shard walk under ~350 entries
// even at 10k clients.
const numSubShards = 32

// subscriber is one connection's notification handle. Serial notifies are
// coalesced: pending always holds the latest serial and wake is a 1-slot
// doorbell, so a subscriber that has not drained yet absorbs any number of
// updates at zero queue growth — a slow consumer can never make the cache
// buffer per-client notify backlogs.
type subscriber struct {
	peer string
	// pending is the latest serial to announce (read with Load after a
	// wake). Writing pending then ringing wake is the only publish order.
	pending atomic.Uint32
	// wake is the 1-slot doorbell; a failed send means the subscriber is
	// already scheduled to look at pending.
	wake chan struct{}
	// queueDepth reports the owning connection's send-queue depth for the
	// scrape-time gauges (nil for connections without a queue).
	queueDepth func() int
}

// offer publishes serial to the subscriber, coalescing with any
// not-yet-consumed notify.
func (s *subscriber) offer(serial uint32) {
	s.pending.Store(serial)
	select {
	case s.wake <- struct{}{}:
	default: // doorbell already rung; the pending serial is the newest
	}
}

// subShard is one slice of the subscriber table with its own lock.
type subShard struct {
	mu sync.Mutex
	// subs holds this shard's live subscribers. guarded by mu.
	subs map[*subscriber]struct{}
}

// propRingSize bounds the serial→creation-time ring used by the
// propagation-latency histogram; lookups are O(1) under a read lock so 10k
// clients observing one delta never contend on the cache's main mutex.
const propRingSize = 256

type propEntry struct {
	serial uint32
	at     time.Time
}

// Cache is the server-side VRP database with serial-numbered history.
//
// Serving is zero-copy: the current set and each delta carry precomputed,
// immutable frames of serialized prefix PDUs, built once and written
// verbatim to every client — N routers asking for the same data cost N
// writes, not N serializations. The set is held as chunks (see chunk), so an
// update rebuilds and re-serializes only the chunks it touches. The delta
// history is bounded by entry count, total VRP count, and total frame bytes,
// so a long-lived server's memory stays flat no matter how many updates it
// has seen; a client whose serial predates the retained window gets a Cache
// Reset and reloads the snapshot.
//
// The subscriber table is sharded numSubShards ways: SetVRPs walks N small
// maps under N short locks instead of one giant map under the cache lock,
// so notify fan-out to 10k+ connections never serializes behind state
// updates (and vice versa).
type Cache struct {
	mu sync.Mutex
	// Session and serial state. guarded by mu.
	session uint16
	serial  uint32
	// chunks is the current set: canonical order (rov.SortVRPs), duplicate-
	// free, every entry encodable, cut into immutable chunks. The list is
	// replaced, never mutated, so connections may hold it and the chunks'
	// frames outside the lock; the field itself is guarded by mu.
	chunks []*chunk
	// Delta history and its size accounting. guarded by mu.
	history   []delta
	histVRPs  int
	histBytes int
	// History bounds: entries, total VRPs, total frame bytes. guarded by mu.
	maxHist      int
	maxHistVRPs  int
	maxHistBytes int

	// Subscriber table, sharded; each shard carries its own lock.
	shards    [numSubShards]subShard
	nextShard atomic.Uint32

	// propMu guards propRing: the fixed serial→createdAt ring feeding the
	// propagation histogram without touching mu on the per-client path.
	propMu   sync.RWMutex
	propRing [propRingSize]propEntry

	// met holds metric handles registered by Instrument (nil pointer when
	// uninstrumented); atomic so hot paths never lock to reach a counter.
	met atomic.Pointer[rtrMetrics]
}

// Default history bounds: plenty for steady-state polling, small enough
// that a churn storm cannot balloon a long-lived server.
const (
	defaultMaxHist      = 64
	defaultMaxHistVRPs  = 1 << 16
	defaultMaxHistBytes = 1 << 20
)

// NewCache creates an empty cache with the given session ID.
func NewCache(session uint16) *Cache {
	c := &Cache{
		session:      session,
		maxHist:      defaultMaxHist,
		maxHistVRPs:  defaultMaxHistVRPs,
		maxHistBytes: defaultMaxHistBytes,
	}
	for i := range c.shards {
		//lint:ignore guardedby the cache is not yet published to any other goroutine
		c.shards[i].subs = make(map[*subscriber]struct{})
	}
	return c
}

// SetHistoryLimits bounds the retained delta history by entry count, total
// VRP count, and total precomputed frame bytes. Arguments <= 0 keep the
// current value. Clients older than the retained window fall back to a full
// snapshot reload via Cache Reset.
func (c *Cache) SetHistoryLimits(entries, vrps, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if entries > 0 {
		c.maxHist = entries
	}
	if vrps > 0 {
		c.maxHistVRPs = vrps
	}
	if bytes > 0 {
		c.maxHistBytes = bytes
	}
	c.evictLocked()
}

// HistoryStats reports the retained history's size (for observability and
// tests of the memory bound).
func (c *Cache) HistoryStats() (entries, vrps, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.history), c.histVRPs, c.histBytes
}

// Serial returns the current serial number.
func (c *Cache) Serial() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serial
}

// Session returns the cache's session ID.
func (c *Cache) Session() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// Len returns the number of VRPs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ch := range c.chunks {
		n += len(ch.vrps)
	}
	return n
}

// StateDigest hashes the cache's externally visible state — session,
// serial, and the serialized snapshot (the chunk frames in order, so where
// the set happens to be cut does not show). Two caches with equal digests
// serve byte-identical snapshots under the same session and serial; the
// bench equivalence gate compares a replica frontend against its primary
// with exactly this.
func (c *Cache) StateDigest() [32]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := sha256.New()
	var hdr [6]byte
	binary.BigEndian.PutUint16(hdr[0:], c.session)
	binary.BigEndian.PutUint32(hdr[2:], c.serial)
	h.Write(hdr[:])
	for _, ch := range c.chunks {
		h.Write(ch.frame)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// chunkVRPs is the most VRPs one chunk holds: rebuilding a chunk (≈ 48 KiB
// of VRPs, ≈ 20 KiB of frame) is cheap next to one walk of a live-RPKI-sized
// set, and the chunk list of such a set stays a couple of hundred pointers.
const chunkVRPs = 1024

// chunk is one run of the canonical set, in a cache with its wire encoding
// (Announce prefix PDUs, in order). A cache's chunk is immutable after
// creation: an update that touches it replaces it, so its frame may be written
// outside the cache lock. A router's chunks (Client) are the same runs with
// no frame, and the router's alone: rebuildChunks reuses their storage.
//
// Only the last chunk of a list may hold fewer than chunkVRPs/2 VRPs
// (rebuildChunks keeps it so); none is empty.
type chunk struct {
	vrps  []rov.VRP
	frame []byte
}

// newChunk makes vrps, which the caller gives up, a chunk, serialized if
// framed into a frame of exactly its wire size.
func newChunk(vrps []rov.VRP, framed bool) *chunk {
	ch := &chunk{vrps: vrps}
	if framed {
		ch.frame = encodeVRPs(make([]byte, 0, prefixPDUsLen(vrps)), vrps, FlagAnnounce)
	}
	return ch
}

// appendChunks copies vrps into the fewest evenly sized chunks and appends
// them to out. Even cuts keep every piece of a run of chunkVRPs/2 or more at
// chunkVRPs/2 or more.
func appendChunks(out []*chunk, vrps []rov.VRP, framed bool) []*chunk {
	pieces := (len(vrps) + chunkVRPs - 1) / chunkVRPs
	out = slices.Grow(out, pieces)
	for i := 0; i < pieces; i++ {
		out = append(out, newChunk(slices.Clone(vrps[i*len(vrps)/pieces:(i+1)*len(vrps)/pieces]), framed))
	}
	return out
}

// flattenChunks returns the set the chunks hold as one freshly allocated
// slice of exactly its size.
func flattenChunks(chunks []*chunk) []rov.VRP {
	n := 0
	for _, ch := range chunks {
		n += len(ch.vrps)
	}
	out := make([]rov.VRP, 0, n)
	for _, ch := range chunks {
		out = append(out, ch.vrps...)
	}
	return out
}

// prefixPDUsLen is the exact wire size of vrps' prefix PDUs.
func prefixPDUsLen(vrps []rov.VRP) int {
	n := 0
	for _, v := range vrps {
		n += prefixPDULen(v)
	}
	return n
}

// encodeVRPs appends the prefix PDUs for vrps (with the given flags) to buf.
// Every VRP must be encodable, which is checked before a set is stored.
func encodeVRPs(buf []byte, vrps []rov.VRP, flags uint8) []byte {
	for _, v := range vrps {
		buf = appendPrefixPDU(buf, flags, v)
	}
	return buf
}

// normalizeVRPs copies, canonically sorts, and deduplicates vrps, dropping
// those no prefix PDU can carry (invalid prefix, maxLength out of range).
func normalizeVRPs(vrps []rov.VRP) []rov.VRP {
	next := make([]rov.VRP, 0, len(vrps))
	for _, v := range vrps {
		if encodable(v) {
			next = append(next, v)
		}
	}
	rov.SortVRPs(next)
	return slices.Compact(next)
}

// diffChunks diffs the cached set against in with one merge pass: announced
// holds what is in in but not cached, withdrawn the reverse, both canonical
// and freshly allocated. A chunk equal to its run of in is passed over with
// one slices.Equal; only chunks that differ are walked entry by entry. An
// unchanged set yields two nil slices without allocating.
//
// The same pass checks that in is canonical and encodable, and reports
// ok=false if not. The cached set is both by invariant, so an entry of in
// equal to a cached entry needs no check of its own: every earlier entry of
// in was either matched to an earlier cached entry or announced because it
// ordered below one, and so orders below this one too. Only an announced
// entry is tested, for encodability and against its predecessor in in.
func diffChunks(chunks []*chunk, in []rov.VRP) (announced, withdrawn []rov.VRP, ok bool) {
	announce := func(j int) bool {
		if !encodable(in[j]) || j > 0 && in[j-1].Compare(in[j]) >= 0 {
			return false
		}
		announced = append(announced, in[j])
		return true
	}
	j := 0
	for _, ch := range chunks {
		if n := len(ch.vrps); n <= len(in)-j && slices.Equal(ch.vrps, in[j:j+n]) {
			j += n
			continue
		}
		i := 0
		for i < len(ch.vrps) && j < len(in) {
			switch c := ch.vrps[i].Compare(in[j]); {
			case c == 0:
				i++
				j++
			case c < 0:
				withdrawn = append(withdrawn, ch.vrps[i])
				i++
			default:
				if !announce(j) {
					return nil, nil, false
				}
				j++
			}
		}
		withdrawn = append(withdrawn, ch.vrps[i:]...)
	}
	for ; j < len(in); j++ {
		if !announce(j) {
			return nil, nil, false
		}
	}
	return announced, withdrawn, true
}

// rebuildChunks returns the chunk list of (chunks \ withdrawn) ∪ announced,
// both canonical, with frames if framed (chunks must have been built the same
// way). A chunk's share of the delta is what orders below the next chunk's
// head (everything left, for the last chunk). A chunk with no share is kept
// by pointer; the others are merged into a run that becomes a new chunk once
// it holds chunkVRPs/2 or more (several, cut evenly, if it outgrew one). A
// shorter run takes in the following chunk as well, share or not, so small
// chunks cannot accumulate. The cost is the chunks touched plus one pointer
// per chunk, not the set. This is the one way a chunked set changes: the
// primary's SetVRPs, a replica's applyDelta and a router's End of Data all
// end here.
//
// Framed chunks are immutable and the old list stays valid. Unframed chunks
// belong to a router, which is their only holder: the storage of a chunk
// merged into a run is reused for the next run, so a scattered delta costs
// one copy per chunk touched and one allocation in all. The old list is dead
// once this returns; the caller keeps readers out meanwhile.
func rebuildChunks(chunks []*chunk, announced, withdrawn []rov.VRP, framed bool) []*chunk {
	if len(chunks) == 0 {
		return appendChunks(nil, announced, framed)
	}
	out := make([]*chunk, 0, len(chunks)+len(announced)/chunkVRPs+1)
	var run []rov.VRP   // merged, not yet cut
	var spare []rov.VRP // unframed only: the storage of the chunk merged last
	// cut moves the run into out: as it stands if it makes one chunk (the
	// usual case, a chunk merged with its few changes), copied into even
	// pieces otherwise.
	cut := func() {
		if 0 < len(run) && len(run) <= chunkVRPs {
			out = append(out, newChunk(run, framed))
		} else {
			out = appendChunks(out, run, framed)
		}
		run = nil
	}
	for k, ch := range chunks {
		if len(run) >= chunkVRPs/2 {
			cut()
		}
		na, nw := len(announced), len(withdrawn)
		if k+1 < len(chunks) {
			head := chunks[k+1].vrps[0]
			na, _ = slices.BinarySearchFunc(announced, head, rov.VRP.Compare)
			nw, _ = slices.BinarySearchFunc(withdrawn, head, rov.VRP.Compare)
		}
		if na+nw == 0 && len(run) == 0 {
			out = append(out, ch)
			continue
		}
		if len(run) == 0 {
			if need := len(ch.vrps) + na; cap(spare) < need {
				spare = make([]rov.VRP, 0, need)
			}
			run, spare = spare, nil
		}
		run = mergeApply(run, ch.vrps, announced[:na], withdrawn[:nw])
		announced, withdrawn = announced[na:], withdrawn[nw:]
		if !framed {
			spare = ch.vrps[:0]
		}
	}
	cut()
	return out
}

// SetVRPs replaces the cache contents. The diff against the cached set is
// one merge pass that also verifies the input is canonical (what rp hands
// over; see diffChunks); input that is not is normalized (copied, sorted
// canonically, deduplicated, unencodable VRPs dropped) and diffed again.
// Only if anything changed are the chunks the delta touches rebuilt from the
// cache's own copies, the serial bumped, the delta frame serialized once,
// and subscribed connections notified. An unchanged canonical set is a true
// no-op: no allocation, no serial bump, no notification, which is what makes
// the relying party's steady-state polling loop end in silence here. The
// caller keeps ownership of vrps either way.
func (c *Cache) SetVRPs(vrps []rov.VRP) {
	c.mu.Lock()
	announced, withdrawn, ok := diffChunks(c.chunks, vrps)
	if !ok {
		c.mu.Unlock() // sort outside the lock; the set may move meanwhile, so diff afresh
		vrps = normalizeVRPs(vrps)
		c.mu.Lock()
		announced, withdrawn, _ = diffChunks(c.chunks, vrps)
	}
	if len(announced) == 0 && len(withdrawn) == 0 {
		c.mu.Unlock()
		return
	}
	serial := c.commitLocked(c.serial+1, announced, withdrawn)
	c.mu.Unlock()
	c.notifyAll(serial)
}

// commitLocked applies the delta to the chunks at the given serial and
// appends it to the bounded history. announced and withdrawn are canonical,
// encodable and owned by the cache. Callers hold c.mu; they must call
// notifyAll(serial) after unlocking.
func (c *Cache) commitLocked(serial uint32, announced, withdrawn []rov.VRP) uint32 {
	c.serial = serial
	d := delta{serial: serial, announced: announced, withdrawn: withdrawn, createdAt: time.Now()}
	if met := c.met.Load(); met != nil {
		met.updates.Inc()
	}
	frame := make([]byte, 0, prefixPDUsLen(announced)+prefixPDUsLen(withdrawn))
	d.frame = encodeVRPs(encodeVRPs(frame, announced, FlagAnnounce), withdrawn, 0)
	c.chunks = rebuildChunks(c.chunks, announced, withdrawn, true)
	c.history = append(c.history, d)
	c.histVRPs += d.vrpCount()
	c.histBytes += len(d.frame)
	c.evictLocked()
	c.recordPropTime(serial, d.createdAt)
	return serial
}

// applySnapshot installs a replicated full state: session and serial are
// adopted verbatim from the primary (so routers can resume against any
// frontend), the history is cleared (this cache cannot replay deltas that
// predate its own snapshot — out-of-window routers get Cache Reset), and
// subscribers are notified of the new serial.
func (c *Cache) applySnapshot(session uint16, serial uint32, vrps []rov.VRP) {
	chunks := appendChunks(nil, normalizeVRPs(vrps), true)
	c.mu.Lock()
	c.session = session
	c.serial = serial
	c.chunks = chunks
	c.history = nil
	c.histVRPs, c.histBytes = 0, 0
	c.mu.Unlock()
	c.notifyAll(serial)
}

// applyDelta installs one replicated delta, rebuilding only the chunks it
// falls in. The serial must be exactly the next one (ok=false otherwise —
// the follower missed a frame and must resynchronize); a serial at or below
// the current one is a duplicate replay and is ignored (ok=true), which is
// what makes reconnect replays harmless.
func (c *Cache) applyDelta(serial uint32, announced, withdrawn []rov.VRP) bool {
	announced = normalizeVRPs(announced)
	withdrawn = normalizeVRPs(withdrawn)
	c.mu.Lock()
	switch {
	case serial <= c.serial && c.serial-serial < 1<<31: // duplicate (serial-arithmetic tolerant)
		c.mu.Unlock()
		return true
	case serial != c.serial+1:
		c.mu.Unlock()
		return false
	}
	c.commitLocked(serial, announced, withdrawn)
	c.mu.Unlock()
	c.notifyAll(serial)
	return true
}

// mergeApply appends (base \ withdrawn) ∪ announced to dst. All three inputs
// are canonically sorted and duplicate-free; so is what is appended. The
// delta is walked entry by entry, base only where the delta falls: each entry
// is located from the previous one by seek, and the run of base in between is
// copied whole. A ten-VRP change to a chunk costs ten short searches and one
// copy of the chunk; a whacked subtree, where every search ends at once, is
// still a linear merge.
func mergeApply(dst, base, announced, withdrawn []rov.VRP) []rov.VRP {
	for len(announced) > 0 || len(withdrawn) > 0 {
		// The lower head is next; a VRP heading both lists is announced.
		announce := len(withdrawn) == 0 || len(announced) > 0 && announced[0].Compare(withdrawn[0]) <= 0
		var v rov.VRP
		if announce {
			v, announced = announced[0], announced[1:]
			if len(withdrawn) > 0 && withdrawn[0] == v {
				withdrawn = withdrawn[1:]
			}
		} else {
			v, withdrawn = withdrawn[0], withdrawn[1:]
		}
		at := seek(base, v)
		dst, base = append(dst, base[:at]...), base[at:]
		if len(base) > 0 && base[0] == v {
			base = base[1:]
		}
		if announce {
			dst = append(dst, v)
		}
	}
	return append(dst, base...)
}

// seek returns the position of the first entry of the canonical vrps that is
// not below v, galloping from the front: O(log position), so a near entry is
// found in a step or two and a far one without walking the entries between.
func seek(vrps []rov.VRP, v rov.VRP) int {
	hi := 1
	for hi <= len(vrps) && vrps[hi-1].Compare(v) < 0 {
		hi *= 2
	}
	// Everything before hi/2 is below v; the entry at hi-1, if there is one,
	// is not.
	lo := hi / 2
	at, _ := slices.BinarySearchFunc(vrps[lo:min(hi-1, len(vrps))], v, rov.VRP.Compare)
	return lo + at
}

// evictLocked drops the oldest deltas until the history fits every bound.
// Callers hold c.mu.
func (c *Cache) evictLocked() {
	for len(c.history) > 0 &&
		(len(c.history) > c.maxHist || c.histVRPs > c.maxHistVRPs || c.histBytes > c.maxHistBytes) {
		d := &c.history[0]
		c.histVRPs -= d.vrpCount()
		c.histBytes -= len(d.frame)
		c.history = c.history[1:]
	}
}

// snapshot returns the current chunk list (immutable; replaced wholesale on
// update), serial, and session. Callers write the chunks' frames as they are.
func (c *Cache) snapshot() (chunks []*chunk, serial uint32, session uint16) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chunks, c.serial, c.session
}

// deltaFrames returns the shared serialized frames of every delta after
// serial, oldest first, or ok=false if that serial has aged out of the
// history window. The frames are immutable; callers write them as-is.
func (c *Cache) deltaFrames(serial uint32) (frames [][]byte, current uint32, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if serial == c.serial {
		return nil, c.serial, true
	}
	found := false
	for i := range c.history {
		d := &c.history[i]
		if found || d.serial == serial+1 {
			found = true
			frames = append(frames, d.frame)
		}
	}
	if !found {
		return nil, c.serial, false
	}
	return frames, c.serial, true
}

// deltaEntries returns the deltas after serial, oldest first (slice headers
// copied; the VRP slices are shared read-only), or ok=false if that serial
// has aged out of the history window.
func (c *Cache) deltaEntries(serial uint32) (entries []delta, current uint32, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if serial == c.serial {
		return nil, c.serial, true
	}
	found := false
	for i := range c.history {
		d := &c.history[i]
		if found || d.serial == serial+1 {
			found = true
			entries = append(entries, *d)
		}
	}
	if !found {
		return nil, c.serial, false
	}
	return entries, c.serial, true
}

// subscribe registers a notification handle for one connection.
// queueDepth, when non-nil, reports the connection's send-queue depth to
// the scrape-time gauges. Subscribers are spread round-robin over the
// shards.
func (c *Cache) subscribe(peer string, queueDepth func() int) *subscriber {
	sub := &subscriber{peer: peer, wake: make(chan struct{}, 1), queueDepth: queueDepth}
	shard := &c.shards[c.nextShard.Add(1)%numSubShards]
	shard.mu.Lock()
	shard.subs[sub] = struct{}{}
	shard.mu.Unlock()
	return sub
}

// unsubscribe removes a notification handle.
func (c *Cache) unsubscribe(sub *subscriber) {
	for i := range c.shards {
		shard := &c.shards[i]
		shard.mu.Lock()
		if _, ok := shard.subs[sub]; ok {
			delete(shard.subs, sub)
			shard.mu.Unlock()
			return
		}
		shard.mu.Unlock()
	}
}

// notifyAll publishes serial to every subscriber, shard by shard. Each
// offer is a store plus a non-blocking doorbell ring, so the walk holds
// each shard lock only briefly and a wedged connection costs nothing.
func (c *Cache) notifyAll(serial uint32) {
	for i := range c.shards {
		shard := &c.shards[i]
		shard.mu.Lock()
		for sub := range shard.subs {
			sub.offer(serial)
		}
		shard.mu.Unlock()
	}
}

// subscriberCount returns the number of registered subscribers.
func (c *Cache) subscriberCount() int {
	n := 0
	for i := range c.shards {
		shard := &c.shards[i]
		shard.mu.Lock()
		n += len(shard.subs)
		shard.mu.Unlock()
	}
	return n
}

// queueDepthStats sums and maxes the per-connection send-queue depths.
func (c *Cache) queueDepthStats() (total, maxDepth int) {
	for i := range c.shards {
		shard := &c.shards[i]
		shard.mu.Lock()
		for sub := range shard.subs {
			if sub.queueDepth == nil {
				continue
			}
			d := sub.queueDepth()
			total += d
			if d > maxDepth {
				maxDepth = d
			}
		}
		shard.mu.Unlock()
	}
	return total, maxDepth
}

// recordPropTime stamps a serial's creation time in the fixed ring.
// Callers hold c.mu; the ring has its own lock so readers never touch mu.
func (c *Cache) recordPropTime(serial uint32, at time.Time) {
	c.propMu.Lock()
	c.propRing[serial%propRingSize] = propEntry{serial: serial, at: at}
	c.propMu.Unlock()
}

// deltaCreatedAt returns when the delta with the given serial entered the
// cache (ok=false if it aged out of the ring).
func (c *Cache) deltaCreatedAt(serial uint32) (time.Time, bool) {
	c.propMu.RLock()
	e := c.propRing[serial%propRingSize]
	c.propMu.RUnlock()
	if e.serial != serial || e.at.IsZero() {
		return time.Time{}, false
	}
	return e.at, true
}

// observePropagation records one client's notify latency for the delta
// with the given serial (no-op when uninstrumented or aged out).
func (c *Cache) observePropagation(serial uint32) {
	met := c.met.Load()
	if met == nil {
		return
	}
	if at, ok := c.deltaCreatedAt(serial); ok {
		met.propagation.Observe(time.Since(at).Seconds())
	}
}
