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

// delta records one cache update: the serial it starts from, how many VRPs
// it announces or withdraws, and their precomputed wire encoding, shared
// read-only by every connection that replays this delta. It ends where the
// next entry starts (the last, at the cache's serial). A primary's entries
// are one step each; a replica's span whatever its End of Data covered.
type delta struct {
	from uint32
	vrps int
	// frame is the delta's prefix PDUs (announces then withdraws),
	// serialized once at update time. Immutable after creation.
	frame []byte
}

// notice is one commit's serial notify, allocated once per commit and shared
// by every subscriber. at is when the commit entered the cache, anchoring the
// delta-propagation histogram; it is zero for a replica's reload, which is
// not a delta.
type notice struct {
	serial uint32
	at     time.Time
}

// subscriber is one connection's notification handle. Serial notifies are
// coalesced: pending always holds the latest notice and wake is a 1-slot
// doorbell, so a subscriber that has not drained yet absorbs any number of
// updates at zero queue growth — a slow consumer can never make the cache
// buffer per-client notify backlogs.
type subscriber struct {
	peer string
	// pending is the latest notice to announce (read with Load after a
	// wake). Writing pending then ringing wake is the only publish order.
	pending atomic.Pointer[notice]
	// wake is the 1-slot doorbell; a failed send means the subscriber is
	// already scheduled to look at pending.
	wake chan struct{}
	// queueDepth reports the owning connection's send-queue depth for the
	// scrape-time gauges (nil for connections without a queue).
	queueDepth func() int
}

// offer publishes n to the subscriber, coalescing with any not-yet-consumed
// notify.
func (s *subscriber) offer(n *notice) {
	s.pending.Store(n)
	select {
	case s.wake <- struct{}{}:
	default: // doorbell already rung; the pending notice is the newest
	}
}

// Cache is the server-side VRP database with serial-numbered history.
//
// Serving is zero-copy: the current set and each delta carry precomputed,
// immutable frames of serialized prefix PDUs, built once and written
// verbatim to every client — N routers asking for the same data cost N
// writes, not N serializations. The set is held as chunks (see chunk), so an
// update rebuilds and re-serializes only the chunks it touches. The delta
// history keeps each entry's frame and nothing else, and is bounded by entry
// count and total frame bytes, so a long-lived server's memory stays flat no
// matter how many updates it has seen; a client whose serial predates the
// retained window gets a Cache Reset and reloads the snapshot.
//
// The subscriber table has its own lock, so a notify sweep never holds mu:
// fan-out to 10k connections never serializes behind state updates (and
// vice versa).
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
	// History bounds: entries and total frame bytes. guarded by mu.
	maxHist      int
	maxHistBytes int

	// subMu is a leaf lock: nothing else is taken while it is held, and it
	// is never taken under mu.
	subMu sync.Mutex
	// subs holds the live subscribers. guarded by subMu.
	subs map[*subscriber]struct{}

	// met holds metric handles registered by Instrument (nil pointer when
	// uninstrumented); atomic so hot paths never lock to reach a counter.
	met atomic.Pointer[rtrMetrics]
}

// Default history bounds: plenty for steady-state polling, small enough
// that a churn storm cannot balloon a long-lived server. Every prefix PDU is
// at least 20 bytes, so the byte bound also holds the history to at most
// 52,428 VRPs.
const (
	defaultMaxHist      = 64
	defaultMaxHistBytes = 1 << 20
)

// NewCache creates an empty cache with the given session ID.
func NewCache(session uint16) *Cache {
	return &Cache{
		session:      session,
		maxHist:      defaultMaxHist,
		maxHistBytes: defaultMaxHistBytes,
		subs:         make(map[*subscriber]struct{}),
	}
}

// SetHistoryLimits bounds the retained delta history by entry count and
// total precomputed frame bytes. Arguments <= 0 keep the current value.
// Clients older than the retained window fall back to a full snapshot
// reload via Cache Reset.
func (c *Cache) SetHistoryLimits(entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if entries > 0 {
		c.maxHist = entries
	}
	if bytes > 0 {
		c.maxHistBytes = bytes
	}
	c.evictLocked()
}

// HistoryStats reports the retained history's size: its entries, the VRPs
// they announce or withdraw, and their frame bytes (for observability and
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
// replica tests compare a replica frontend against its primary with exactly
// this.
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

// splitDiffMin is the smallest input SetVRPs diffs in two halves at once. On
// two CPUs the split diff of an unchanged set costs 20 % more than one pass
// at 8,192 VRPs, the same at 16,384 and 32,768, 10 % less at 65,536 and a
// third less at 200,000 (DESIGN.md §7, "Two-half diff").
const splitDiffMin = 1 << 15

// diffChunks diffs the cached set against in: announced holds what is in in
// but not cached, withdrawn the reverse, both canonical and freshly
// allocated, and ok=false reports an input that is not canonical and
// encodable (see diffPass). With a seam inside in, the chunk list is cut
// before the first chunk whose head is not below in[seam], that head is found
// in in by binary search, and the two halves are diffed at once, the second
// on its own goroutine; with none, or a cut at either end of the list, in one
// pass. For canonical input the cut is exact: everything before it in both
// sets orders below the head and everything after it does not, so the halves'
// deltas concatenate. Each half checks its own part of in, and one Compare
// across the cut checks the pair neither half sees, so the check stays
// exact. An unchanged set yields two nil slices; split, it allocates only the
// helper goroutine's objects.
func diffChunks(chunks []*chunk, in []rov.VRP, seam int) (announced, withdrawn []rov.VRP, ok bool) {
	k := 0
	if 0 < seam && seam < len(in) {
		k, _ = slices.BinarySearchFunc(chunks, in[seam], func(ch *chunk, v rov.VRP) int { return ch.vrps[0].Compare(v) })
	}
	if k == 0 || k == len(chunks) {
		return diffPass(chunks, in)
	}
	m, _ := slices.BinarySearchFunc(in, chunks[k].vrps[0], rov.VRP.Compare)
	// slices.BinarySearchFunc compares both neighbours of m with the head,
	// which orders them whatever in holds; this Compare keeps the check
	// exact without leaning on how a search treats unsorted input.
	if 0 < m && m < len(in) && in[m-1].Compare(in[m]) >= 0 {
		return nil, nil, false
	}
	type half struct {
		announced, withdrawn []rov.VRP
		ok                   bool
	}
	done := make(chan half)
	go func() {
		a, w, ok := diffPass(chunks[k:], in[m:])
		done <- half{a, w, ok}
	}()
	announced, withdrawn, ok = diffPass(chunks[:k], in[:m])
	second := <-done
	if !ok || !second.ok {
		return nil, nil, false
	}
	return concatVRPs(announced, second.announced), concatVRPs(withdrawn, second.withdrawn), true
}

// concatVRPs returns a followed by b, reusing a or returning b when either
// is empty.
func concatVRPs(a, b []rov.VRP) []rov.VRP {
	if len(a) == 0 {
		return b
	}
	return append(a, b...)
}

// diffPass is diffChunks in one merge pass. A chunk equal to its run of in is
// passed over with one slices.Equal; only chunks that differ are walked entry
// by entry. Against no chunks (a first load) every entry of in is announced,
// into a slice sized once for all of them rather than grown by doubling.
//
// The same pass checks that in is canonical and encodable, and reports
// ok=false if not. The cached set is both by invariant, so an entry of in
// equal to a cached entry needs no check of its own: every earlier entry of
// in was either matched to an earlier cached entry or announced because it
// ordered below one, and so orders below this one too. Only an announced
// entry is tested, for encodability and against its predecessor in in.
func diffPass(chunks []*chunk, in []rov.VRP) (announced, withdrawn []rov.VRP, ok bool) {
	if len(chunks) == 0 {
		announced = make([]rov.VRP, 0, len(in))
	}
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
// per chunk, not the set. This is the one way a chunked set changes: a
// cache's commit (SetVRPs, or a replica's End of Data) and a router's End of
// Data both end here.
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
// one merge pass, cut in two halves run at once from splitDiffMin VRPs, that
// also verifies the input is canonical (what rp hands over; see diffChunks);
// input that is not is normalized (copied, sorted canonically, deduplicated,
// unencodable VRPs dropped) and diffed again. The diff runs outside the
// lock, against the chunk list as it stood; if another update replaced the
// list meanwhile, the input is diffed afresh. Only if anything changed are
// the chunks the delta touches rebuilt from the cache's own copies, the
// serial bumped, the delta frame serialized once, and subscribed
// connections notified. An unchanged canonical set costs no serial bump and
// no notification, which is what makes the relying party's steady-state
// polling loop end in silence here; below splitDiffMin it is a true no-op,
// with no allocation, and above it allocates only the second half's
// goroutine. The caller keeps ownership of vrps either way.
func (c *Cache) SetVRPs(vrps []rov.VRP) {
	seam := 0
	if len(vrps) >= splitDiffMin {
		seam = len(vrps) / 2
	}
	c.setVRPs(vrps, seam)
}

// setVRPs is SetVRPs with the diff split at seam (see diffChunks).
func (c *Cache) setVRPs(vrps []rov.VRP, seam int) {
	for {
		c.mu.Lock()
		chunks := c.chunks
		c.mu.Unlock()
		announced, withdrawn, ok := diffChunks(chunks, vrps, seam)
		if !ok {
			vrps = normalizeVRPs(vrps)
			continue
		}
		c.mu.Lock()
		if !sameChunks(c.chunks, chunks) {
			c.mu.Unlock()
			continue
		}
		if len(announced) == 0 && len(withdrawn) == 0 {
			c.mu.Unlock()
			return
		}
		n := c.commitLocked(c.serial+1, announced, withdrawn)
		c.mu.Unlock()
		c.notifyAll(n)
		return
	}
}

// sameChunks reports whether a and b hold one set. A cache's chunk list is
// replaced, never mutated, and a list held here keeps its backing array
// from reuse, so two lists that start at one element are one list.
func sameChunks(a, b []*chunk) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// commitLocked applies the delta to the chunks at the given serial and
// appends it to the bounded history. A delta whose frame alone would exceed
// the byte bound (a first load of a live-RPKI-sized set) is not encoded:
// the history is cleared, as eviction would clear it once the frame was in.
// announced and withdrawn are canonical, encodable and owned by the cache.
// Callers hold c.mu; they must pass the returned notice to notifyAll after
// unlocking.
func (c *Cache) commitLocked(serial uint32, announced, withdrawn []rov.VRP) *notice {
	n := &notice{serial: serial, at: time.Now()}
	d := delta{from: c.serial, vrps: len(announced) + len(withdrawn)}
	c.serial = serial
	if met := c.met.Load(); met != nil {
		met.updates.Inc()
	}
	c.chunks = rebuildChunks(c.chunks, announced, withdrawn, true)
	size := prefixPDUsLen(announced) + prefixPDUsLen(withdrawn)
	if size > c.maxHistBytes {
		c.history = nil
		c.histVRPs, c.histBytes = 0, 0
		return n
	}
	d.frame = encodeVRPs(encodeVRPs(make([]byte, 0, size), announced, FlagAnnounce), withdrawn, 0)
	c.history = append(c.history, d)
	c.histVRPs += d.vrps
	c.histBytes += len(d.frame)
	c.evictLocked()
	return n
}

// applySnapshot is a replica's reload: the set the primary sent, canonical
// and encodable (a router's End of Data; see reduceOps), becomes the cache's
// under the primary's session and serial verbatim, so routers can resume
// against any frontend. The history is cleared: this cache cannot replay
// deltas that predate its own snapshot, and out-of-window routers get Cache
// Reset. A reload is taken whatever its serial: it answers this
// connection's Reset Query, so it is the primary's set now — a primary that
// restarted under the same session (its ID is its PID) counts from 1 again.
// Subscribers are notified of the new serial; a reload is no delta, so its
// notice carries no propagation sample.
func (c *Cache) applySnapshot(session uint16, serial uint32, vrps []rov.VRP) {
	chunks := appendChunks(nil, vrps, true)
	c.mu.Lock()
	c.session = session
	c.serial = serial
	c.chunks = chunks
	c.history = nil
	c.histVRPs, c.histBytes = 0, 0
	c.mu.Unlock()
	c.notifyAll(&notice{serial: serial})
}

// applyDelta is a replica's delta: the net effect of a response that
// brought a router at the cache's base serial to serial, canonical and
// disjoint (reduceOps). It is committed as one history entry from the
// cache's current serial to serial — the primary's several steps, if the
// response spanned several, become one. It keeps only what changes here (an
// announce of a VRP held, or a withdraw of one not held, is left out), so
// the entry's frame is exact and no router is sent a duplicate announce or
// an unknown withdraw. An End of Data not ahead of the cache's serial is
// dropped (ok=false): an overlapping connection already brought it there.
func (c *Cache) applyDelta(serial uint32, announced, withdrawn []rov.VRP) bool {
	c.mu.Lock()
	if !serialAhead(serial, c.serial) {
		c.mu.Unlock()
		return false
	}
	announced = slices.DeleteFunc(announced, func(v rov.VRP) bool { return holds(c.chunks, v) })
	withdrawn = slices.DeleteFunc(withdrawn, func(v rov.VRP) bool { return !holds(c.chunks, v) })
	n := c.commitLocked(serial, announced, withdrawn)
	c.mu.Unlock()
	c.notifyAll(n)
	return true
}

// holds reports whether the chunked canonical set holds v.
func holds(chunks []*chunk, v rov.VRP) bool {
	k, _ := slices.BinarySearchFunc(chunks, v, func(ch *chunk, v rov.VRP) int { return ch.vrps[len(ch.vrps)-1].Compare(v) })
	if k == len(chunks) {
		return false
	}
	_, ok := slices.BinarySearchFunc(chunks[k].vrps, v, rov.VRP.Compare)
	return ok
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
		(len(c.history) > c.maxHist || c.histBytes > c.maxHistBytes) {
		d := &c.history[0]
		c.histVRPs -= d.vrps
		c.histBytes -= len(d.frame)
		*d = delta{} // or the backing array keeps the evicted frame alive
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

// deltaFrames returns the shared serialized frames of the history entries
// that run from serial to the current one, oldest first, or ok=false if no
// entry starts at serial: it aged out of the window, or a replica's entry
// spans it (a router there must reload; it is never sent a delta computed
// from a base it does not hold). The frames are immutable; callers write
// them as-is.
func (c *Cache) deltaFrames(serial uint32) (frames [][]byte, current uint32, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if serial == c.serial {
		return nil, c.serial, true
	}
	found := false
	for i := range c.history {
		d := &c.history[i]
		if found || d.from == serial {
			found = true
			frames = append(frames, d.frame)
		}
	}
	if !found {
		return nil, c.serial, false
	}
	return frames, c.serial, true
}

// subscribe registers a notification handle for one connection.
// queueDepth, when non-nil, reports the connection's send-queue depth to
// the scrape-time gauges.
func (c *Cache) subscribe(peer string, queueDepth func() int) *subscriber {
	sub := &subscriber{peer: peer, wake: make(chan struct{}, 1), queueDepth: queueDepth}
	c.subMu.Lock()
	defer c.subMu.Unlock()
	c.subs[sub] = struct{}{}
	return sub
}

// unsubscribe removes a notification handle.
func (c *Cache) unsubscribe(sub *subscriber) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	delete(c.subs, sub)
}

// notifyAll publishes n to every subscriber. Each offer is a pointer store
// plus a non-blocking doorbell ring, so a wedged connection costs nothing.
func (c *Cache) notifyAll(n *notice) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	for sub := range c.subs {
		sub.offer(n)
	}
}

// subscriberCount returns the number of registered subscribers.
func (c *Cache) subscriberCount() int {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return len(c.subs)
}

// queueDepthStats sums and maxes the per-connection send-queue depths.
func (c *Cache) queueDepthStats() (total, maxDepth int) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	for sub := range c.subs {
		if sub.queueDepth == nil {
			continue
		}
		d := sub.queueDepth()
		total += d
		if d > maxDepth {
			maxDepth = d
		}
	}
	return total, maxDepth
}

// observePropagation records one client's notify latency for n (no-op when
// uninstrumented, or for a reload's notice, which is not a delta).
func (c *Cache) observePropagation(n *notice) {
	met := c.met.Load()
	if met == nil || n.at.IsZero() {
		return
	}
	met.propagation.Observe(time.Since(n.at).Seconds())
}
